"""Command-line surface tying the modules into reproducible experiments.

Subcommands: gen, solve, sample, events, lll-check, params, scan, search,
certify, export.  Exit codes: 0 for success or a holding verdict, 2 when
a verdict fails or a certification is rejected, 1 for usage and I/O
errors.

Every randomized command takes ``--seed`` (default 0, echoed in the
output) and is deterministic end to end.  A ``--config`` file holds flat
``key = value`` lines mirroring the flags.  Each line is read as the flag
``--key=value``, placed before the command line's own flags so that those
win, and argparse checks it as it checks any flag.  Required flags such as
``--n`` must be given on the command line even when the file names them.
The environment variable ``HIGHGIRTH_OUT`` sets the default output
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from functools import cache, partial
from itertools import chain, islice
from pathlib import Path

from . import __version__
from .dimacs import DimacsError, dump_json, read_dimacs, write_dimacs, write_vertex_json
from .graphs import EdgeSubset, SizeGuardError, build_base_graph
from .lll import (
    InfeasibleParameters,
    check_bollobas_lll,
    check_general_lll,
    choose_parameters,
    feasible_gamma_interval,
    verify_sys1_finite,
)
from .model import (
    EventSpec,
    EventSystem,
    ModelParams,
    build_event_system,
    derive_seed,
    sample_subgraph,
)
from .search import (
    CertificationError,
    GirthCertificate,
    SearchFailure,
    certify,
    deletion_method,
    moser_tardos_search,
)
from .solvers import (
    SolveBudget,
    chromatic_number,
    count_cycles,
    girth,
    independence_number,
)

OUTPUT_DIR_VAR = "HIGHGIRTH_OUT"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _output_dir(args) -> Path:
    explicit = getattr(args, "out_dir", None)
    path = Path(explicit or os.environ.get(OUTPUT_DIR_VAR, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(doc: dict, args, *files) -> None:
    """Write ``doc`` to ``files``, stdout and ``--out``, from one encoding."""
    out = getattr(args, "out", None)
    dump_json(doc, *files, sys.stdout, *([out] if out else []))


def _resolve_seed(args) -> int:
    if args.seed is None:
        print("seed not given; using default seed 0", file=sys.stderr)
        return 0
    return args.seed


def _model_params(args, seed: int = 0) -> ModelParams:
    """The model of ``--n`` and ``--gamma`` or ``--p``, one of which is
    required, with ``seed``; ``ModelParams`` range-checks every value."""
    if args.p is None and args.gamma is None:
        raise _UsageError("one of --gamma or --p is required")
    return ModelParams(n=args.n, gamma=args.gamma, seed=seed, p_override=args.p)


def _budget(args) -> SolveBudget:
    return SolveBudget(
        node_limit=getattr(args, "node_limit", 0),
        time_limit=getattr(args, "time_limit", 0.0),
    )


def cmd_gen(args) -> int:
    graph = build_base_graph(args.n)
    out = _output_dir(args)
    dimacs_path = out / f"g{graph.dimension}.dimacs"
    vertices_path = out / f"g{graph.dimension}.vertices.json"
    write_dimacs(graph, dimacs_path)
    write_vertex_json(graph, vertices_path)
    print(dimacs_path)
    print(vertices_path)
    return 0


def cmd_solve(args) -> int:
    g = read_dimacs(args.graph)
    if args.what == "cycles":
        counts = count_cycles(g, args.s)
        doc = {"labeled": counts.labeled, "distinct": counts.distinct, "s": args.s}
    elif args.what == "girth":
        doc = girth(g).to_json()
    elif args.what == "alpha":
        doc = independence_number(g, _budget(args)).to_json()
    else:
        doc = chromatic_number(g, _budget(args)).to_json()
    _emit(doc, args)
    return 0


def cmd_sample(args) -> int:
    g = build_base_graph(args.n)
    params = replace(_model_params(args), seed=_resolve_seed(args))
    sub = sample_subgraph(g, params)
    out = _output_dir(args)
    prefix = f"sample-n{args.n}-seed{params.seed}"
    dimacs_path = out / f"{prefix}.dimacs"
    write_dimacs(sub.to_graph(), dimacs_path)
    doc = {
        "n": args.n,
        "seed": params.seed,
        "gamma": params.gamma,
        "p": params.p,
        "num_edges": sub.num_edges,
        "edge_mask_hex": sub.mask_hex(),
        "dimacs": str(dimacs_path),
    }
    _emit(doc, args, out / f"{prefix}.json")
    return 0


def cmd_events(args) -> int:
    g = build_base_graph(args.n)
    p = _model_params(args).p
    system = build_event_system(g, args.k, args.l, p)
    doc = {"n": args.n, "p": p, "l": args.l, "k": args.k, **system.to_json()}
    _emit(doc, args)
    return 0


def _load_event_system(path: str) -> tuple[EventSystem, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("events"), list):
        raise _UsageError(f"{path}: expected an object with an 'events' array")
    if type(doc.get("p")) not in (int, float, type(None)):
        raise _UsageError(f"{path}: p must be a number, got {doc['p']!r}")
    events = []
    for i, entry in enumerate(doc["events"]):
        try:
            ev = EventSpec(
                kind=entry["kind"],
                variable_set=tuple(entry["variable_set"]),
                meta=entry.get("meta", len(entry["variable_set"])),
                probability=entry["probability"],
                members=tuple(entry.get("members", ())),
            )
            if not all(type(v) is int for v in (*ev.variable_set, *ev.members, ev.meta)):
                raise ValueError("variable_set, members and meta must be integers")
            if type(ev.probability) not in (int, float):
                raise ValueError(f"probability must be a number, got {ev.probability!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"{path}: events[{i}]: {exc}") from None
        events.append(ev)
    return EventSystem.from_events(events), doc


def cmd_lll_check(args) -> int:
    system, doc = _load_event_system(args.events)
    if args.recipe_multipliers:
        p = args.p if args.p is not None else doc.get("p")
        if p is None:
            raise _UsageError("--recipe-multipliers needs --p or a 'p' field in the events file")
        report = verify_sys1_finite(system, p, args.f)
        out_doc = {"style": "recipe", **report.to_json()}
        holds = report.holds
    else:
        if not args.assignment:
            raise _UsageError("either --assignment or --recipe-multipliers is required")
        with open(args.assignment) as fh:
            assignment_doc = json.load(fh)
        try:
            style = assignment_doc["style"]
            multipliers = tuple(assignment_doc["multipliers"])
            if style not in ("general", "bollobas"):  # a tuple test, so a list style lands here
                raise ValueError(f"unknown assignment style {style!r}")
            if any(type(m) not in (int, float) for m in multipliers):
                raise ValueError("multipliers must be numbers")
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"{args.assignment}: {exc}") from None
        check = check_general_lll if style == "general" else check_bollobas_lll
        report = check(system.probabilities, system.neighbors, multipliers)
        out_doc = report.to_json()
        out_doc["infeasible"] = not system.feasible
        holds = report.holds and system.feasible
    _emit(out_doc, args)
    return 0 if holds else 2


def cmd_params(args) -> int:
    try:
        params = choose_parameters(args.k, args.delta, n=args.n)
    except InfeasibleParameters as exc:
        _emit({"feasible": False, "reason": str(exc)}, args)
        return 2
    _emit({"feasible": True, **params.to_json()}, args)
    return 0


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad grid {text!r}; expected comma-separated floats") from None


def cmd_scan(args) -> int:
    epsilons = _parse_grid(args.epsilon_grid)
    fs = _parse_grid(args.f_grid)
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        for eps in epsilons:
            for f in fs:
                if not 0 < f < k - 1:
                    continue
                window = feasible_gamma_interval(k, eps, args.delta, f)
                rows.append(
                    {"k": k, "epsilon": eps, "f": f, "delta": args.delta, **vars(window),
                     "recipe": False}
                )
        try:
            params = choose_parameters(k, args.delta)
            rows.append(
                {"k": k, "epsilon": params.epsilon, "f": params.f, "delta": args.delta,
                 **vars(params.interval()), "recipe": True, "gamma": params.gamma}
            )
        except InfeasibleParameters:
            pass
    _emit({"delta": args.delta, "rows": rows}, args)
    return 0


def _search_once(args, seed: int) -> GirthCertificate | SearchFailure:
    """One search restart; module-level so process pools can run it."""
    g = build_base_graph(args.n)
    params = _model_params(args, seed)
    if args.method == "delete":
        return deletion_method(g, params, args.k, alpha_budget=_budget(args))
    return moser_tardos_search(
        g, params, args.k, args.l,
        max_resamples=args.max_resamples,
        subset_events={"auto": "auto", "on": True, "off": False}[args.subset_events],
        alpha_budget=_budget(args),
    )


def _worker_count(jobs: int, restarts: int) -> int:
    """Pool size for ``search --jobs``: never more workers than restarts or
    CPUs, since a forking pool starts all of its workers up front."""
    return max(1, min(jobs, restarts, os.cpu_count() or 1))


def cmd_search(args) -> int:
    if args.method == "mt" and args.l is None:
        raise _UsageError("--l is required for the mt method")
    if args.restarts < 1:
        raise _UsageError(f"--restarts must be at least 1, got {args.restarts}")
    _model_params(args)  # usage and range errors before any restart runs
    if args.method == "mt" and args.max_resamples is not None and args.max_resamples < 0:
        raise _UsageError(f"resample budget must be >= 0, got {args.max_resamples}")
    if args.k < 0:  # the library's refusal, but before any pool starts
        raise _UsageError(f"forbidden-cycle ceiling must be >= 0, got {args.k}")
    base_seed = _resolve_seed(args)
    # derived as the restarts reach them: restart 0 often certifies alone
    seeds = (derive_seed(base_seed, r) if r else base_seed for r in range(args.restarts))
    search = partial(_search_once, args)
    workers = _worker_count(args.jobs, args.restarts)
    if workers > 1:
        # the pool runs one window of ``workers`` seeds at a time and returns
        # each window in seed order: the winner is independent of scheduling
        from concurrent.futures import ProcessPoolExecutor

        runner = ProcessPoolExecutor(max_workers=workers)
        windows = iter(lambda: list(islice(seeds, workers)), [])
        outcomes = chain.from_iterable(runner.map(search, w) for w in windows)
    else:
        runner = contextlib.nullcontext()
        outcomes = map(search, seeds)
    with runner:
        for outcome in outcomes:
            if isinstance(outcome, GirthCertificate):
                break
    _emit(outcome.to_json(), args)
    return 0 if isinstance(outcome, GirthCertificate) else 2


def _subset_from_args(args, g) -> EdgeSubset:
    if args.mask_hex is not None:
        return EdgeSubset.from_hex(g, args.mask_hex)
    if not args.graph:
        raise _UsageError("one of --graph or --mask-hex is required")
    sub_graph = read_dimacs(args.graph)
    if sub_graph.num_vertices != g.num_vertices:
        raise _UsageError(
            f"subgraph has {sub_graph.num_vertices} vertices, base has {g.num_vertices}"
        )
    indices = []
    for u, v in sub_graph.edge_list:
        try:
            indices.append(g.edge_index(u, v))
        except KeyError:
            raise _UsageError(f"edge ({u + 1}, {v + 1}) is not a base edge") from None
    return EdgeSubset.from_edge_indices(g, indices)


def cmd_certify(args) -> int:
    g = build_base_graph(args.n)
    sub = _subset_from_args(args, g)
    try:
        cert = certify(sub, args.k, args.l, alpha_budget=_budget(args))
    except CertificationError as exc:
        _emit({"certified": False, "reason": exc.reason, "witness": exc.witness}, args)
        return 2
    _emit(cert.to_json(), args)
    return 0


def cmd_export(args) -> int:
    with open(args.certificate) as fh:
        cert = GirthCertificate.from_json(json.load(fh))
    g = build_base_graph(cert.n)
    sub = cert.subgraph(g)
    out = _output_dir(args)
    if args.format == "dimacs":
        path = out / f"certificate-n{cert.n}-k{cert.k}.dimacs"
        write_dimacs(sub.to_graph(), path)
    else:
        path = out / f"certificate-n{cert.n}-k{cert.k}.json"
        dump_json(cert.to_json(), path)
    print(path)
    return 0


def _add_budget_flags(p: _Parser) -> None:
    p.add_argument("--node-limit", type=int, default=0,
                   help="search-node limit for exact solvers (0 = unlimited)")
    p.add_argument("--time-limit", type=float, default=0.0,
                   help="time limit in seconds for exact solvers (0 = unlimited)")


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="highgirth", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, _Parser] = {}

    def sub(name: str, help_text: str) -> _Parser:
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="key = value file of flag defaults")
        registry[name] = p
        return p

    p = sub("gen", "write a base graph as DIMACS plus a vertex JSON")
    p.add_argument("--n", type=int, required=True, help="quarter-dimension")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub("solve", "run an exact solver on a DIMACS graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--what", choices=["girth", "alpha", "chi", "cycles"], required=True)
    p.add_argument("--s", type=int, default=3, help="cycle length for --what cycles")
    p.add_argument("--out", default=None)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub("sample", "draw a random spanning subgraph of a base graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--p", type=float, default=None, help="explicit edge probability")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub("events", "enumerate bad events and their dependencies")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None, help="independent-subset size")
    p.add_argument("--k", type=int, required=True, help="max forbidden cycle length")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_events)

    p = sub("lll-check", "check a Local Lemma condition on an event system")
    p.add_argument("--events", required=True, help="event-system JSON file")
    p.add_argument("--assignment", default=None, help="assignment JSON file")
    p.add_argument("--recipe-multipliers", action="store_true",
                   help="use the built-in multiplier recipe")
    p.add_argument("--f", type=float, default=0.01,
                   help="recipe exponent offset (with --recipe-multipliers)")
    p.add_argument("--p", type=float, default=None,
                   help="edge probability override for the recipe")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lll_check)

    p = sub("params", "choose a valid parameter tuple for (k, delta)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_params)

    p = sub("scan", "tabulate gamma windows over a parameter grid")
    p.add_argument("--k-min", type=int, default=3)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon-grid", default="0.25,0.5,1.0")
    p.add_argument("--f-grid", default="0.01,0.1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub("search", "search for a certified high-girth subgraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=None,
                   help="independence bound (mt only; delete derives it "
                        "from the exact independence number)")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--method", choices=["mt", "delete"], default="mt")
    p.add_argument("--max-resamples", type=int, default=None)
    p.add_argument("--subset-events", choices=["auto", "on", "off"], default="auto")
    p.add_argument("--restarts", type=int, default=1,
                   help="independent restarts with derived seeds")
    p.add_argument("--jobs", type=int, default=1,
                   help="restart parallelism (restarts stay seed-ordered)")
    p.add_argument("--out", default=None)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub("certify", "re-verify a subgraph against girth and independence bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph", default=None, help="subgraph in DIMACS format")
    p.add_argument("--mask-hex", default=None, help="edge mask as hex")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", default=None)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub("export", "re-materialize a certificate's subgraph")
    p.add_argument("--certificate", required=True)
    p.add_argument("--format", choices=["dimacs", "json"], default="dimacs")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_export)

    return parser, registry


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _config_flags(path: str, parser: _Parser) -> list[str]:
    """The ``key = value`` lines of a config file as flags of ``parser``.

    Each line becomes ``--key=value``, which argparse then checks as it
    checks the command line.  A key must name a flag exactly (argparse
    would take an abbreviation such as ``se`` for ``--seed``), and an
    on/off flag takes an on word for the bare flag or an off word for none.
    """
    lines = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = parts
            lines.append((key.strip().replace("-", "_"), value.strip()))
    flags = {
        action.dest: action for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }
    tokens = []
    for key, value in lines:
        action = flags.get(key)
        if action is None:
            raise _UsageError(f"{path}: key {key!r} matches no flag of {parser.prog}")
        flag = action.option_strings[0]
        if not isinstance(action, argparse._StoreTrueAction):
            tokens.append(f"{flag}={value}")
        elif value.lower() in _TRUE_WORDS:
            tokens.append(flag)
        elif value.lower() not in _FALSE_WORDS:
            raise _UsageError(
                f"{path}: key {key!r}: expected one of "
                f"{'/'.join(_TRUE_WORDS + _FALSE_WORDS)}, got {value!r}"
            )
    return tokens


@cache
def _parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The process's one parser, built on first use; nothing changes it."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file's flags go first, so the command line's win
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, registry[args.command])
            try:
                args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
            except _UsageError as exc:  # the first parse passed: the file is at fault
                raise _UsageError(f"{args.config}: {exc}") from None
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError, DimacsError, SizeGuardError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
