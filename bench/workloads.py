"""The three benchmark workloads, as the CLI commands a user would type.

Each task is one ``events`` command or a pipeline of two commands:
``events | lll-check`` or ``search | certify``.  ``run`` executes a task
through the in-process CLI and returns its timings; ``check`` validates
the files it wrote, untimed.
Task seeds and edge probabilities come from the workload seed only.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

#: cli(argv) -> (exit code, seconds)
Cli = Callable[[list], tuple]

LLL_F = 0.01
# Small edge probabilities keep the seed-to-seed cost of one task low, so a
# round of short tasks reads steadily across seeds (see README.md): at
# p = 0.06 MT resamples a few events and alpha stays below l = 50; at
# p = 0.006 every deletion certifies and at p = 0.01 none does within the
# node limit.
MT_P = 0.06
MT_L = 50
DELETE_PS = (0.006, 0.01)
DELETE_NODE_LIMIT = 1000


@dataclass
class TaskRun:
    """One executed task: what ran, how long each command took, what it wrote."""

    task: int
    args: dict
    times: dict = field(default_factory=dict)  # command name -> seconds
    codes: list = field(default_factory=list)
    files: dict = field(default_factory=dict)
    ok: bool = False  # the pipeline produced its verdict or certificate


def _timed(cli: Cli, run: TaskRun, argv: list) -> int:
    rc, seconds = cli(argv)
    run.times[argv[0]] = run.times.get(argv[0], 0.0) + seconds
    run.codes.append(rc)
    return rc


def _load(path) -> dict | None:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


class Workload:
    name: str
    n: int
    tasks_per_round: int

    def make_round(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def run(self, task: int, args: dict, cli: Cli, tmp: Path) -> TaskRun:
        raise NotImplementedError

    def check(self, run: TaskRun, seed: int) -> list[str]:
        raise NotImplementedError


class LllG8(Workload):
    """On G_8: ``events`` for the mixed (l=3, k=3) system, and
    ``events | lll-check`` for the cycles-only (k=3) system.

    The mixed system never reaches ``lll-check``: that command drops an
    events file's ``unavoidable`` list, so on the mixed system (5,600
    unavoidable triples) it reports ``infeasible: false``.  The check in
    ``checks.check_lll_pair`` would fail every such task.
    ``test_bench.test_lll_check_reports_unavoidable_events`` records the
    defect; once it is fixed, the mixed pair belongs back in this round.
    """

    name = "lll-g8"
    n = 2
    #: one mixed ``events`` task, then this many cycles-only pairs, so the
    #: lll kernel is about a quarter of the round rather than a tenth
    cycle_pairs = 4
    tasks_per_round = 1 + cycle_pairs

    def make_round(self, rng):
        ps = [round(rng.uniform(0.02, 0.08), 6) for _ in range(self.cycle_pairs)]
        return [{"p": ps[0], "l": 3}] + [{"p": p, "l": None} for p in ps]

    def run(self, task, args, cli, tmp):
        run = TaskRun(task, args)
        events = tmp / f"events-{task}.json"
        report = tmp / f"lll-{task}.json"
        run.files = {"events": events, "report": report}
        l_flag = ["--l", str(args["l"])] if args["l"] is not None else []
        argv = ["events", "--n", "2", *l_flag, "--k", "3", "--p", repr(args["p"]), "--out", str(events)]
        rc = _timed(cli, run, argv)
        if rc != 0 or args["l"] is not None:
            run.ok = rc == 0
            return run
        argv = ["lll-check", "--events", str(events), "--recipe-multipliers",
                "--f", repr(LLL_F), "--out", str(report)]
        run.ok = _timed(cli, run, argv) in (0, 2)
        return run

    def check(self, run, seed):
        if run.codes[:1] != [0]:
            return [f"events exited {run.codes}"]
        if not run.ok:
            return [f"lll-check exited {run.codes[1]}"]
        events = _load(run.files["events"])
        if events is None:
            return ["events file is missing or not JSON"]
        problems = checks.check_events_file(events, self.n, run.args["l"], run.args["p"])
        if run.args["l"] is not None:
            return problems
        report = _load(run.files["report"])
        if report is None:
            return problems + ["lll-check report is missing or not JSON"]
        return problems + checks.check_lll_pair(
            events, report, run.codes[1], run.args["p"], LLL_F,
            sample_seed=f"{seed}:{run.task}",
        )


class _SearchWorkload(Workload):
    """search | certify: certify re-verifies the mask the search emitted."""

    k = 4
    l: int | None = None
    node_limit: int | None = None
    submask_of_sample = False

    def _search_argv(self, args, out):
        raise NotImplementedError

    def run(self, task, args, cli, tmp):
        run = TaskRun(task, args)
        cert_path, recheck_path = tmp / f"cert-{task}.json", tmp / f"recheck-{task}.json"
        run.files = {"cert": cert_path, "recheck": recheck_path}
        budget = ["--node-limit", str(self.node_limit)] if self.node_limit else []
        if _timed(cli, run, [*self._search_argv(args, cert_path), "--jobs", "1", *budget]) != 0:
            return run
        cert = _load(cert_path)
        if cert is None:
            return run
        argv = ["certify", "--n", str(self.n), "--mask-hex", cert["edge_mask_hex"],
                "--k", str(self.k), "--l", str(cert["l"]), *budget, "--out", str(recheck_path)]
        run.ok = _timed(cli, run, argv) == 0
        return run

    def check(self, run, seed):
        doc = _load(run.files["cert"])
        if doc is None:
            return [f"search exited {run.codes} without a JSON result"]
        if run.codes[0] == 2:
            return [] if "reason" in doc else ["search failed without a reason"]
        if run.codes[0] != 0:
            return [f"search exited {run.codes[0]}"]
        if run.codes[1:] != [0]:
            return [f"certify rejected the search's certificate: exit {run.codes[1:]}"]
        recheck = _load(run.files["recheck"])
        if recheck is None:
            return ["certify wrote no JSON"]
        problems = checks.check_certificate(
            doc, recheck, self.n, self.k, self.l, run.args["seed"], run.args["p"],
            submask_of_sample=self.submask_of_sample,
        )
        if self.l is None and doc["l"] != doc["alpha"]:
            problems.append(f"deletion certificate has l={doc['l']} != alpha={doc['alpha']}")
        return problems


class MtG8(_SearchWorkload):
    """Moser-Tardos resampling on G_8 cycle events up to k=4."""

    name = "mt-g8"
    n = 2
    l = MT_L
    tasks_per_round = 7

    def make_round(self, rng):
        return [{"seed": rng.randrange(2**32), "p": MT_P} for _ in range(self.tasks_per_round)]

    def _search_argv(self, args, out):
        return ["search", "--n", "2", "--k", str(self.k), "--l", str(self.l),
                "--p", repr(args["p"]), "--seed", str(args["seed"]), "--method", "mt",
                "--out", str(out)]


class DeleteG12(_SearchWorkload):
    """Deletion method on G_12 at the edge of what the alpha solver finishes."""

    name = "delete-g12"
    n = 3
    node_limit = DELETE_NODE_LIMIT
    submask_of_sample = True
    tasks_per_round = 24

    def make_round(self, rng):
        return [
            {"seed": rng.randrange(2**32), "p": DELETE_PS[i % len(DELETE_PS)]}
            for i in range(self.tasks_per_round)
        ]

    def _search_argv(self, args, out):
        return ["search", "--n", "3", "--k", str(self.k), "--p", repr(args["p"]),
                "--seed", str(args["seed"]), "--method", "delete", "--out", str(out)]


WORKLOADS = {w.name: w for w in (LllG8(), MtG8(), DeleteG12())}
