"""Constructive search for sparse high-girth subgraphs with small independence.

Two strategies produce certified subgraphs of a base graph:

* Moser-Tardos resampling: draw every edge Bernoulli(p), then repeatedly
  pick the violated event with the lowest canonical index and redraw its
  edge set, until no bad event holds or the resample budget runs out.
  The subgraph is a boolean array over the base edges, drawn and redrawn
  by ``model._draw``.  Its occurring cycle events are exactly the cycles of
  the kept graph, so each round lists those (``model.cycle_blocks`` of the
  kept array) and tests the few subset events; the base graph's cycles are
  only counted, once per search and from one vertex
  (``model.count_cycle_blocks``), for the guard and the default budget.
* deletion method: draw once, then repeatedly find the canonically first
  shortest cycle of length <= k and delete its smallest edge; termination
  and the girth guarantee are unconditional.  Each length's cycles are
  listed once, from the kept graph (``model._PathKernel.cycle_rows``), and
  walked in order, skipping those a deletion already broke.

Either way the result is only ever reported through ``certify``, which
re-verifies girth and independence with the exact solvers and refuses to
emit anything it could not verify.  ``recheck_certificate`` re-verifies a
stored certificate by rerunning ``certify`` on its mask, and
``solvers.chromatic_lower_bound_ratio`` is the one formula for
``chi_lower`` and ``empirical_rate``.

Randomness follows the model's PRNG contract: the first ``num_edges``
draws of the PCG64 stream are the initial sample (``model._draw``, as in
``sample_subgraph``), and each resampling consumes one further draw per
edge of the resampled event, in ascending edge-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__, model
from .graphs import _HEX_MASK, BaseGraph, EdgeSubset, Graph
from .model import (
    ModelParams,
    _PathKernel,
    _cycle_lengths,
    _draw,
    count_cycle_blocks,
    cycle_blocks,
    enumerate_independent_set_events,
    sample_subgraph,
)
from .solvers import (
    SolveBudget,
    SolveResult,
    chromatic_lower_bound_ratio,
    girth,
    independence_number,
)


class CertificationError(Exception):
    """A subgraph failed certification; carries the refuting witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


@dataclass(frozen=True)
class GirthCertificate:
    """An independently re-verifiable record of a certified subgraph.

    The chromatic lower bound is ``ceil(N / l)`` where N counts the base
    vertices; ``empirical_rate`` is its (1/4n)-th root.  ``seed`` and ``p``
    reproduce the initial sample only.  The deletion method's mask follows
    from that sample and k.  A Moser-Tardos mask also depends on l and the
    ``subset_events`` choice, and whether one is found on the resample
    budget; the certificate records neither.  ``recheck_certificate``
    re-verifies the girth, alpha and chi bound of ``edge_mask_hex``, not
    the search.
    """

    n: int
    k: int
    l: int
    alpha: int
    alpha_exact: bool
    chi_lower: int
    empirical_rate: float
    girth: int | float  # math.inf for forests
    edge_mask_hex: str
    seed: int | None = None
    gamma: float | None = None
    p: float | None = None
    solver_versions: dict = field(default_factory=dict)

    def subgraph(self, base: BaseGraph) -> EdgeSubset:
        if base.n != self.n:
            raise ValueError(f"certificate is for n={self.n}, base has n={base.n}")
        return EdgeSubset.from_hex(base, self.edge_mask_hex)

    def to_json(self) -> dict:
        doc = vars(self).copy()
        doc["gamma_or_p"] = {
            key: value for key in ("gamma", "p") if (value := doc.pop(key)) is not None
        }
        if self.girth == math.inf:
            doc["girth"] = "infinite"
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "GirthCertificate":
        """Load a certificate, refusing every value outside its JSON schema."""
        if not isinstance(doc, dict):
            raise ValueError("a certificate must be a JSON object")
        for key, least in (("n", 1), ("k", 0), ("l", 1), ("alpha", 0), ("chi_lower", 1)):
            _require(type(doc[key]) is int, key, "an integer", doc[key])
            _require(doc[key] >= least, key, f"at least {least}", doc[key])
        _require(type(doc["alpha_exact"]) is bool, "alpha_exact", "a boolean", doc["alpha_exact"])
        rate = doc["empirical_rate"]
        _require(_is_number(rate) and rate > 0, "empirical_rate", "a number > 0", rate)
        girth_value = doc["girth"]
        _require(
            girth_value == "infinite" or (type(girth_value) is int and girth_value >= 3),
            "girth", 'an integer >= 3 or "infinite"', girth_value,
        )
        seed = doc.get("seed")
        _require(seed is None or (type(seed) is int and seed >= 0),
                 "seed", "an integer >= 0 or null", seed)
        gamma_or_p = doc.get("gamma_or_p", {})
        _require(isinstance(gamma_or_p, dict), "gamma_or_p", "an object", gamma_or_p)
        gamma, p = gamma_or_p.get("gamma"), gamma_or_p.get("p")
        _require(gamma is None or (_is_number(gamma) and 0 < gamma < 1),
                 "gamma", "a number in (0, 1)", gamma)
        _require(p is None or (_is_number(p) and 0 <= p <= 1), "p", "a number in [0, 1]", p)
        mask = doc["edge_mask_hex"]
        _require(type(mask) is str, "edge_mask_hex", "a string", mask)
        _require(_HEX_MASK.fullmatch(mask) is not None, "edge_mask_hex",
                 "lowercase hex digits", mask)
        solver_versions = doc.get("solver_versions", {})
        _require(isinstance(solver_versions, dict), "solver_versions", "an object",
                 solver_versions)
        return cls(
            n=doc["n"],
            k=doc["k"],
            l=doc["l"],
            alpha=doc["alpha"],
            alpha_exact=doc["alpha_exact"],
            chi_lower=doc["chi_lower"],
            empirical_rate=rate,
            girth=math.inf if girth_value == "infinite" else girth_value,
            edge_mask_hex=mask,
            seed=seed,
            gamma=gamma,
            p=p,
            solver_versions=solver_versions,
        )


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _require(ok: bool, key: str, what: str, value) -> None:
    """Refuse a certificate field that is not ``what``."""
    if not ok:
        raise ValueError(f"certificate {key} must be {what}, got {value!r}")


@dataclass(frozen=True)
class SearchFailure:
    """A search that ended without a certificate, with its statistics."""

    reason: str
    n: int
    k: int
    l: int
    seed: int
    resamples: int = 0
    violated_history: tuple[int, ...] = ()
    witness: list | None = None

    def to_json(self) -> dict:
        return vars(self).copy()


def certify(
    sub: EdgeSubset,
    k: int,
    l: int,
    alpha_budget: SolveBudget | None = None,
    seed: int | None = None,
    gamma: float | None = None,
    p: float | None = None,
) -> GirthCertificate:
    """Verify girth > k and independence <= l; emit a certificate or refuse.

    Rejection carries a refuting witness: a short cycle, or an independent
    set larger than l.  If the independence solve leaves budget before
    reaching exactness the certification is refused outright rather than
    emitting an unverified bound.  The subset is converted to a ``Graph``
    once and both solvers run on that graph.
    """
    _cycle_lengths(sub.base, k)  # refuses a negative k
    if l < 1:
        raise ValueError(f"independence bound must be >= 1, got {l}")
    g = sub.to_graph()
    girth_result = _girth_above(g, k)
    alpha_result = independence_number(g, alpha_budget)
    if not alpha_result.exact:
        raise CertificationError(
            "independence solve exhausted its budget; refusing to certify "
            "an unverified bound"
        )
    return _certificate(sub, k, l, girth_result, alpha_result, seed, gamma, p)


def _girth_above(g: Graph, k: int) -> SolveResult:
    """The girth of ``g``; a ``CertificationError`` unless it exceeds k."""
    girth_result = girth(g)
    if girth_result.value <= k:
        raise CertificationError(
            f"girth {girth_result.value} is not above {k}",
            witness=girth_result.witness,
        )
    return girth_result


def _certificate(
    sub: EdgeSubset,
    k: int,
    l: int,
    girth_result: SolveResult,
    alpha_result: SolveResult,
    seed: int | None,
    gamma: float | None,
    p: float | None,
) -> GirthCertificate:
    """The certificate for a verified girth and an exact alpha <= l."""
    if alpha_result.value > l:
        raise CertificationError(
            f"independence number {alpha_result.value} exceeds the bound {l}",
            witness=alpha_result.witness,
        )
    bound = chromatic_lower_bound_ratio(sub, l)
    return GirthCertificate(
        n=sub.base.n,
        k=k,
        l=l,
        alpha=int(alpha_result.value),
        alpha_exact=True,
        chi_lower=bound.chi_lower,
        empirical_rate=bound.rate,
        girth=girth_result.value,
        edge_mask_hex=sub.mask_hex(),
        seed=seed,
        gamma=gamma,
        p=p,
        solver_versions={"highgirth": __version__},
    )


def recheck_certificate(
    cert: GirthCertificate,
    base: BaseGraph,
    alpha_budget: SolveBudget | None = None,
) -> list[str]:
    """Re-verify every claim of a certificate by rerunning ``certify``.

    Returns a list of discrepancies (empty means the certificate stands).
    ``certify`` runs the exact solvers on the reconstructed subgraph with
    the certificate's k and l, independently of whatever produced it; its
    refusal, such as a girth not above k or an independence solve that
    exhausts ``alpha_budget``, is the one discrepancy, so an exhausted
    recheck never confirms a certificate.  Otherwise every derived field
    that the fresh certificate disagrees with is reported.
    """
    try:
        fresh = certify(cert.subgraph(base), cert.k, cert.l, alpha_budget=alpha_budget)
    except CertificationError as exc:
        return [exc.reason]
    problems = []
    for name in ("girth", "alpha", "alpha_exact", "chi_lower", "empirical_rate"):
        got, said = getattr(fresh, name), getattr(cert, name)
        if not _agrees(got, said):
            problems.append(f"{name} recomputes to {got}, certificate says {said}")
    return problems


def _agrees(got, said) -> bool:
    """Equality, with floats compared to a relative tolerance of 1e-12."""
    if isinstance(got, float):
        return math.isclose(got, said, rel_tol=1e-12)
    return got == said


def moser_tardos_search(
    g: BaseGraph,
    params: ModelParams,
    k: int,
    l: int,
    max_resamples: int | None = None,
    subset_events: bool | str = "auto",
    alpha_budget: SolveBudget | None = None,
) -> GirthCertificate | SearchFailure:
    """Resample violated events until none holds, then certify.

    Events are ordered canonically (subset events in combinations order
    first, then cycles by length); the lowest-index violated event is
    resampled each round.  Cycle events cover every length 3..k; subset
    events come only when ``subset_events`` allows and the count C(N, l)
    fits ``model.EVENT_ENUMERATION_GUARD``.  The default budget is ten
    resamples per event.  Budget exhaustion and certification rejections
    come back as ``SearchFailure`` values, never exceptions; more than
    ``EVENT_ENUMERATION_GUARD`` base cycles raise ``SizeGuardError``, and a
    negative k, a negative budget or ``params`` built for another n raise
    ``ValueError``.

    The subgraph is a boolean kept-edge array.  The avoidable subset
    events' edge ids lie end to end in one array, with each event's start
    offset in another, so one ``logical_or.reduceat`` tests them all.  The
    base graph's cycles are counted once and never listed.  Each round
    lists the kept graph's cycles, which are the occurring cycle events in
    event order with their base edge ids, so the violated count is the
    occurring subset events plus those rows, and the event to resample is
    the first occurring subset event or else the first row of the shortest
    non-empty length.
    """
    _cycle_lengths(g, k)  # refuses a negative k before any draw
    if max_resamples is not None and max_resamples < 0:
        raise ValueError(f"resample budget must be >= 0, got {max_resamples}")
    draw, kept = _draw(g, params)
    p = params.p
    nv = g.num_vertices
    guard = model.EVENT_ENUMERATION_GUARD
    enumerable = l <= nv and math.comb(nv, l) <= guard
    if subset_events is True and l <= nv and not enumerable:
        return SearchFailure(
            reason=f"subset events required but C({nv}, {l}) "
            f"exceeds the enumeration guard {guard}",
            n=g.n, k=k, l=l, seed=params.seed,
        )
    subsets = []
    if subset_events and enumerable:
        subsets = enumerate_independent_set_events(g, l, p)
    unavoidable = [ev for ev in subsets if ev.unavoidable]
    if unavoidable:
        return SearchFailure(
            reason=f"{len(unavoidable)} l-subsets span no base edge "
            f"(l <= alpha of the base graph); no subgraph can avoid them",
            n=g.n, k=k, l=l, seed=params.seed,
            witness=list(unavoidable[0].members),
        )
    # the subset events' edge ids end to end, and where each starts (and the last ends)
    subset_ids = np.array([e for ev in subsets for e in ev.variable_set], dtype=np.int64)
    subset_starts = np.cumsum([0] + [len(ev.variable_set) for ev in subsets])
    # counting the base graph's cycles enforces the cycle guard
    size = len(subsets) + count_cycle_blocks(g, k)
    if max_resamples is None:
        max_resamples = 10 * size
    history = []
    resamples = 0
    while True:
        occurring = np.zeros(0, dtype=bool)
        if subsets:
            occurring = ~np.logical_or.reduceat(kept[subset_ids], subset_starts[:-1])
        cycles = cycle_blocks(g, k, kept)
        violated = int(np.count_nonzero(occurring)) + sum(map(len, cycles))
        history.append(violated)
        if not violated:
            break
        if resamples >= max_resamples:
            return SearchFailure(
                reason=f"resample budget {max_resamples} exhausted with "
                f"{violated} events still violated",
                n=g.n, k=k, l=l, seed=params.seed,
                resamples=resamples, violated_history=tuple(history),
            )
        if occurring.any():
            i = int(occurring.argmax())
            edge_ids = subset_ids[subset_starts[i]:subset_starts[i + 1]]
        else:
            edge_ids = next(b.edge_ids[0] for b in cycles if len(b))
        kept[edge_ids] = draw(len(edge_ids))
        resamples += 1
    sub = EdgeSubset.from_kept(g, kept)
    try:
        cert = certify(
            sub, k, l,
            alpha_budget=alpha_budget,
            seed=params.seed, gamma=params.gamma, p=p,
        )
    except CertificationError as exc:
        return SearchFailure(
            reason=f"certification rejected: {exc.reason}",
            n=g.n, k=k, l=l, seed=params.seed,
            resamples=resamples, violated_history=tuple(history),
            witness=exc.witness,
        )
    return cert


def deletion_method(
    g: BaseGraph,
    params: ModelParams,
    k: int,
    alpha_budget: SolveBudget | None = None,
) -> GirthCertificate | SearchFailure:
    """Sample once, then delete one edge per short cycle until girth > k.

    Cycles are destroyed shortest first; each round removes the smallest
    edge (by canonical index) of the canonically first shortest cycle, so
    a fixed seed always yields the same subgraph.  Afterwards the exact
    independence number becomes the certificate's bound l; that one exact
    solve both picks l and certifies it, together with a girth check of the
    same graph.  Terminates unconditionally: every deletion kills at least
    one short cycle.  An exhausted alpha budget or a refused certification
    comes back as a ``SearchFailure`` with l = 0; a negative k raises
    ``ValueError`` before anything is drawn.
    """
    lengths = _cycle_lengths(g, k)  # refuses a negative k before the draw
    kept = np.zeros(g.num_edges, dtype=bool)
    kept[sample_subgraph(g, params).edge_indices()] = True
    alive = bytearray(kept)  # per-edge lookups read a bytearray fastest
    for s in lengths:
        # the s-cycles of the graph kept so far, in canonical order; a row
        # stays a cycle while all its edges are kept, and deletions create
        # no cycle, so the first such row is the first s-cycle left
        kernel = _PathKernel(g, np.frombuffer(alive, dtype=bool))
        for rows in kernel.cycle_rows(s, k):
            for edge_ids in kernel.edge_ids(rows).tolist():
                if all(map(alive.__getitem__, edge_ids)):
                    alive[edge_ids[0]] = 0
    final = EdgeSubset.from_kept(g, np.frombuffer(alive, dtype=bool))
    graph = final.to_graph()
    alpha_result = independence_number(graph, alpha_budget)
    try:
        if not alpha_result.exact:
            raise CertificationError(
                "independence solve exhausted its budget; cannot pick a "
                "certified bound l"
            )
        return _certificate(
            final, k, int(alpha_result.value), _girth_above(graph, k),
            alpha_result, seed=params.seed, gamma=params.gamma, p=params.p,
        )
    except CertificationError as exc:
        return SearchFailure(
            reason=exc.reason, n=g.n, k=k, l=0, seed=params.seed,
            witness=exc.witness,
        )
