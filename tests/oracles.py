"""Brute-force oracles, independent of the library's algorithms.

Everything here enumerates outright: subsets for independence, color
assignments for coloring, vertex arrangements for cycles, cliques for the
independence cross-check.  Only usable on small graphs.

Fast paths also keep their former slow implementations here, as
references that must agree with them exactly.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations, product

import math
from math import comb
from typing import Iterator, Sequence

import numpy as np

from highgirth import model
from highgirth.graphs import BaseGraph, EdgeSubset, Graph, SizeGuardError, iter_bits
from highgirth.lll import (
    DEFAULT_TOL,
    HYPOTHESIS_CAP,
    CheckReport,
    FiniteSystemReport,
    _check_lengths,
    recipe_multipliers,
)
from highgirth.model import (
    KIND_CYCLE,
    KIND_INDEPENDENT_SET,
    EventSpec,
    EventSystem,
    ModelParams,
    _PathKernel,
    _edge_id_matrix,
    _too_many_cycles,
    cycle_blocks,
    sample_subgraph,
)
from highgirth.search import (
    CertificationError,
    GirthCertificate,
    SearchFailure,
    _certificate,
    _girth_above,
    certify,
)
from highgirth.solvers import (
    SolveBudget,
    SolveResult,
    _Budget,
    _components,
    _Exhausted,
    _greedy_clique,
    _path_or_cycle_alpha,
    _reconstruct_cycle,
    as_graph,
    independence_number,
)


# --- witness checks ---------------------------------------------------------


def verify_independent_set(view, vertices: Sequence[int]) -> bool:
    """True iff the vertex set spans no edge of the view's graph."""
    g = as_graph(view)
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    return all(not g.has_edge(u, v) for u, v in combinations(vs, 2))


def verify_coloring(view, color_of: Sequence[int]) -> bool:
    """True iff the color assignment is a proper coloring of the view."""
    g = as_graph(view)
    if len(color_of) != g.num_vertices:
        return False
    return all(color_of[u] != color_of[v] for u, v in g.edge_list)


def verify_cycle(view, cycle: Sequence[int]) -> bool:
    """True iff the vertex sequence is a simple cycle of the view's graph."""
    g = as_graph(view)
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    return all(g.has_edge(u, v) for u, v in cycle_edges(g, cycle))


def cycle_edges(g: Graph, cycle: Sequence[int]) -> list[tuple[int, int]]:
    """The edge pairs of a cycle given as a vertex sequence."""
    out = []
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        out.append((u, v) if u < v else (v, u))
    return out


def edge_set(edges):
    return {frozenset(e) for e in edges}


def alpha_exhaustive(num_vertices, edges):
    """Maximum independent set size by scanning all vertex subsets."""
    es = edge_set(edges)
    for size in range(num_vertices, 0, -1):
        for subset in combinations(range(num_vertices), size):
            if not any(frozenset(pair) in es for pair in combinations(subset, 2)):
                return size
    return 0


def chi_exhaustive(num_vertices, edges):
    """Chromatic number by scanning all color assignments, k ascending."""
    if num_vertices == 0:
        return 0
    es = [tuple(e) for e in edges]
    for k in range(1, num_vertices + 1):
        for assignment in product(range(k), repeat=num_vertices):
            if all(assignment[u] != assignment[v] for u, v in es):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def girth_exhaustive(num_vertices, edges):
    """Shortest cycle length by scanning all vertex arrangements."""
    es = edge_set(edges)
    for size in range(3, num_vertices + 1):
        if count_distinct_cycles(num_vertices, edges, size):
            return size
    return float("inf")


def count_distinct_cycles(num_vertices, edges, s):
    """Distinct s-cycles: one canonical arrangement per geometric cycle."""
    es = edge_set(edges)
    count = 0
    for subset in combinations(range(num_vertices), s):
        anchor, rest = subset[0], subset[1:]
        for order in permutations(rest):
            if order[0] > order[-1]:
                continue  # reflection
            cycle = (anchor,) + order
            if all(
                frozenset((cycle[i], cycle[(i + 1) % s])) in es for i in range(s)
            ):
                count += 1
    return count


# --- the former cycle enumerator -------------------------------------------
#
# A recursive bitmask generator, and the deletion search that ran on it,
# before both moved onto ``model._PathKernel``.  They stay the reference
# for canonical cycle order and for the deletion method's output.


def enumerate_cycles(g: Graph, s: int) -> Iterator[tuple[int, ...]]:
    """Yield every distinct s-cycle of ``g`` exactly once, as vertex tuples.

    Canonical form: the tuple starts at the cycle's smallest vertex, and
    its second vertex is smaller than its last (killing the reflection).
    Tuples are produced in lexicographic order; downstream event indexing
    relies on this order being stable.
    """
    if s < 3:
        raise ValueError(f"cycle length must be >= 3, got {s}")
    yield from iter_cycles(g.adj, s)


def iter_cycles(
    adj: list[int], s: int, start_root: int = 0
) -> Iterator[tuple[int, ...]]:
    """Canonical s-cycles of a bitmask adjacency list, lexicographically.

    Only cycles whose smallest vertex is at least ``start_root`` come out,
    so a caller that edits ``adj`` between cycles can resume where earlier
    roots are known to be exhausted.
    """
    for root in range(start_root, len(adj)):
        above_root = -1 << (root + 1)
        for v1 in iter_bits(adj[root] & above_root):
            yield from _extend_cycle(adj, root, [root, v1], (1 << root) | (1 << v1), s)


def _extend_cycle(
    adj: list[int], root: int, path: list[int], used: int, s: int
) -> Iterator[tuple[int, ...]]:
    v = path[-1]
    above_root = -1 << (root + 1)
    if len(path) == s - 1:
        # close the cycle: adjacent to both ends, above the reflection bound
        closing = adj[v] & adj[root] & above_root & ~used & (-1 << (path[1] + 1))
        for w in iter_bits(closing):
            yield tuple(path) + (w,)
        return
    for w in iter_bits(adj[v] & above_root & ~used):
        path.append(w)
        yield from _extend_cycle(adj, root, path, used | (1 << w), s)
        path.pop()



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
    comes back as a ``SearchFailure`` with l = 0.
    """
    sub = sample_subgraph(g, params)
    adj = [0] * g.num_vertices
    mask = sub.mask
    for u, v in g.edge_array[sub.edge_indices()].tolist():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for s in range(3, k + 1):
        root = 0
        while True:
            cycle = next(iter_cycles(adj, s, root), None)
            if cycle is None:
                break
            root = cycle[0]  # deletions never create cycles at earlier roots
            edge_ids = []
            for i, u in enumerate(cycle):
                v = cycle[(i + 1) % s]
                edge_ids.append(g.edge_index(u, v))
            drop = min(edge_ids)
            a, b = g.edge_array[drop].tolist()
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)
            mask &= ~(1 << drop)
    final = EdgeSubset(g, mask)
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


def edges_within_exhaustive(edges, subset):
    chosen = set(subset)
    return sum(1 for u, v in edges if u in chosen and v in chosen)


def max_clique_enumerate(num_vertices, neighbor_sets):
    """Maximum clique by exhaustive extension with size pruning.

    Recursively extends cliques by ascending candidate vertex; the only
    cut drops branches that cannot beat the incumbent, so the scan stays
    exhaustive over maximal cliques.
    """
    best = []

    def extend(current, candidates):
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if len(current) + len(candidates) <= len(best):
            return
        for v in sorted(candidates):
            extend(
                current + [v],
                {u for u in candidates if u > v and u in neighbor_sets[v]},
            )

    extend([], set(range(num_vertices)))
    return best


def alpha_via_complement_cliques(num_vertices, edges):
    """Independence number as the maximum clique of the complement."""
    es = edge_set(edges)
    comp = [set() for _ in range(num_vertices)]
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if frozenset((u, v)) not in es:
                comp[u].add(v)
                comp[v].add(u)
    return max_clique_enumerate(num_vertices, comp)


def occurs(ev: EventSpec, mask: int) -> bool:
    """Whether an event holds on a subgraph given as an edge mask.

    A cycle event holds when every edge of its variable set is present, an
    independent-set event when none is.
    """
    present = [(mask >> e) & 1 for e in ev.variable_set]
    return all(present) if ev.kind == KIND_CYCLE else not any(present)


def occurring_events(events, mask):
    """Indices of the events that hold on an edge mask, one event at a time."""
    return [i for i, ev in enumerate(events) if occurs(ev, mask)]


def split_neighbors(system: EventSystem, i: int) -> dict[tuple[str, int], list[int]]:
    """Neighbourhood of event i grouped by (kind, meta)."""
    groups: dict[tuple[str, int], list[int]] = {}
    for j in system.neighbors[i]:
        ev = system.events[j]
        groups.setdefault((ev.kind, ev.meta), []).append(j)
    return groups


def base_graph_pairscan(n):
    """The base graph by scanning every vertex pair with a big-int popcount.

    Returns ``(masks, edge_list, adj)``: balanced masks in numeric order,
    edges ``(i, j)`` with ``i < j`` in lexicographic order, and one
    adjacency bitmask per vertex.
    """
    dim = 4 * n
    masks = [m for m in range(1 << dim) if m.bit_count() * 2 == dim]
    edges = []
    adj = [0] * len(masks)
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if (mi & masks[j]).bit_count() == n:
                edges.append((i, j))
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return masks, edges, adj


# The sparse independent-set kernel as it was before degrees were kept
# incrementally: every node rescans the active set from bit 0 for each
# peeled vertex and again for the branching vertex.  Same search tree,
# same budget ticks; the fast kernel must match it node for node.


def _greedy_sparse_mis(adj: list[int], active: int) -> list[int]:
    """Deterministic min-degree greedy independent set (initial incumbent)."""
    chosen = []
    while active:
        best_v, best_d = -1, None
        m = active
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (adj[v] & active).bit_count()
            if best_d is None or d < best_d:
                best_v, best_d = v, d
                if d == 0:
                    break
        chosen.append(best_v)
        active &= ~(adj[best_v] | (1 << best_v))
    return chosen


def _sparse_mis(adj: list[int], n: int, budget: _Budget) -> tuple[list[int], bool]:
    """Branch-and-reduce maximum independent set for sparse graphs.

    Vertices of degree <= 1 are always taken (exchange argument); branching
    happens only on a maximum-degree vertex, in or out.  Far faster than
    the complement-clique route when the complement is dense.
    """
    best = _greedy_sparse_mis(adj, (1 << n) - 1)
    exact = True

    def search(active: int, current: list[int]):
        nonlocal best
        budget.tick()
        mark = len(current)
        try:
            while True:  # peel: degree <= 1 vertices are always optimal picks
                picked = -1
                m = active
                while m:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    if (adj[v] & active).bit_count() <= 1:
                        picked = v
                        break
                if picked < 0:
                    break
                current.append(picked)
                active &= ~(adj[picked] | (1 << picked))
            if not active:
                if len(current) > len(best):
                    best = current.copy()
                return
            if len(current) + active.bit_count() <= len(best):
                return
            v_star, d_star = -1, -1
            m = active
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                d = (adj[v] & active).bit_count()
                if d > d_star:
                    v_star, d_star = v, d
            current.append(v_star)
            search(active & ~(adj[v_star] | (1 << v_star)), current)
            current.pop()
            search(active & ~(1 << v_star), current)
        finally:
            del current[mark:]

    try:
        if n:
            search((1 << n) - 1, [])
    except _Exhausted:
        exact = False
    return sorted(best), exact


# The complement-clique route of ``independence_number`` as it was before
# every component went through the branch-and-reduce kernel: maximum clique
# on each component's complement, by branch-and-bound with greedy-coloring
# upper bounds.  The kernel must find the same independence numbers.


def _color_sort(adj: list[int], cands: int) -> list[tuple[int, int]]:
    """Greedy-color candidates; returns (vertex, color) with colors ascending."""
    colored = []
    uncolored = cands
    color = 0
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            colored.append((v, color))
            uncolored &= ~low
            avail &= ~adj[v]
            avail &= ~low
    return colored


def _max_clique(adj: list[int], n: int, budget: _Budget) -> tuple[list[int], bool]:
    """Branch-and-bound maximum clique with greedy-coloring upper bounds."""
    best = _greedy_clique(adj, n)
    exact = True

    def expand(cands: int, current: list[int]):
        nonlocal best
        budget.tick()
        for v, color in reversed(_color_sort(adj, cands)):
            if len(current) + color <= len(best):
                return
            current.append(v)
            narrowed = cands & adj[v]
            if narrowed:
                expand(narrowed, current)
            elif len(current) > len(best):
                best = sorted(current)
            current.pop()
            cands &= ~(1 << v)

    try:
        if n:
            expand((1 << n) - 1, [])
    except _Exhausted:
        exact = False
    return best, exact


def independence_number_via_cliques(view, budget: SolveBudget | None = None) -> SolveResult:
    """``independence_number`` with every degree->=3 component on the clique route."""
    g = as_graph(view)
    acct = _Budget(budget)
    chosen: list[int] = []
    exact = True
    for comp in _components(g.adj, g.num_vertices):
        verts = list(iter_bits(comp))
        if len(verts) == 1:
            chosen.extend(verts)
            continue
        if max((g.adj[v] & comp).bit_count() for v in verts) <= 2:
            chosen.extend(_path_or_cycle_alpha(g.adj, comp, verts))
            continue
        local = {v: i for i, v in enumerate(verts)}
        size = len(verts)
        comp_adj = [0] * size
        for v in verts:
            mask = 0
            for w in iter_bits(comp & ~g.adj[v] & ~(1 << v)):
                mask |= 1 << local[w]
            comp_adj[local[v]] = mask
        found, comp_exact = _max_clique(comp_adj, size, acct)
        chosen.extend(verts[i] for i in found)
        exact = exact and comp_exact
    chosen.sort()
    return SolveResult(value=len(chosen), exact=exact, witness=chosen)


# Girth as it was before the search was confined to the 2-core: a
# breadth-first search from every vertex.  The fast version must return
# the same value and the same witness.


def girth(view) -> SolveResult:
    """Length of the shortest cycle, with one shortest cycle as witness.

    Runs a breadth-first search from every vertex; a non-tree edge seen at
    depth d closes a walk of length dist(u) + dist(w) + 1 through the
    root, and the minimum such walk over all roots is the girth.  Forests
    report ``math.inf`` and no witness.
    """
    g = as_graph(view)
    adj = g.adj
    best: int | float = math.inf
    best_cycle: list[int] | None = None
    for root in range(g.num_vertices):
        if best == 3:
            break
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            du = dist[u]
            if 2 * du >= best:
                continue
            m = adj[u]
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                if w not in dist:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    length = du + dist[w] + 1
                    if length < best:
                        cycle = _reconstruct_cycle(parent, u, w)
                        if cycle is not None:
                            best = length
                            best_cycle = cycle
    return SolveResult(value=best, exact=True, witness=best_cycle)


# The Local Lemma checkers as they were before one neighbour-sum kernel
# served all three: a hand-written loop per checker, and in
# ``verify_sys1_finite`` each neighbour's bound recomputed per pair.  Same
# float operations in the same order; the kernel must match them bit for
# bit.


def check_general_lll(
    probs: Sequence[float],
    neighbors: Sequence[Sequence[int]],
    gammas: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Verify the general local-lemma condition for every event.

    Margin for event i: ``gamma_i * prod_{j in J(i)} (1 - gamma_j) -
    P(A_i)``.  When all margins clear ``-tol`` the product ``prod (1 -
    gamma_i)`` lower-bounds the probability that no event occurs.
    """
    _check_lengths(probs, neighbors, gammas)
    for i, g in enumerate(gammas):
        if not 0 < g < 1:
            raise ValueError(f"gamma[{i}] = {g} outside (0, 1)")
    margins = []
    for i, p in enumerate(probs):
        rhs = gammas[i]
        for j in neighbors[i]:
            rhs *= 1 - gammas[j]
        margins.append(rhs - p)
    bound = math.prod(1 - g for g in gammas)
    return CheckReport(
        style="general",
        holds=all(m >= -tol for m in margins),
        margins=margins,
        product_bound=bound,
        hypothesis_violations=[],
    )


def check_bollobas_lll(
    probs: Sequence[float],
    neighbors: Sequence[Sequence[int]],
    deltas: Sequence[float],
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Verify the log-form condition ``ln delta_i >= sum 2 delta_j P(A_j)``.

    Events violating the hypothesis ``0 < delta_i P(A_i) < 0.69`` are
    reported per index; the check cannot hold while any exist.  When it
    holds, ``prod (1 - delta_i P(A_i))`` bounds P(no event) from below.
    """
    _check_lengths(probs, neighbors, deltas)
    violations = []
    for i, d in enumerate(deltas):
        if d <= 0:
            raise ValueError(f"delta[{i}] = {d} must be positive")
        if not 0 < d * probs[i] < HYPOTHESIS_CAP:
            violations.append(i)
    margins = []
    for i in range(len(probs)):
        rhs = sum(2 * deltas[j] * probs[j] for j in neighbors[i])
        margins.append(math.log(deltas[i]) - rhs)
    bound = math.prod(1 - d * p for d, p in zip(deltas, probs))
    return CheckReport(
        style="bollobas",
        holds=not violations and all(m >= -tol for m in margins),
        margins=margins,
        product_bound=bound,
        hypothesis_violations=violations,
    )


def verify_sys1_finite(
    system: EventSystem,
    p: float,
    f: float,
    deltas: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
) -> FiniteSystemReport:
    """Evaluate the multiplier condition exactly on an enumerated system.

    Uses the recipe multipliers unless ``deltas`` is supplied.  Margins
    are LHS - RHS per event; the report also carries the 0.69-hypothesis
    status on exact probabilities and, when everything passes, the direct
    log-form check with its product bound.
    """
    if deltas is None:
        deltas = recipe_multipliers(system.events, p, f)
    deltas = list(deltas)
    if len(deltas) != len(system.events):
        raise ValueError(
            f"{len(deltas)} multipliers for {len(system.events)} events"
        )
    margins = []
    for i, ev in enumerate(system.events):
        rhs = 0.0
        for j in system.neighbors[i]:
            other = system.events[j]
            if other.kind == KIND_INDEPENDENT_SET:
                rhs += 2 * deltas[j] * math.exp(-p * len(other.variable_set))
            else:
                rhs += 2 * deltas[j] * p**other.meta
        margins.append(math.log(deltas[i]) - rhs)
    violations = [
        i
        for i, ev in enumerate(system.events)
        if not 0 < deltas[i] * ev.probability < HYPOTHESIS_CAP
    ]
    infeasible = not system.feasible
    holds = (
        not infeasible and not violations and all(m >= -tol for m in margins)
    )
    log_form = None
    if not infeasible and system.events:
        log_form = check_bollobas_lll(
            system.probabilities, system.neighbors, deltas, tol=tol
        )
    return FiniteSystemReport(
        margins=margins,
        holds=holds,
        infeasible=infeasible,
        hypothesis_violations=violations,
        log_form=log_form,
    )


# Subset events as they were built before the edge ids were read off the
# dense edge-id matrix pair by pair: a vertex bitmask per subset, an
# ``iter_bits`` walk per member and a sort.


def enumerate_independent_set_events(g: BaseGraph, l: int, p: float) -> list[EventSpec]:
    """One event per l-element vertex subset, in combinations order.

    Each event's edge set is the base edges inside the subset; subsets
    spanning no base edge come out with probability 1 (flagged by
    ``EventSpec.unavoidable``) and make any avoidance argument infeasible,
    which happens exactly when l is at most the base independence number.
    """
    nv = g.num_vertices
    if not 1 <= l <= nv:
        raise ValueError(f"subset size {l} outside [1, {nv}]")
    total = comb(nv, l)
    guard = model.EVENT_ENUMERATION_GUARD
    if total > guard:
        raise SizeGuardError(
            f"C({nv}, {l}) = {total} subsets exceed the enumeration guard {guard}"
        )
    eid = _edge_id_matrix(g).tolist()
    events = []
    for subset in combinations(range(nv), l):
        mask = 0
        for v in subset:
            mask |= 1 << v
        edge_ids = []
        for v in subset:
            for w in iter_bits(g.adj[v] & mask):
                if w > v:
                    edge_ids.append(eid[v][w])
        edge_ids.sort()
        events.append(
            EventSpec(
                kind=KIND_INDEPENDENT_SET,
                variable_set=tuple(edge_ids),
                meta=l,
                probability=(1 - p) ** len(edge_ids),
                members=subset,
            )
        )
    return events


# The base graph's cycle count as it was before it ran from vertex 0 alone:
# every root in turn, on any graph.  The orbit count must equal it on the
# base graphs, guard errors included.


def count_cycle_blocks(g: Graph, k: int) -> int:
    """``sum(map(len, cycle_blocks(g, k)))`` without listing a cycle.

    The open paths grow root by root as in ``cycle_blocks``, and the last
    step is a popcount of packed adjacency words, so ``SizeGuardError``
    comes with the same message at the same point.
    """
    kernel = _PathKernel(g)
    guard = model.EVENT_ENUMERATION_GUARD
    total = 0
    for s in range(3, k + 1):
        for root in range(g.num_vertices):
            total += kernel.count_closing(kernel.root_paths(s, root))
            if total > guard:
                raise _too_many_cycles(k, guard)
    return total


# Moser-Tardos as it was before it scanned only the kept graph: every
# cycle of the base graph enumerated once per search, and every event
# rescanned on the boolean kept-edge array each round.  Same draws, same
# history; the kept-graph scan must match it byte for byte.


@dataclass
class EventBlocks:
    """The events of ``build_event_system(g, k, l, p)`` as arrays, in its order.

    ``subsets`` holds every l-subset event in combinations order,
    unavoidable ones included.  The avoidable ones come first, their edge
    ids end to end in ``subset_ids`` with each one's start (and the last
    one's end) in ``subset_starts``; then the base graph's cycles of length
    3..k, block by block.
    """

    g: BaseGraph
    k: int
    subsets: list[EventSpec]

    def __post_init__(self):
        self.unavoidable = [ev for ev in self.subsets if ev.unavoidable]
        avoidable = [ev for ev in self.subsets if not ev.unavoidable]
        ids = [e for ev in avoidable for e in ev.variable_set]
        self.subset_ids = np.array(ids, dtype=np.int64)
        self.subset_starts = np.cumsum([0] + [len(ev.variable_set) for ev in avoidable])

    @property
    def feasible(self) -> bool:
        return not self.unavoidable

    @cached_property
    def cycles(self) -> list[model.CycleBlock]:
        return cycle_blocks(self.g, self.k)

    @cached_property
    def _offsets(self) -> np.ndarray:
        return np.cumsum([len(self.subset_starts) - 1] + [len(b) for b in self.cycles])

    def __len__(self) -> int:
        return int(self._offsets[-1])

    def occurring(self, kept: np.ndarray) -> np.ndarray:
        """Boolean occurrence of every event, for kept-edge flags ``kept``.

        A subset event occurs when none of its edges is kept, a cycle event
        when all of them are.
        """
        subsets = np.zeros(0, dtype=bool)
        if len(self.subset_ids):
            starts = self.subset_starts[:-1]
            subsets = ~np.logical_or.reduceat(kept[self.subset_ids], starts)
        return np.concatenate([subsets] + [kept[b.edge_ids].all(axis=1) for b in self.cycles])

    def variable_set(self, i: int) -> np.ndarray:
        """Ascending edge ids of event ``i``."""
        block = int(np.searchsorted(self._offsets, i, side="right"))
        if block == 0:
            return self.subset_ids[self.subset_starts[i]:self.subset_starts[i + 1]]
        return self.cycles[block - 1].edge_ids[i - self._offsets[block - 1]]


def event_blocks(g, k, l, p) -> EventBlocks:
    """``build_event_system(g, k, l, p)`` with the rescan API above."""
    subsets = [] if l is None else model.enumerate_independent_set_events(g, l, p)
    return EventBlocks(g, k, subsets)


def moser_tardos_search(
    g: BaseGraph,
    params: ModelParams,
    k: int,
    l: int,
    max_resamples: int | None = None,
    subset_events: bool | str = "auto",
    alpha_budget=None,
) -> GirthCertificate | SearchFailure:
    """Resample the lowest-index violated event until none holds, then certify."""
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
    subset_l = l if subset_events and enumerable else None
    system = event_blocks(g, k, subset_l, p)
    if not system.feasible:
        return SearchFailure(
            reason=f"{len(system.unavoidable)} l-subsets span no base edge "
            f"(l <= alpha of the base graph); no subgraph can avoid them",
            n=g.n, k=k, l=l, seed=params.seed,
            witness=list(system.unavoidable[0].members),
        )
    if max_resamples is None:
        max_resamples = 10 * len(system)
    rng = np.random.Generator(np.random.PCG64(params.seed))
    kept = rng.random(g.num_edges) < p
    history = []
    resamples = 0
    while True:
        occurring = system.occurring(kept)
        violated = int(np.count_nonzero(occurring))
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
        edge_ids = system.variable_set(int(occurring.argmax()))
        kept[edge_ids] = rng.random(len(edge_ids)) < p
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


def mask_of_edge_indices(base: BaseGraph, indices) -> int:
    """The former ``EdgeSubset.from_edge_indices``: one ``1 << i`` per edge."""
    mask = 0
    for i in indices:
        if not 0 <= i < base.num_edges:
            raise ValueError(f"edge index {i} out of range")
        mask |= 1 << i
    return mask
