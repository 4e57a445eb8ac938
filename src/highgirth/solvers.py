"""Exact combinatorial solvers: girth, cycle counts, independence, coloring.

These double as search oracles and as certificate verifiers, so every
routine is deterministic for a fixed input and budget, and every witness
re-verifies against the input graph.  Budgets degrade results to bounds
(``exact=False``); they never raise.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, NamedTuple, Sequence

from . import model
from .graphs import BaseGraph, EdgeSubset, Graph, SizeGuardError, iter_bits


class ForestError(ValueError):
    """A forbidden-subgraph family member has no cycle."""


@dataclass(frozen=True)
class SolveBudget:
    """Limits for branch-and-bound searches; 0 means unlimited."""

    node_limit: int = 0
    time_limit: float = 0.0

    def __post_init__(self):
        if self.node_limit < 0 or self.time_limit < 0:
            raise ValueError("budget fields must be nonnegative")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact computation.

    ``value`` is the optimum when ``exact`` is set, otherwise a proven
    lower bound (with ``upper`` an upper bound where available).  Girth
    uses ``math.inf`` for forests.  ``witness`` re-verifies against the
    input graph whenever present.
    """

    value: int | float
    exact: bool
    witness: list | None = None
    upper: int | None = None

    def to_json(self) -> dict:
        doc = {key: value for key, value in vars(self).items() if value is not None}
        if self.value == math.inf:
            doc["value"] = "infinite"
        return doc


def as_graph(view) -> Graph:
    """Coerce a graph view (Graph, BaseGraph, or EdgeSubset) to a Graph."""
    if isinstance(view, Graph):
        return view
    if isinstance(view, EdgeSubset):
        return view.to_graph()
    raise TypeError(f"not a graph view: {type(view).__name__}")


class _Exhausted(Exception):
    pass


class _Budget:
    """Node/time accounting shared by the branch-and-bound searches."""

    def __init__(self, budget: SolveBudget | None):
        budget = budget or SolveBudget()
        self.node_limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit else 0.0
        )
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.node_limit and self.nodes > self.node_limit:
            raise _Exhausted
        if self.deadline and not self.nodes % 256 and time.monotonic() > self.deadline:
            raise _Exhausted


def girth(view) -> SolveResult:
    """Length of the shortest cycle, with one shortest cycle as witness.

    Every cycle lies in the 2-core, what is left after repeatedly deleting
    vertices of degree <= 1, so the search runs there alone.  It runs a
    breadth-first search from each core vertex in index order; a non-tree
    edge seen at depth d closes a walk of length dist(u) + dist(w) + 1
    through the root, and the minimum such walk over all roots is the
    girth.  A search from a vertex outside the core could only close walks
    that leave the root twice by its one edge towards the core, which
    ``_reconstruct_cycle`` rejects, so skipping those roots keeps the same
    witness.  Forests report ``math.inf`` and no witness.
    """
    g = as_graph(view)
    adj = g.adj
    core = _two_core(adj)
    best: int | float = math.inf
    best_cycle: list[int] | None = None
    for root in iter_bits(core):
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
            m = adj[u] & core
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


def _two_core(adj: list[int]) -> int:
    """Bitmask of the vertices left after repeatedly deleting those of degree <= 1."""
    deg = [m.bit_count() for m in adj]
    core = (1 << len(adj)) - 1
    stack = [v for v, d in enumerate(deg) if d <= 1]
    while stack:
        v = stack.pop()
        if not core >> v & 1:
            continue
        core ^= 1 << v
        for w in iter_bits(adj[v] & core):
            deg[w] -= 1
            if deg[w] == 1:
                stack.append(w)
    return core


def _reconstruct_cycle(parent: dict, u: int, w: int) -> list[int] | None:
    """Join the BFS-tree paths root..u and root..w; None if they overlap."""
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    path_w = [w]
    while parent[path_w[-1]] != -1:
        path_w.append(parent[path_w[-1]])
    path_u.reverse()  # root .. u
    path_w.reverse()  # root .. w
    if set(path_u) & set(path_w[1:]):
        return None
    return path_u + path_w[:0:-1]  # root .. u, w .. (just after root)


class CycleCount(NamedTuple):
    labeled: int
    distinct: int


def count_cycles(view, s: int) -> CycleCount:
    """Count s-cycles: labeled (rooted, directed) and distinct edge sets.

    Every distinct cycle corresponds to exactly 2s labeled ones (s roots,
    2 directions).  The distinct cycles are counted root by root on the
    cycle enumerator's kernel, so only one root's open paths are held;
    more than ``model.EVENT_ENUMERATION_GUARD`` of them raise
    ``SizeGuardError``.
    """
    if s < 3:
        raise ValueError(f"cycle length {s} is below 3")
    g = as_graph(view)
    if s > g.num_vertices:  # a simple cycle repeats no vertex
        return CycleCount(labeled=0, distinct=0)
    kernel = model._PathKernel(g)
    distinct = sum(kernel.count_closing(kernel.root_paths(s, r)) for r in range(g.num_vertices))
    return CycleCount(labeled=2 * s * distinct, distinct=distinct)


def _greedy_clique(adj: list[int], n: int) -> list[int]:
    """Deterministic greedy clique: highest degree first, ties by index."""
    if n == 0:
        return []
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    clique: list[int] = []
    allowed = (1 << n) - 1
    for v in order:
        if (allowed >> v) & 1:
            clique.append(v)
            allowed &= adj[v]
    return sorted(clique)


def _greedy_sparse_mis(nbrs: list[list[int]]) -> list[int]:
    """Deterministic min-degree greedy independent set (initial incumbent).

    Takes the lowest-index vertex of minimum active degree, drops its
    closed neighbourhood, and repeats.  A (degree, vertex) heap with lazy
    deletion finds each pick and a removal touches only the removed
    vertices' neighbours, so the pass costs O(m log n).
    """
    deg = [len(ws) for ws in nbrs]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    chosen = []
    while heap:
        d, v = heapq.heappop(heap)
        if d != deg[v]:
            continue  # removed (degree -1) or a stale, higher degree
        chosen.append(v)
        removed = [v] + [w for w in nbrs[v] if deg[w] >= 0]
        for r in removed:
            deg[r] = -1
        for r in removed:
            for w in nbrs[r]:
                if deg[w] > 0:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
    return chosen


def _drop(nbrs: list[list[int]], deg: list[int], low: int, removed: list[int]) -> int:
    """Deactivate ``removed`` (degree -1) and return the updated ``low``.

    Only the active neighbours of removed vertices lose degree; ``low``
    stays the bitmask of active vertices of degree <= 1.
    """
    gone = 0
    for r in removed:
        deg[r] = -1
        gone |= 1 << r
    for r in removed:
        for w in nbrs[r]:
            d = deg[w]
            if d > 0:  # active: it still counts r
                deg[w] = d - 1
                if d <= 2:
                    low |= 1 << w
    return low & ~gone


def _sparse_mis(nbrs: list[list[int]], budget: _Budget) -> tuple[list[int], bool]:
    """Branch-and-reduce maximum independent set, the one exact alpha kernel.

    Vertices of degree <= 1 are always taken (exchange argument), lowest
    index first; branching happens only on the lowest-index vertex of
    maximum degree, in or out, and a node is cut when ``|current| +
    |active|`` cannot beat the incumbent.

    A node carries the active degree of every vertex (-1 once removed),
    the bitmask of active degree-<=1 vertices and the active count.  It
    costs one copy and one maximum scan of the degree list, plus O(degree)
    per removed vertex; nothing rescans the active set.
    """
    best = _greedy_sparse_mis(nbrs)
    exact = True

    def search(size: int, low: int, deg: list[int], current: list[int]):
        nonlocal best
        budget.tick()
        mark = len(current)
        try:
            while low:  # peel: degree <= 1 vertices are always optimal picks
                v = (low & -low).bit_length() - 1
                removed = [v] + [w for w in nbrs[v] if deg[w] >= 0]
                current.append(v)
                size -= len(removed)
                low = _drop(nbrs, deg, low, removed)
            if not size:
                if len(current) > len(best):
                    best = current.copy()
                return
            if len(current) + size <= len(best):
                return
            v_star = deg.index(max(deg))  # removed vertices sit at -1
            inner = deg.copy()
            closed = [v_star] + [w for w in nbrs[v_star] if deg[w] >= 0]
            current.append(v_star)
            search(size - len(closed), _drop(nbrs, inner, 0, closed), inner, current)
            current.pop()
            search(size - 1, _drop(nbrs, deg, 0, [v_star]), deg, current)
        finally:
            del current[mark:]

    try:
        if nbrs:
            deg = [len(ws) for ws in nbrs]
            low = sum(1 << v for v, d in enumerate(deg) if d <= 1)
            search(len(nbrs), low, deg, [])
    except _Exhausted:
        exact = False
    return sorted(best), exact


def _components(adj: list[int], n: int) -> Iterator[int]:
    """Connected components as vertex bitmasks, by smallest member."""
    seen = 0
    for v in range(n):
        if (seen >> v) & 1:
            continue
        comp = 0
        frontier = 1 << v
        while frontier:
            comp |= frontier
            grown = 0
            for u in iter_bits(frontier):
                grown |= adj[u]
            frontier = grown & ~comp
        seen |= comp
        yield comp


def _path_or_cycle_alpha(adj: list[int], comp: int, verts: list[int]) -> list[int]:
    """Maximum independent set of a degree-<=2 component (path or cycle)."""
    k = len(verts)
    if k <= 2:
        return [verts[0]]
    endpoints = [v for v in verts if (adj[v] & comp).bit_count() <= 1]
    start = min(endpoints) if endpoints else min(verts)
    order = [start]
    visited = {start}
    while len(order) < k:
        nxt = min(
            w
            for w in iter_bits(adj[order[-1]] & comp)
            if w not in visited
        )
        order.append(nxt)
        visited.add(nxt)
    stop = k if endpoints else k - 1  # a cycle must not wrap onto the start
    return [order[i] for i in range(0, stop, 2)]


def independence_number(view, budget: SolveBudget | None = None) -> SolveResult:
    """Exact independence number, assembled per connected component.

    Singletons and degree-<=2 components (paths and cycles) are solved in
    closed form; every other component runs the one branch-and-reduce
    kernel, ``_sparse_mis``, on its own vertices, where a search node
    costs O(component size) for its degree list plus O(degree) per vertex
    it removes.  Within budget the result is exact, otherwise the best
    independent set found so far is returned as a lower bound with
    ``exact=False``.
    """
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
        found, comp_exact = _sparse_mis(
            [[local[w] for w in iter_bits(g.adj[v])] for v in verts], acct
        )
        chosen.extend(verts[i] for i in found)
        exact = exact and comp_exact
    chosen.sort()
    return SolveResult(value=len(chosen), exact=exact, witness=chosen)


def _greedy_coloring(adj: list[int], n: int) -> list[int]:
    """Sequential coloring in descending-degree order (ties by index)."""
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    color_of = [-1] * n
    color_masks: list[int] = []
    for v in order:
        for c, mask in enumerate(color_masks):
            if not mask & adj[v]:
                color_of[v] = c
                color_masks[c] |= 1 << v
                break
        else:
            color_of[v] = len(color_masks)
            color_masks.append(1 << v)
    return color_of


def _k_colorable(
    adj: list[int], order: list[int], k: int, budget: _Budget
) -> list[int] | None:
    """Backtracking k-colorability along a fixed vertex order.

    Colors are introduced in increasing order (at most one fresh color per
    step) to break color-class symmetry.
    """
    n = len(order)
    color_of = [-1] * len(adj)
    color_masks = [0] * k

    def assign(i: int, used: int) -> bool:
        budget.tick()
        if i == n:
            return True
        v = order[i]
        limit = min(used + 1, k)
        for c in range(limit):
            if not color_masks[c] & adj[v]:
                color_of[v] = c
                color_masks[c] |= 1 << v
                if assign(i + 1, max(used, c + 1)):
                    return True
                color_masks[c] &= ~(1 << v)
        color_of[v] = -1
        return False

    return list(color_of) if assign(0, 0) else None


def chromatic_number(view, budget: SolveBudget | None = None) -> SolveResult:
    """Exact chromatic number by iterative k-colorability branch-and-bound.

    Seeded by a greedy-coloring upper bound and a greedy-clique lower
    bound; vertices are branched in descending-degree order with ties by
    index.  On budget exhaustion returns the proven lower bound with the
    greedy upper bound in ``upper`` and ``exact=False``.
    """
    g = as_graph(view)
    n = g.num_vertices
    if n == 0:
        return SolveResult(value=0, exact=True, witness=[])
    adj = g.adj
    greedy = _greedy_coloring(adj, n)
    ub = max(greedy) + 1
    lb = max(len(_greedy_clique(adj, n)), 1)
    if lb >= ub:
        return SolveResult(value=ub, exact=True, witness=greedy)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    acct = _Budget(budget)
    proven_lb = lb
    try:
        for k in range(lb, ub):
            coloring = _k_colorable(adj, order, k, acct)
            if coloring is not None:
                return SolveResult(value=k, exact=True, witness=coloring)
            proven_lb = k + 1
    except _Exhausted:
        return SolveResult(value=proven_lb, exact=False, witness=greedy, upper=ub)
    return SolveResult(value=ub, exact=True, witness=greedy)


@dataclass(frozen=True)
class RatioBound:
    """The covering lower bound ceil(N / alpha) and its growth rate."""

    chi_lower: int
    rate: float | None  # chi_lower ** (1 / 4n) when the view has a base graph


def chromatic_lower_bound_ratio(view, alpha_bound: int) -> RatioBound:
    """Chromatic lower bound ceil(N / alpha_bound) from an independence bound.

    The one formula behind every certificate's ``chi_lower`` and
    ``empirical_rate``.  N counts the base vertices of an ``EdgeSubset``;
    when the view derives from a base graph the per-coordinate rate
    chi_lower^(1/4n) is attached for growth comparisons.
    """
    if alpha_bound < 1:
        raise ValueError(f"independence bound must be >= 1, got {alpha_bound}")
    if isinstance(view, EdgeSubset):
        view = view.base
    chi_lower = -(-as_graph(view).num_vertices // alpha_bound)
    rate = chi_lower ** (1 / (4 * view.n)) if isinstance(view, BaseGraph) else None
    return RatioBound(chi_lower=chi_lower, rate=rate)


def edges_within(view, subset) -> int:
    """Number of edges of the view's graph inside a vertex subset."""
    g = as_graph(view)
    mask = 0
    for v in subset:
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"vertex index {v} out of range")
        mask |= 1 << v
    return sum((g.adj[v] & mask).bit_count() for v in iter_bits(mask)) // 2


def min_edges_over_subsets(view, l: int) -> SolveResult:
    """Minimum induced edge count over all l-element vertex subsets.

    Exhaustive and exact, with early exit at zero.  More than
    ``model.EVENT_ENUMERATION_GUARD`` subsets, read at call time, raise
    ``SizeGuardError``.
    """
    g = as_graph(view)
    n = g.num_vertices
    if not 1 <= l <= n:
        raise ValueError(f"subset size {l} outside [1, {n}]")
    total = comb(n, l)
    guard = model.EVENT_ENUMERATION_GUARD
    if total > guard:
        raise SizeGuardError(
            f"C({n}, {l}) = {total} subsets exceed the exhaustive guard {guard}"
        )
    best = None
    best_subset = None
    for subset in combinations(range(n), l):
        mask = 0
        for v in subset:
            mask |= 1 << v
        count = sum((g.adj[v] & mask).bit_count() for v in subset) // 2
        if best is None or count < best:
            best = count
            best_subset = list(subset)
            if best == 0:
                break
    return SolveResult(value=best, exact=True, witness=best_subset)


@dataclass(frozen=True)
class FamilyReduction:
    """Shortest-cycle lengths of a forbidden family and the girth target."""

    shortest_cycle_lengths: list[int]
    required_girth: int  # avoiding cycles up to this length kills every member


def family_girth_reduction(forbidden: Sequence) -> FamilyReduction:
    """Reduce forbidding a graph family to a single girth requirement.

    Each member must contain a cycle; a graph whose girth exceeds the
    maximum of the members' shortest-cycle lengths has none of them as a
    subgraph.  Forests are rejected: no girth condition can exclude them.
    """
    if not forbidden:
        raise ValueError("forbidden family must be nonempty")
    lengths = []
    for idx, view in enumerate(forbidden):
        res = girth(view)
        if res.value == math.inf:
            raise ForestError(f"family member {idx} is a forest")
        lengths.append(int(res.value))
    return FamilyReduction(
        shortest_cycle_lengths=lengths, required_girth=max(lengths)
    )
