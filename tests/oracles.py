"""Brute-force oracles, independent of the library's algorithms.

Everything here enumerates outright: subsets for independence, color
assignments for coloring, vertex arrangements for cycles, cliques for the
independence cross-check.  Only usable on small graphs.

Fast paths also keep their former slow implementations here, as
references that must agree with them exactly.
"""

from itertools import combinations, permutations, product

import math

from highgirth.solvers import SolveResult, _Budget, _Exhausted, _reconstruct_cycle, as_graph


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


def occurring_events(events, mask):
    """Indices of the events that hold on an edge mask, one event at a time.

    A cycle event holds when every edge of its variable set is present, an
    independent-set event when none is.
    """
    out = []
    for i, ev in enumerate(events):
        present = [(mask >> e) & 1 for e in ev.variable_set]
        if all(present) if ev.kind == "cycle" else not any(present):
            out.append(i)
    return out


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
