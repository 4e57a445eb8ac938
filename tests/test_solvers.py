import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highgirth import (
    EdgeSubset,
    ForestError,
    Graph,
    SizeGuardError,
    SolveBudget,
    chromatic_lower_bound_ratio,
    chromatic_number,
    count_cycles,
    cycle_blocks,
    edges_within,
    family_girth_reduction,
    girth,
    independence_number,
    min_edges_over_subsets,
)
from highgirth import model, solvers
from highgirth.graphs import iter_bits
from highgirth.model import ModelParams, sample_subgraph
from highgirth.search import certify, deletion_method
from highgirth.solvers import _Budget

import oracles
from oracles import (
    alpha_exhaustive,
    chi_exhaustive,
    count_distinct_cycles,
    girth_exhaustive,
    verify_coloring,
    verify_cycle,
    verify_independent_set,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


def small_graphs():
    """Seeded random edge sets on up to 7 vertices."""
    rng = np.random.default_rng(20240817)
    out = []
    for _ in range(25):
        n = int(rng.integers(1, 8))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.45]
        out.append(Graph(n, edges))
    return out


edge_subsets = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.sampled_from(list(combinations(range(n), 2))) if n >= 2 else st.nothing(),
            max_size=n * (n - 1) // 2,
        ),
    )
)


# --- girth ---------------------------------------------------------------


def test_girth_of_base_graphs(g4, g8):
    for g, n in [(g4, 1), (g8, 2)]:
        res = girth(g)
        assert res.value == 3 and res.exact
        assert verify_cycle(g, res.witness)
        assert len(res.witness) == 3


def test_girth_of_forests_is_infinite():
    assert girth(path_graph(6)).value == math.inf
    assert girth(path_graph(6)).witness is None
    assert girth(Graph(4, [])).value == math.inf


def test_girth_structured_cases():
    for n in range(3, 9):
        res = girth(cycle_graph(n))
        assert res.value == n
        assert verify_cycle(cycle_graph(n), res.witness)
    assert girth(petersen_graph()).value == 5
    assert girth(complete_graph(4)).value == 3


def test_girth_matches_networkx_on_medium_graphs():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(31337)
    for _ in range(60):
        n = int(rng.integers(3, 28))
        density = rng.uniform(0.03, 0.5)
        edges = sorted(e for e in combinations(range(n), 2) if rng.random() < density)
        g = Graph(n, edges)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        try:
            expected = nx.girth(h)
        except Exception:
            expected = math.inf
        res = girth(g)
        assert res.value == expected
        if res.value != math.inf:
            assert verify_cycle(g, res.witness)


@given(edge_subsets)
@settings(max_examples=60, deadline=None)
def test_girth_matches_oracle(data):
    n, edges = data
    g = Graph(n, sorted(edges))
    res = girth(g)
    assert res.value == girth_exhaustive(n, g.edge_list)
    if res.value != math.inf:
        assert verify_cycle(g, res.witness)
        assert len(res.witness) == res.value


@st.composite
def graphs_with_pendant_trees(draw):
    """A random graph with trees hung on it, labels shuffled: forests too."""
    core_n = draw(st.integers(min_value=1, max_value=12))
    pairs = list(combinations(range(core_n), 2))
    edges = list(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    n = core_n + draw(st.integers(min_value=0, max_value=12))
    for v in range(core_n, n):
        if draw(st.booleans()):  # hang v below an earlier vertex, or start a new tree
            edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    label = draw(st.permutations(range(n)))
    return Graph(n, sorted(tuple(sorted((label[u], label[v]))) for u, v in edges))


@given(graphs_with_pendant_trees())
@settings(max_examples=150, deadline=None)
def test_girth_matches_former_girth(g):
    assert girth(g) == oracles.girth(g)


def test_girth_matches_former_girth_on_g12_certified_subgraphs(g12):
    # deletion leaves girth > 4, so every core root is searched
    for seed in (1, 2, 3):
        cert = deletion_method(g12, ModelParams(n=3, seed=seed, p_override=0.006), 4)
        sub = EdgeSubset.from_hex(g12, cert.edge_mask_hex).to_graph()
        res = girth(sub)
        assert res == oracles.girth(sub)
        assert res.value > 4 and verify_cycle(sub, res.witness)
        assert solvers._two_core(sub.adj) != (1 << sub.num_vertices) - 1


def test_two_core():
    # a triangle with a path hung on it, and a separate edge
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6)])
    assert solvers._two_core(g.adj) == 0b111
    assert solvers._two_core(path_graph(5).adj) == 0
    assert solvers._two_core(cycle_graph(5).adj) == 0b11111


# --- cycle counting ------------------------------------------------------


def test_count_cycles_on_g4(g4):
    labeled, distinct = count_cycles(g4, 3)
    assert (labeled, distinct) == (48, 8)


def test_count_cycles_trivia():
    assert count_cycles(path_graph(5), 3) == (0, 0)
    assert count_cycles(cycle_graph(4), 4) == (8, 1)
    with pytest.raises(ValueError):
        count_cycles(cycle_graph(4), 2)
    assert count_cycles(cycle_graph(4), 9) == (0, 0)  # longer than the graph
    assert count_cycles(cycle_graph(9), 9).distinct == 1
    assert count_cycles(cycle_graph(12), 12).distinct == 1


def test_count_cycles_on_g12(g12):
    assert count_cycles(g12, 3).distinct == 10_102_400
    # one root's open paths towards pentagons already pass the guard
    with pytest.raises(SizeGuardError, match="open paths from vertex 0 towards 5-cycles"):
        count_cycles(g12, 5)


def test_enumerated_cycles_are_canonical_and_sorted(g4):
    triangles = [tuple(row) for row in cycle_blocks(g4, 3)[0].members.tolist()]
    assert len(triangles) == 8
    assert triangles == sorted(triangles)
    for cyc in triangles:
        assert cyc[0] == min(cyc)
        assert cyc[1] < cyc[-1]
        assert verify_cycle(g4, list(cyc))


def test_iter_cycles_resumes_at_a_root(g8):
    quads = list(oracles.enumerate_cycles(g8, 4))
    for root in (0, 1, 17, 69, 70):
        assert list(oracles.iter_cycles(g8.adj, 4, root)) == [c for c in quads if c[0] >= root]


@given(edge_subsets, st.integers(min_value=3, max_value=6))
@settings(max_examples=60, deadline=None)
def test_cycle_counts_match_oracle(data, s):
    n, edges = data
    g = Graph(n, sorted(edges))
    labeled, distinct = count_cycles(g, s)
    assert distinct == count_distinct_cycles(n, g.edge_list, s)
    assert labeled == 2 * s * distinct


# --- independence number -------------------------------------------------


def test_independence_of_g4(g4):
    res = independence_number(g4)
    assert res.value == 2 and res.exact
    assert verify_independent_set(g4, res.witness)
    # the witness must be an antipodal pair
    u, v = res.witness
    assert g4.vertices[u].mask ^ g4.vertices[v].mask == 0b1111


def test_independence_trivia():
    assert independence_number(Graph(7, [])).value == 7
    assert independence_number(cycle_graph(5)).value == 2
    assert independence_number(Graph(0, [])).value == 0


def test_independence_budget_degrades_to_bound(g8):
    res = independence_number(g8, SolveBudget(node_limit=1))
    assert not res.exact
    assert res.value >= 1
    assert verify_independent_set(g8, res.witness)
    assert res.value <= independence_number(g8).value


@given(edge_subsets)
@settings(max_examples=60, deadline=None)
def test_independence_matches_oracle(data):
    n, edges = data
    g = Graph(n, sorted(edges))
    res = independence_number(g)
    assert res.exact
    assert res.value == alpha_exhaustive(n, g.edge_list)
    assert verify_independent_set(g, res.witness)
    assert len(res.witness) == res.value


# --- sparse kernel against its former implementation ---------------------


sparse_graphs = st.tuples(
    st.integers(min_value=1, max_value=48),  # vertices
    st.floats(min_value=0.0, max_value=0.3),  # edge density
    st.integers(min_value=0, max_value=2**32 - 1),  # edge seed
    st.integers(min_value=0, max_value=80),  # node limit, 0 = unlimited
)


def _counted(run):
    """``run()``'s result and the number of ``_Budget.tick`` calls it made."""
    ticks = 0
    tick = _Budget.tick

    def counting(self):
        nonlocal ticks
        ticks += 1
        tick(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Budget, "tick", counting)
        result = run()
    return result, ticks


@given(sparse_graphs)
@settings(max_examples=150, deadline=None)
def test_sparse_kernel_matches_former_kernel(data):
    n, density, seed, node_limit = data
    rng = np.random.default_rng(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    budget = SolveBudget(node_limit=node_limit)
    nbrs = [list(iter_bits(m)) for m in g.adj]
    fast = _counted(lambda: solvers._sparse_mis(nbrs, _Budget(budget)))
    slow = _counted(lambda: oracles._sparse_mis(g.adj, n, _Budget(budget)))
    assert fast == slow  # same set, same exactness, same node count
    assert solvers._greedy_sparse_mis(nbrs) == oracles._greedy_sparse_mis(
        g.adj, (1 << n) - 1
    )


def _former_kernel_on_lists(nbrs, budget):
    adj = [sum(1 << w for w in ws) for ws in nbrs]
    return oracles._sparse_mis(adj, len(nbrs), budget)


@pytest.mark.parametrize(
    "p, seeds", [(0.006, (3, 5, 6)), (0.008, (2, 3)), (0.01, (1, 2))]
)
def test_sparse_kernel_matches_former_kernel_on_g12_samples(g12, p, seeds):
    # seeds whose solves branch: exact after 7-63 nodes, or cut off at 1000
    budget = SolveBudget(node_limit=1000)
    for seed in seeds:
        sub = sample_subgraph(g12, ModelParams(n=3, seed=seed, p_override=p)).to_graph()
        fast = _counted(lambda: independence_number(sub, budget))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_sparse_mis", _former_kernel_on_lists)
            slow = _counted(lambda: independence_number(sub, budget))
        assert fast == slow
        if p == 0.01:
            assert fast[1] == 1001 and not fast[0].exact


dense_graphs = st.tuples(
    st.integers(min_value=1, max_value=30),  # vertices
    st.floats(min_value=0.2, max_value=0.8),  # edge density
    st.integers(min_value=0, max_value=2**32 - 1),  # edge seed
)


@given(dense_graphs)
@settings(max_examples=60, deadline=None)
def test_kernel_on_dense_graphs_matches_clique_route(data):
    n, density, seed = data
    rng = np.random.default_rng(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    res, ticks = _counted(lambda: independence_number(g))
    assert res.exact
    assert res.value == oracles.independence_number_via_cliques(g).value
    if n <= 12:
        assert res.value == alpha_exhaustive(n, g.edge_list)
    assert verify_independent_set(g, res.witness)
    assert len(res.witness) == res.value
    if ticks > 1:  # a budget one node short runs out
        cut = independence_number(g, SolveBudget(node_limit=ticks - 1))
        assert not cut.exact
        assert cut.value <= res.value
        assert verify_independent_set(g, cut.witness)
        assert len(cut.witness) == cut.value


def test_independence_time_limit(g12):
    # the deadline is read every 256 nodes; this solve needs more than 1000
    sub = sample_subgraph(g12, ModelParams(n=3, seed=1, p_override=0.01)).to_graph()
    res, ticks = _counted(lambda: independence_number(sub, SolveBudget(time_limit=1e-9)))
    assert not res.exact and ticks == 256
    assert verify_independent_set(sub, res.witness)
    assert len(res.witness) == res.value
    with pytest.raises(ValueError):
        SolveBudget(time_limit=-1.0)


# --- chromatic number ----------------------------------------------------


def test_chromatic_of_g4(g4):
    res = chromatic_number(g4)
    assert res.value == 3 and res.exact
    assert verify_coloring(g4, res.witness)


def test_chromatic_trivia():
    assert chromatic_number(Graph(1, [])).value == 1
    assert chromatic_number(cycle_graph(5)).value == 3
    assert chromatic_number(cycle_graph(6)).value == 2
    assert chromatic_number(complete_graph(5)).value == 5
    assert chromatic_number(petersen_graph()).value == 3
    assert chromatic_number(Graph(0, [])).value == 0


def test_chromatic_budget_degrades_to_bounds():
    # a graph the greedy bounds do not close, with no search budget
    g = petersen_graph()
    res = chromatic_number(g, SolveBudget(node_limit=1))
    if not res.exact:
        assert res.value <= 3 <= res.upper
        assert verify_coloring(g, res.witness)
    else:
        assert res.value == 3


@given(edge_subsets)
@settings(max_examples=40, deadline=None)
def test_chromatic_matches_oracle(data):
    n, edges = data
    g = Graph(n, sorted(edges))
    res = chromatic_number(g)
    assert res.exact
    assert res.value == chi_exhaustive(n, g.edge_list)
    assert verify_coloring(g, res.witness)
    assert max(res.witness, default=-1) + 1 <= res.value


def test_twelve_vertex_structured_instances():
    # three disjoint complete blocks: alpha = 3 blocks, chi = block size
    blocks = [list(range(4 * b, 4 * b + 4)) for b in range(3)]
    edges = [e for block in blocks for e in combinations(block, 2)]
    g = Graph(12, edges)
    assert independence_number(g).value == alpha_exhaustive(12, edges) == 3
    assert chromatic_number(g).value == 4
    ring = cycle_graph(12)
    assert independence_number(ring).value == 6
    assert chromatic_number(ring).value == 2


def test_kernel_matches_complement_clique_route():
    # the branch-and-reduce kernel against the complement-clique route it
    # replaced, on sparse graphs where both run every component
    rng = np.random.default_rng(99)
    for trial in range(10):
        n = int(rng.integers(30, 60))
        edges = sorted(
            e for e in combinations(range(n), 2) if rng.random() < 3.0 / n
        )
        g = Graph(n, edges)
        kernel = independence_number(g)
        clique = oracles.independence_number_via_cliques(g)
        assert kernel.exact and clique.exact
        assert kernel.value == clique.value
        assert verify_independent_set(g, kernel.witness)
        assert verify_independent_set(g, clique.witness)


# --- monotonicity under edge removal -------------------------------------


def test_monotonicity_under_edge_removal():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        if not edges:
            continue
        g = Graph(n, edges)
        drop = edges[int(rng.integers(0, len(edges)))]
        smaller = Graph(n, [e for e in edges if e != drop])
        assert independence_number(smaller).value >= independence_number(g).value
        assert chromatic_number(smaller).value <= chromatic_number(g).value


# --- ratio bound ----------------------------------------------------------


def test_ratio_bound_examples(g4, g8):
    r = chromatic_lower_bound_ratio(g4, 2)
    assert r.chi_lower == 3
    assert r.rate == pytest.approx(3 ** 0.25, abs=1e-12)
    assert chromatic_lower_bound_ratio(g8, 70).chi_lower == 1
    r8 = chromatic_lower_bound_ratio(g8, 14)
    assert r8.chi_lower == 5
    assert r8.rate == pytest.approx(5 ** 0.125, abs=1e-12)
    # alpha does not divide N = 70: the rate is chi_lower's, as in certificates
    r50 = chromatic_lower_bound_ratio(g8, 50)
    assert r50.chi_lower == 2
    assert r50.rate == 2 ** 0.125 == certify(EdgeSubset.full(g8), k=2, l=50).empirical_rate
    with pytest.raises(ValueError):
        chromatic_lower_bound_ratio(g4, 0)


def test_ratio_bound_is_sound_on_exact_instances(g4):
    views = [g4, cycle_graph(5), petersen_graph(), complete_graph(5)] + small_graphs()
    for g in views:
        if isinstance(g, Graph) and g.num_vertices == 0:
            continue
        alpha = independence_number(g)
        chi = chromatic_number(g)
        assert alpha.exact and chi.exact
        nv = g.num_vertices
        assert chi.value >= -(-nv // max(alpha.value, 1))


# --- induced edges and subset scans ---------------------------------------


def test_edges_within_examples(g4):
    labels = {s: i for i, s in enumerate(g4.vertex_strings())}
    quad = [labels[s] for s in ("1100", "0011", "1010", "0101")]
    assert edges_within(g4, quad) == 4
    assert edges_within(g4, range(6)) == 12
    assert edges_within(g4, [3]) == 0
    with pytest.raises(ValueError):
        edges_within(g4, [17])


def test_min_edges_over_subsets_exhaustive(g4):
    res = min_edges_over_subsets(g4, 2)
    assert res.value == 0 and res.exact
    u, v = res.witness
    assert not g4.has_edge(u, v)
    assert min_edges_over_subsets(g4, 4).value == 4
    assert min_edges_over_subsets(g4, 6).value == 12
    with pytest.raises(ValueError):
        min_edges_over_subsets(g4, 0)


def test_min_edges_guard(g4, monkeypatch):
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 5)
    with pytest.raises(SizeGuardError, match=r"^C\(6, 3\) = 20 subsets exceed the exhaustive guard 5$"):
        min_edges_over_subsets(g4, 3)


def test_min_edges_per_l_tracks_alpha(g4):
    # zero exactly while an independent l-set exists, positive above alpha
    alpha = independence_number(g4).value
    assert alpha == 2
    assert min_edges_over_subsets(g4, alpha).value == 0
    assert min_edges_over_subsets(g4, alpha + 1).value == 2


# --- family reduction ------------------------------------------------------


def test_family_girth_reduction():
    triangle = cycle_graph(3)
    red = family_girth_reduction([triangle])
    assert red.shortest_cycle_lengths == [3]
    assert red.required_girth == 3
    red = family_girth_reduction([triangle, cycle_graph(5)])
    assert red.shortest_cycle_lengths == [3, 5]
    assert red.required_girth == 5
    with pytest.raises(ForestError):
        family_girth_reduction([triangle, path_graph(4)])
    with pytest.raises(ValueError):
        family_girth_reduction([])


# --- graph views -----------------------------------------------------------


def test_solvers_accept_edge_subsets(g4):
    sub = EdgeSubset.from_edge_indices(g4, range(6))
    assert girth(sub).value == girth(sub.to_graph()).value
    assert independence_number(sub).value == independence_number(sub.to_graph()).value
