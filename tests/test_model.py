import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highgirth import (
    BaseGraph,
    EdgeSubset,
    EventSystem,
    Graph,
    SizeGuardError,
    build_event_system,
    cycle_blocks,
    derive_seed,
    enumerate_cycle_events,
    enumerate_independent_set_events,
    log_probability,
    sample_subgraph,
)
from highgirth import model
from highgirth.model import (
    KIND_CYCLE,
    KIND_INDEPENDENT_SET,
    EventSpec,
    ModelParams,
    count_cycle_blocks,
)
from highgirth.graphs import BitVertex

import oracles
from oracles import cycle_edges, enumerate_cycles, occurring_events, occurs, split_neighbors


def test_params_validation():
    p = ModelParams(n=1, gamma=0.7, seed=1)
    assert p.p == pytest.approx(0.7**4)
    assert ModelParams(n=2, gamma=0.9).p == pytest.approx(0.9**8)
    assert ModelParams(n=1, p_override=0.25).p == 0.25
    with pytest.raises(ValueError):
        ModelParams(n=0, gamma=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=1, gamma=1.0)
    with pytest.raises(ValueError):
        ModelParams(n=1, gamma=0.5, seed=-1)
    with pytest.raises(ValueError):
        ModelParams(n=1, gamma=0.5, seed=2**64)
    with pytest.raises(ValueError):
        ModelParams(n=1, p_override=1.5)
    with pytest.raises(ValueError):
        ModelParams(n=1)


def test_sampling_extremes_and_determinism(g4):
    empty = sample_subgraph(g4, ModelParams(n=1, p_override=0.0, seed=5))
    assert empty.num_edges == 0
    full = sample_subgraph(g4, ModelParams(n=1, p_override=1.0, seed=5))
    assert full.num_edges == 12
    params = ModelParams(n=1, gamma=0.7, seed=42)
    a = sample_subgraph(g4, params)
    b = sample_subgraph(g4, params)
    assert a.mask == b.mask
    c = sample_subgraph(g4, ModelParams(n=1, gamma=0.7, seed=43))
    assert c.mask != a.mask  # astronomically unlikely to collide


def test_sampling_follows_the_documented_stream_rule(g4):
    # the contract: PCG64 seeded with the model seed, one uniform per edge
    # in canonical edge-list order, edge i kept iff draw i < p
    for seed in (0, 1, 31337):
        for p in (0.2, 0.5, 0.8):
            sub = sample_subgraph(g4, ModelParams(n=1, p_override=p, seed=seed))
            rng = np.random.Generator(np.random.PCG64(seed))
            manual = 0
            for i, u in enumerate(rng.random(g4.num_edges)):
                if u < p:
                    manual |= 1 << i
            assert manual == sub.mask


def test_replica_seeds_are_stable():
    params = ModelParams(n=1, gamma=0.7, seed=42)
    r1 = params.replica(1)
    r2 = params.replica(2)
    assert r1.seed == derive_seed(42, 1)
    assert r2.seed != r1.seed
    assert params.replica(1).seed == r1.seed


def test_wrong_graph_rejected(g4, g8):
    with pytest.raises(ValueError, match="n=2"):
        sample_subgraph(g4, ModelParams(n=2, gamma=0.7))


def test_per_edge_inclusion_rates(g4):
    p = 0.3
    seeds = 10_000
    counts = np.zeros(g4.num_edges)
    for seed in range(seeds):
        sub = sample_subgraph(g4, ModelParams(n=1, p_override=p, seed=seed))
        for i in sub.edge_indices():
            counts[i] += 1
    rates = counts / seeds
    sigma = math.sqrt(p * (1 - p) / seeds)
    assert np.all(np.abs(rates - p) <= 4 * sigma)
    assert np.all(np.abs(rates - p) <= 0.02)


def test_log_probability_examples(g4):
    empty = EdgeSubset.empty(g4)
    full = EdgeSubset.full(g4)
    expected = 12 * math.log(0.5)
    assert log_probability(g4, empty, 0.5) == pytest.approx(expected, abs=1e-12)
    assert log_probability(g4, full, 0.5) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        log_probability(g4, empty, 0.0)
    with pytest.raises(ValueError):
        log_probability(g4, empty, 1.0)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
def test_total_measure_is_one(g4, p):
    total = math.fsum(
        math.exp(log_probability(g4, EdgeSubset(g4, mask), p))
        for mask in range(1 << g4.num_edges)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_subset_events_on_g4(g4):
    p = 0.3
    events = enumerate_independent_set_events(g4, 3, p)
    assert len(events) == 20
    sizes = {len(ev.variable_set) for ev in events}
    assert sizes == {2, 3}  # every triple spans 2 or 3 edges
    for ev in events:
        assert ev.kind == KIND_INDEPENDENT_SET
        assert ev.meta == 3
        assert ev.probability == pytest.approx((1 - p) ** len(ev.variable_set))
        assert not ev.unavoidable
        # variable set really is the induced edge set
        from highgirth import edges_within

        assert len(ev.variable_set) == edges_within(g4, ev.members)


def test_subset_events_flag_unavoidable_pairs(g4):
    events = enumerate_independent_set_events(g4, 2, 0.3)
    assert len(events) == 15
    unavoidable = [ev for ev in events if ev.unavoidable]
    assert len(unavoidable) == 3
    for ev in unavoidable:
        u, v = ev.members
        assert g4.vertices[u].mask ^ g4.vertices[v].mask == 0b1111
        assert ev.probability == 1.0


def test_subset_event_whole_vertex_set(g4):
    (event,) = enumerate_independent_set_events(g4, 6, 0.3)
    assert len(event.variable_set) == 12
    assert event.members == tuple(range(6))


def test_subset_event_guard(g8, monkeypatch):
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 1000)
    with pytest.raises(SizeGuardError):
        enumerate_independent_set_events(g8, 10, 0.3)


def test_cycle_events_on_g4(g4):
    p = 0.25
    events = enumerate_cycle_events(g4, 3, p)
    assert len(events) == 8
    seen = set()
    for ev in events:
        assert ev.kind == KIND_CYCLE
        assert ev.meta == 3
        assert len(ev.variable_set) == 3
        assert ev.probability == pytest.approx(p**3)
        seen.add(ev.variable_set)
    assert len(seen) == 8  # distinct edge sets


def assert_blocks_match_enumerate_cycles(g, k):
    blocks = cycle_blocks(g, k)
    assert [b.s for b in blocks] == list(range(3, min(k, g.num_vertices) + 1))
    for b in blocks:
        cycles = list(enumerate_cycles(g, b.s))
        edge_ids = [
            sorted(g.edge_index(u, v) for u, v in cycle_edges(g, c)) for c in cycles
        ]
        assert b.members.dtype == b.edge_ids.dtype == np.int32
        assert b.members.shape == b.edge_ids.shape == (len(cycles), b.s)
        assert [tuple(row) for row in b.members.tolist()] == cycles
        assert b.edge_ids.tolist() == edge_ids


@pytest.mark.parametrize("k", [2, 6])
def test_cycle_blocks_match_enumerate_cycles_on_g4(g4, k):
    assert_blocks_match_enumerate_cycles(g4, k)


def test_cycle_blocks_match_enumerate_cycles_on_g8(g8):
    assert_blocks_match_enumerate_cycles(g8, 4)


small_graphs = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.sampled_from(list(combinations(range(n), 2))))
        if n >= 2 else st.just(set()),
    )
)


@given(small_graphs, st.integers(min_value=3, max_value=7))
@settings(max_examples=80, deadline=None)
def test_cycle_blocks_match_enumerate_cycles_on_random_graphs(data, k):
    n, edges = data
    assert_blocks_match_enumerate_cycles(Graph(n, sorted(edges)), k)


def test_cycle_blocks_are_independent_of_the_step_size(g8, monkeypatch):
    wide = cycle_blocks(g8, 4)
    monkeypatch.setattr(model, "_STEP_CANDIDATES", 2000)  # 55 paths a step
    for a, b in zip(wide, cycle_blocks(g8, 4)):
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.edge_ids, b.edge_ids)


def test_cycle_guard_counts_every_length(g4, monkeypatch):
    # G_4 has 8 triangles and 15 quadrilaterals
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 23)
    assert [len(b) for b in cycle_blocks(g4, 4)] == [8, 15]
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 22)
    with pytest.raises(SizeGuardError, match="3..4"):
        cycle_blocks(g4, 4)
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 7)
    with pytest.raises(SizeGuardError):
        cycle_blocks(g4, 3)


def test_cycle_guard_bounds_open_paths(monkeypatch):
    # K_{2,6}: 15 quadrilaterals, no 5-cycles, but 30 open 3-edge paths from
    # vertex 0 on the way to them
    g = Graph(8, [(a, b) for a in (0, 7) for b in range(1, 7)])
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 30)
    assert [len(b) for b in cycle_blocks(g, 5)] == [0, 15, 0]
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 29)
    with pytest.raises(SizeGuardError, match="open paths from vertex 0 towards 5-cycles"):
        cycle_blocks(g, 5)


def test_cycle_guard_refuses_g8_pentagons_early(g8):
    # 5,448,807 events: refused after a few roots, not after allocating them
    with pytest.raises(SizeGuardError, match="guard 500000"):
        enumerate_cycle_events(g8, 5, 0.1)


# --- the count pass and the kept-graph scan ---------------------------------


def guard_message(monkeypatch, guard, fn, *args):
    """The ``SizeGuardError`` message of ``fn(*args)`` under enumeration guard ``guard``."""
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", guard)
    with pytest.raises(SizeGuardError) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_count_matches_the_listed_blocks_on_g4(g4, k):
    assert count_cycle_blocks(g4, k) == sum(map(len, cycle_blocks(g4, k)))


def test_count_matches_the_listed_blocks_on_g8(g8):
    assert count_cycle_blocks(g8, 4) == sum(map(len, cycle_blocks(g8, 4))) == 200_655


@given(small_graphs, st.integers(min_value=3, max_value=7))
@settings(max_examples=80, deadline=None)
def test_count_matches_the_listed_blocks_on_random_graphs(data, k):
    n, edges = data
    g = Graph(n, sorted(edges))
    assert oracles.count_cycle_blocks(g, k) == sum(map(len, cycle_blocks(g, k)))


def test_count_raises_the_guard_errors_of_the_listing(g4, g8, g12, monkeypatch):
    k26 = Graph(8, [(a, b) for a in (0, 7) for b in range(1, 7)])
    orbit, roots = count_cycle_blocks, oracles.count_cycle_blocks
    cases = [(g4, 4, 22, orbit), (g4, 3, 7, orbit), (k26, 5, 29, roots),
             (g8, 5, 500_000, orbit), (g12, 3, 500_000, orbit)]
    for g, k, guard, count in cases:
        expected = guard_message(monkeypatch, guard, cycle_blocks, g, k)
        assert guard_message(monkeypatch, guard, count, g, k) == expected
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 23)
    assert count_cycle_blocks(g4, 4) == 23
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 30)
    assert oracles.count_cycle_blocks(k26, 5) == 15


@pytest.mark.parametrize(
    "name, k", [("g4", k) for k in range(2, 9)] + [("g8", k) for k in range(2, 5)]
)
def test_orbit_count_matches_the_all_roots_count(request, name, k):
    g = request.getfixturevalue(name)
    assert count_cycle_blocks(g, k) == oracles.count_cycle_blocks(g, k)


def test_orbit_count_holds_under_any_vertex_order(g8):
    # the count is a graph invariant: relabelled, vertex 0 is another vertex
    order = np.random.default_rng(8).permutation(g8.num_vertices)
    position = np.argsort(order)
    relabelled = BaseGraph(2, [g8.vertices[v] for v in order], position[g8.edge_array])
    assert relabelled.vertices[0] != g8.vertices[0]
    assert count_cycle_blocks(relabelled, 4) == 200_655


@pytest.mark.parametrize("name, k, guard", [
    ("g4", 4, 22), ("g4", 3, 7), ("g4", 6, 12),
    ("g8", 5, None), ("g8", 4, 200_654), ("g12", 3, None),
])
def test_orbit_count_raises_the_guard_errors_of_the_all_roots_count(
    request, monkeypatch, name, k, guard
):
    g = request.getfixturevalue(name)
    guard = model.EVENT_ENUMERATION_GUARD if guard is None else guard
    expected = guard_message(monkeypatch, guard, cycle_blocks, g, k)
    assert guard_message(monkeypatch, guard, oracles.count_cycle_blocks, g, k) == expected
    assert guard_message(monkeypatch, guard, count_cycle_blocks, g, k) == expected


def test_orbit_count_refuses_all_but_the_full_base_graph(g4):
    forest = BaseGraph(1, list(g4.vertices), [(0, 1), (1, 2), (2, 3)])
    quad = BaseGraph(1, list(g4.vertices), [(0, 1), (1, 2), (2, 3), (0, 3)])
    # one edge missing; one edge traded for a non-edge, which keeps the count
    missing = BaseGraph(1, list(g4.vertices), g4.edge_list[1:])
    non_edge = next(pair for pair in combinations(range(6), 2) if not g4.has_edge(*pair))
    swapped = BaseGraph(1, list(g4.vertices), [*g4.edge_list[1:], non_edge])
    # six distinct balanced masks and twelve product-1 pairs, but 6 bits wide
    six = [BitVertex(m, 6) for m in (0b111, 0b1011, 0b110001, 0b110010, 0b11100, 0b101100)]
    wide = BaseGraph(1, six, [(a, b) for a, b in combinations(range(6), 2)
                              if (six[a].mask & six[b].mask).bit_count() == 1])
    assert wide.num_edges == g4.num_edges
    twice = BaseGraph(1, [g4.vertices[0]] * 6, g4.edge_list)
    for g in (forest, quad, missing, swapped, wide, twice, Graph(6, g4.edge_list)):
        with pytest.raises(ValueError, match="full base graph"):
            count_cycle_blocks(g, 4)


def assert_kept_rows_are_the_surviving_rows(g, kept, k):
    kept_blocks = cycle_blocks(g, k, kept)
    base_blocks = cycle_blocks(g, k)
    assert [b.s for b in kept_blocks] == [b.s for b in base_blocks]
    for got, base in zip(kept_blocks, base_blocks):
        survives = kept[base.edge_ids].all(axis=1)
        assert got.members.dtype == got.edge_ids.dtype == np.int32
        assert got.members.tolist() == base.members[survives].tolist()
        assert got.edge_ids.tolist() == base.edge_ids[survives].tolist()


@pytest.mark.parametrize("p", [0.0, 0.06, 0.3, 0.7, 1.0])
def test_kept_scan_lists_the_surviving_base_cycles(g4, g8, p):
    rng = np.random.default_rng(int(p * 100))
    for g, k in [(g4, 6), (g8, 4)]:
        assert_kept_rows_are_the_surviving_rows(g, rng.random(g.num_edges) < p, k)


@given(small_graphs, st.integers(min_value=3, max_value=6), st.randoms())
@settings(max_examples=80, deadline=None)
def test_kept_scan_lists_the_surviving_cycles_of_random_graphs(data, k, rnd):
    n, edges = data
    g = Graph(n, sorted(edges))
    kept = np.array([rnd.random() < 0.7 for _ in range(g.num_edges)], dtype=bool)
    assert_kept_rows_are_the_surviving_rows(g, kept, k)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_kernel_lists_match_the_former_dense_scan(g4, g8, g12, n, data):
    g = {1: g4, 2: g8, 3: g12}[n]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    drawn = rng.random(g.num_edges) < data.draw(st.floats(0, 1))
    for kept in (None, np.zeros(g.num_edges, bool), np.ones(g.num_edges, bool), drawn):
        kernel = model._PathKernel(g, kept)
        indptr, nbrs = oracles.path_kernel_lists(g, kept)
        assert kernel.indptr.dtype == indptr.dtype and np.array_equal(kernel.indptr, indptr)
        assert kernel.nbrs.dtype == nbrs.dtype and np.array_equal(kernel.nbrs, nbrs)


def test_kept_scan_falls_back_to_one_root_at_a_time(g4, monkeypatch):
    # all roots at once hold 25 open paths towards quadrilaterals, one root
    # at most 12: guard 23 takes the per-root loop and still lists all 23
    kept = np.ones(g4.num_edges, dtype=bool)
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 23)
    blocks = cycle_blocks(g4, 4, kept)
    for got, base in zip(blocks, cycle_blocks(g4, 4)):
        assert np.array_equal(got.members, base.members)
        assert np.array_equal(got.edge_ids, base.edge_ids)
    assert guard_message(monkeypatch, 22, cycle_blocks, g4, 4, kept) == guard_message(
        monkeypatch, 22, cycle_blocks, g4, 4
    )


def test_cycle_events_on_synthetic_graphs(g4):
    # a forest base yields no events; a single quadrilateral yields one
    forest = BaseGraph(1, list(g4.vertices), [(0, 1), (1, 2), (2, 3)])
    assert enumerate_cycle_events(forest, 5, 0.3) == []
    quad = BaseGraph(1, list(g4.vertices), [(0, 1), (1, 2), (2, 3), (0, 3)])
    events = enumerate_cycle_events(quad, 4, 0.3)
    assert len(events) == 1
    assert events[0].probability == pytest.approx(0.3**4)
    assert events[0].meta == 4


def test_dependency_is_shared_edge(g4):
    p = 0.3
    triangles = enumerate_cycle_events(g4, 3, p)
    system = EventSystem.from_events(triangles)
    for i, ev in enumerate(system.events):
        for j in system.neighbors[i]:
            assert set(ev.variable_set) & set(system.events[j].variable_set)
        for j in range(len(system.events)):
            if j != i and j not in system.neighbors[i]:
                assert not set(ev.variable_set) & set(system.events[j].variable_set)


def test_disjoint_triangles_are_independent(g4):
    events = enumerate_cycle_events(g4, 3, 0.3)
    antipodal = []
    for i, a in enumerate(events):
        for j in range(i + 1, len(events)):
            if not set(a.variable_set) & set(events[j].variable_set):
                antipodal.append((i, j))
    assert antipodal  # the octahedron has edge-disjoint triangle pairs
    system = EventSystem.from_events(events)
    i, j = antipodal[0]
    assert j not in system.neighbors[i]


def test_mixed_system_dependencies_match_brute_force(g4):
    p = 0.05
    events = enumerate_independent_set_events(g4, 3, p) + enumerate_cycle_events(
        g4, 3, p
    )
    system = EventSystem.from_events(events)
    assert len(system) == 28
    assert system.feasible
    for i in range(len(system)):
        brute = sorted(
            j
            for j in range(len(system))
            if j != i
            and set(system.events[i].variable_set)
            & set(system.events[j].variable_set)
        )
        assert system.neighbors[i] == brute
    # split views partition the neighborhood
    for i in range(len(system)):
        split = split_neighbors(system, i)
        merged = sorted(j for group in split.values() for j in group)
        assert merged == system.neighbors[i]
        assert set(split) <= {(KIND_INDEPENDENT_SET, 3), (KIND_CYCLE, 3)}


def test_system_excludes_unavoidable(g4):
    events = enumerate_independent_set_events(g4, 2, 0.3)
    system = EventSystem.from_events(events)
    assert len(system) == 12
    assert len(system.unavoidable) == 3
    assert not system.feasible


def test_event_occurrence_semantics(g4):
    tri = enumerate_cycle_events(g4, 3, 0.3)[0]
    mask = 0
    for i in tri.variable_set:
        mask |= 1 << i
    assert occurs(tri, mask)
    assert not occurs(tri, mask & (mask - 1))  # drop one edge
    subset = enumerate_independent_set_events(g4, 3, 0.3)[0]
    assert occurs(subset, 0)  # nothing sampled: subset is independent
    full = (1 << g4.num_edges) - 1
    assert not occurs(subset, full)


def test_event_frequencies_match_probabilities(g4):
    p = 0.3
    samples = 10_000
    events = enumerate_independent_set_events(g4, 3, p) + enumerate_cycle_events(
        g4, 3, p
    )
    hits = np.zeros(len(events))
    for seed in range(samples):
        sub = sample_subgraph(g4, ModelParams(n=1, p_override=p, seed=seed))
        for idx, ev in enumerate(events):
            if occurs(ev, sub.mask):
                hits[idx] += 1
    for idx, ev in enumerate(events):
        sigma = math.sqrt(ev.probability * (1 - ev.probability) / samples)
        assert abs(hits[idx] / samples - ev.probability) <= 4 * sigma


def test_disjoint_events_factorize(g4):
    p = 0.7
    samples = 10_000
    events = enumerate_cycle_events(g4, 3, p)
    pair = None
    for i, a in enumerate(events):
        for j in range(i + 1, len(events)):
            if not set(a.variable_set) & set(events[j].variable_set):
                pair = (events[i], events[j])
                break
        if pair:
            break
    a, b = pair
    hits_a = hits_b = hits_both = 0
    for seed in range(samples):
        sub = sample_subgraph(g4, ModelParams(n=1, p_override=p, seed=seed))
        occ_a, occ_b = occurs(a, sub.mask), occurs(b, sub.mask)
        hits_a += occ_a
        hits_b += occ_b
        hits_both += occ_a and occ_b
    joint = hits_both / samples
    product = (hits_a / samples) * (hits_b / samples)
    sigma = math.sqrt(a.probability * b.probability / samples)
    assert abs(joint - product) <= 4 * sigma + 1e-9


def test_neighbourhoods_refuse_past_the_term_bound(g8, monkeypatch):
    # the bound is the sum over edges of (events on the edge) ** 2
    system = build_event_system(g8, 3, None, 0.05)
    per_edge = np.bincount([e for ev in system.events for e in ev.variable_set])
    assert int((per_edge**2).sum()) == 408_240 <= model.NEIGHBOR_TERM_GUARD
    monkeypatch.setattr(model, "NEIGHBOR_TERM_GUARD", 408_239)
    with pytest.raises(SizeGuardError, match="7560 events may hold up to 408240"):
        system.neighbors
    monkeypatch.setattr(model, "NEIGHBOR_TERM_GUARD", 408_240)
    assert sum(map(len, system.neighbors)) > 0


def test_event_spec_validation():
    with pytest.raises(ValueError):
        EventSpec(kind="mystery", variable_set=(0,), meta=3, probability=0.5, members=())
    with pytest.raises(ValueError):
        EventSpec(kind=KIND_CYCLE, variable_set=(), meta=3, probability=0.5, members=())


# --- array-backed event systems ------------------------------------------------


# These check the rescan API of ``oracles.EventBlocks``, the reference
# that the kept-graph scan of Moser-Tardos is held to.


@pytest.mark.parametrize("k,l", [(3, 3), (4, 4), (5, 2), (6, None), (4, 6)])
def test_event_blocks_match_the_spec_system(g4, k, l):
    p = 0.3
    blocks = oracles.event_blocks(g4, k, l, p)
    events = [] if l is None else enumerate_independent_set_events(g4, l, p)
    reference = EventSystem.from_events(events + enumerate_cycle_events(g4, k, p))
    system = build_event_system(g4, k, l, p)
    assert system.to_json() == reference.to_json()
    assert len(blocks) == len(system)
    assert blocks.feasible == system.feasible
    assert [ev.members for ev in blocks.unavoidable] == [
        ev.members for ev in system.unavoidable
    ]
    for i, ev in enumerate(system.events):
        assert blocks.variable_set(i).tolist() == list(ev.variable_set)


@pytest.mark.parametrize("k,l", [(3, 3), (4, 4), (5, 2), (4, 6), (4, None)])
def test_vectorised_occurrence_matches_scalar_scan(g4, k, l):
    blocks = oracles.event_blocks(g4, k, l, 0.5)
    events = build_event_system(g4, k, l, 0.5).events
    rng = np.random.default_rng(k * 10 + (l or 0))
    masks = [0, (1 << g4.num_edges) - 1]
    masks += [int(m) for m in rng.integers(0, 1 << g4.num_edges, size=200)]
    for mask in masks:
        kept = np.array([(mask >> e) & 1 for e in range(g4.num_edges)], dtype=bool)
        occurring = blocks.occurring(kept)
        assert occurring.shape == (len(events),)
        assert np.flatnonzero(occurring).tolist() == occurring_events(events, mask)


def test_build_event_system_subset_events(g4, g8, monkeypatch):
    p = 0.1
    # C(70, 3) = 54,740 triples, 5,600 of them independent; 7,560 triangles
    system = build_event_system(g8, 3, 3, p)
    assert (len(system), len(system.unavoidable)) == (49_140 + 7_560, 5_600)
    system = build_event_system(g8, 3, None, p)
    assert (len(system), system.unavoidable) == (7_560, [])
    with pytest.raises(ValueError, match="outside"):
        build_event_system(g4, 3, 7, p)
    assert build_event_system(g4, 2, None, p).events == []
    empty = oracles.event_blocks(g4, 2, None, p)
    assert len(empty) == 0
    assert empty.occurring(np.ones(g4.num_edges, dtype=bool)).shape == (0,)
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 10_000)
    with pytest.raises(SizeGuardError):
        build_event_system(g8, 3, 3, p)


def subset_events_or_error(fn, g, l):
    try:
        return fn(g, l, 0.3)
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize("l", range(1, 9))
def test_subset_events_match_the_bitmask_walk_on_g4(g4, l):
    fast = subset_events_or_error(enumerate_independent_set_events, g4, l)
    slow = subset_events_or_error(oracles.enumerate_independent_set_events, g4, l)
    assert fast == slow
    assert isinstance(fast, str) == (l > g4.num_vertices)


def test_subset_events_match_the_bitmask_walk_on_g8(g8):
    fast = enumerate_independent_set_events(g8, 3, 0.05)
    assert fast == oracles.enumerate_independent_set_events(g8, 3, 0.05)
    assert all(list(ev.variable_set) == sorted(ev.variable_set) for ev in fast)


@given(small_graphs, st.integers(min_value=1, max_value=8))
@settings(max_examples=80, deadline=None)
def test_subset_events_match_the_bitmask_walk_on_random_graphs(data, l):
    n, edges = data
    g = Graph(n, sorted(edges))
    fast = subset_events_or_error(enumerate_independent_set_events, g, l)
    assert fast == subset_events_or_error(oracles.enumerate_independent_set_events, g, l)
