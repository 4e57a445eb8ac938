"""Acceptance suite: one test per criterion, with a printed verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Expected values marked as derived were computed with independent
oracles (exhaustive enumeration, 40-digit mpmath arithmetic) and frozen.
"""

import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from highgirth import (
    EdgeSubset,
    EventSystem,
    GirthCertificate,
    Graph,
    ModelParams,
    bollobas_implies_general,
    build_base_graph,
    certify,
    check_general_lll,
    choose_parameters,
    chromatic_number,
    count_cycles,
    deletion_method,
    dependency_count_bounds,
    embed_codimension,
    enumerate_cycle_events,
    enumerate_independent_set_events,
    feasible_gamma_interval,
    girth,
    independence_number,
    log_probability,
    moser_tardos_search,
    recheck_certificate,
    sample_subgraph,
    verify_exponent_condition,
    verify_unit_distance,
)
from highgirth.model import KIND_CYCLE, KIND_INDEPENDENT_SET

from oracles import (
    alpha_exhaustive,
    alpha_via_complement_cliques,
    chi_exhaustive,
    count_distinct_cycles,
    girth_exhaustive,
    split_neighbors,
    verify_coloring,
    verify_independent_set,
)
from test_lll import random_feasible_log_form_system


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_01_g4_structure_against_exhaustive_oracle(g4):
    with criterion(1, "G_4 structure matches the exhaustive oracle in < 1 s"):
        start = time.perf_counter()
        edges = g4.edge_list
        assert g4.num_vertices == 6
        assert g4.num_edges == 12
        assert all(g4.degree(v) == 4 for v in range(6))

        girth_result = girth(g4)
        assert girth_result.value == 3 == girth_exhaustive(6, edges)

        alpha_result = independence_number(g4)
        assert alpha_result.value == 2 == alpha_exhaustive(6, edges)
        assert verify_independent_set(g4, alpha_result.witness)

        chi_result = chromatic_number(g4)
        assert chi_result.value == 3 == chi_exhaustive(6, edges)
        assert verify_coloring(g4, chi_result.witness)

        labeled, distinct = count_cycles(g4, 3)
        assert distinct == 8 == count_distinct_cycles(6, edges, 3)
        assert labeled == 48 == 2 * 3 * distinct

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f} s"


def test_criterion_02_g8_structure_and_independent_alpha(g8):
    with criterion(2, "G_8 structure; alpha agrees across two algorithms in < 60 s"):
        start = time.perf_counter()
        assert g8.num_vertices == 70
        assert g8.num_edges == 1260
        assert all(g8.degree(v) == 36 for v in range(70))
        assert girth(g8).value == 3

        branch_and_bound = independence_number(g8)
        assert branch_and_bound.exact
        assert verify_independent_set(g8, branch_and_bound.witness)

        clique_scan = alpha_via_complement_cliques(70, g8.edge_list)
        assert verify_independent_set(g8, clique_scan)
        assert branch_and_bound.value == len(clique_scan) == 10

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f} s"


def test_criterion_03_metric_invariant_and_isometric_embedding(g4, g8, g12):
    with criterion(3, "edges have squared distance 2n; embedding is isometric"):
        for n, g in ((1, g4), (2, g8), (3, g12)):
            assert verify_unit_distance(g) == 2 * n
            for u, v in g.edge_list:
                xor = g.vertices[u].mask ^ g.vertices[v].mask
                assert xor.bit_count() == 2 * n
            original = np.array([v.coords() for v in g.vertices], dtype=np.int64)
            for j in (1, 3):
                embedded = np.array(embed_codimension(g, j), dtype=np.int64)
                assert embedded.shape[1] == 4 * n + j
                assert np.array_equal(_pairwise_sq(original), _pairwise_sq(embedded))


def _pairwise_sq(coords):
    sq = (coords * coords).sum(axis=1)
    return sq[:, None] + sq[None, :] - 2 * coords @ coords.T


def test_criterion_04_probability_space_normalization(g4):
    with criterion(4, "measure sums to 1 within 1e-9; edge rates within 4 sigma"):
        for p in (0.1, 0.5, 0.9):
            total = math.fsum(
                math.exp(log_probability(g4, EdgeSubset(g4, mask), p))
                for mask in range(1 << 12)
            )
            assert abs(total - 1.0) <= 1e-9
        p = 0.3
        seeds = 10_000
        counts = np.zeros(12)
        for seed in range(seeds):
            sub = sample_subgraph(g4, ModelParams(n=1, p_override=p, seed=seed))
            for i in sub.edge_indices():
                counts[i] += 1
        sigma = math.sqrt(p * (1 - p) / seeds)
        assert np.all(np.abs(counts / seeds - p) <= 4 * sigma)


def test_criterion_05_log_form_reduction_never_fails():
    with criterion(5, "substitution into the general condition: 100/100 systems"):
        rng = np.random.default_rng(20240501)
        failures = 0
        for _ in range(100):
            probs, neighbors, deltas = random_feasible_log_form_system(rng)
            if not bollobas_implies_general(probs, neighbors, deltas):
                failures += 1
        assert failures == 0


def test_criterion_06_product_bound_validated_by_monte_carlo(g4):
    with criterion(6, "Monte Carlo P(no bad event) >= product bound - 3 sigma"):
        p = 0.2
        events = enumerate_cycle_events(g4, 3, p)
        system = EventSystem.from_events(events)
        gammas = [0.05] * len(system)
        report = check_general_lll(system.probabilities, system.neighbors, gammas)
        assert report.holds  # 0.008 <= 0.05 * 0.95^3
        bound = report.product_bound

        samples = 100_000
        rng = np.random.default_rng(606)
        draws = rng.random((samples, g4.num_edges)) < p
        none_violated = np.ones(samples, dtype=bool)
        for ev in system.events:
            occurred = draws[:, list(ev.variable_set)].all(axis=1)
            none_violated &= ~occurred
        estimate = none_violated.mean()
        sigma = math.sqrt(estimate * (1 - estimate) / samples)
        assert estimate >= bound - 3 * sigma


def test_criterion_07_parameter_window():
    with criterion(7, "gamma window endpoints, emptiness, recipe, boundary"):
        window = feasible_gamma_interval(3, 1.0, 0.1, 0.01)
        assert window.lower == pytest.approx(0.633333333333, abs=1e-5)
        assert window.upper == pytest.approx(0.705876372843, abs=1e-5)
        assert window.nonempty

        empty = feasible_gamma_interval(3, 2.0, 1e-9, 1e-9)
        assert not empty.nonempty

        for k in range(3, 11):
            params = choose_parameters(k, 0.1)
            params.validate()
            assert params.interval().nonempty
            boundary = 2 ** (-(k - 2) / (k - 1 - params.f))
            assert abs(verify_exponent_condition(k, params.f, boundary)) <= 1e-12


def test_criterion_08_dependency_bounds_dominate(g4):
    with criterion(8, "actual neighborhood sizes never exceed the bound table"):
        p = 0.1
        events = enumerate_independent_set_events(g4, 3, p)
        events += enumerate_cycle_events(g4, 3, p)
        system = EventSystem.from_events(events)
        assert len(system) == 28
        on_subsets = dependency_count_bounds(1, 3, 3, 0).on_subsets
        for i, ev in enumerate(system.events):
            split = split_neighbors(system, i)
            n_cycles = len(split.get((KIND_CYCLE, 3), ()))
            n_subsets = len(split.get((KIND_INDEPENDENT_SET, 3), ()))
            assert n_subsets <= on_subsets
            if ev.kind == KIND_INDEPENDENT_SET:
                table = dependency_count_bounds(1, 3, 3, len(ev.variable_set))
                assert n_cycles <= table.subset_on_cycles[3]
            else:
                table = dependency_count_bounds(1, 3, 3, 0)
                assert n_cycles <= table.cycle_on_cycles[(3, 3)]


def test_criterion_09_constructive_pipeline(g4, g8):
    with criterion(9, "deletion 100/100 at girth > 4; resampling >= 95/100; reruns byte-identical"):
        deletion_wins = 0
        for seed in range(100):
            params = ModelParams(n=2, p_override=0.5, seed=seed)
            cert = deletion_method(g8, params, k=4)
            assert cert.girth > 4
            assert recheck_certificate(cert, g8) == []
            deletion_wins += 1
        assert deletion_wins == 100

        resample_wins = 0
        for seed in range(100):
            params = ModelParams(n=1, p_override=0.3, seed=seed)
            out = moser_tardos_search(g4, params, k=3, l=6, subset_events=False)
            if isinstance(out, GirthCertificate):
                assert recheck_certificate(out, g4) == []
                resample_wins += 1
        assert resample_wins >= 95

        for seed in (0, 17, 99):
            params = ModelParams(n=2, p_override=0.5, seed=seed)
            first = deletion_method(g8, params, k=4)
            second = deletion_method(g8, params, k=4)
            assert _canonical_bytes(first) == _canonical_bytes(second)


def _canonical_bytes(cert):
    import io

    from highgirth.dimacs import dump_json

    buf = io.StringIO()
    dump_json(cert.to_json(), buf)
    return buf.getvalue().encode()


def test_criterion_10_chromatic_consistency(g4):
    with criterion(10, "chi >= ceil(N / alpha) everywhere; certify matches chi(G_4)"):
        instances = [g4, _cycle(5), _cycle(9), _petersen(), _complete(5)]
        rng = np.random.default_rng(4242)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            instances.append(Graph(n, edges))
        for g in instances:
            alpha = independence_number(g)
            chi = chromatic_number(g)
            assert alpha.exact and chi.exact
            nv = g.num_vertices if isinstance(g, Graph) else g.num_vertices
            assert chi.value >= -(-nv // max(alpha.value, 1))

        cert = certify(EdgeSubset.full(g4), k=2, l=2)
        assert cert.chi_lower == 3 == chromatic_number(g4).value


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def _complete(n):
    return Graph(n, list(combinations(range(n), 2)))
