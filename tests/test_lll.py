import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highgirth import (
    EventSystem,
    bollobas_implies_general,
    check_bollobas_lll,
    check_general_lll,
    choose_parameters,
    dependency_count_bounds,
    enumerate_cycle_events,
    enumerate_independent_set_events,
    feasible_gamma_interval,
    recipe_multipliers,
    verify_exponent_condition,
    verify_sys1_finite,
)
from highgirth.model import KIND_CYCLE, KIND_INDEPENDENT_SET, EventSpec

import oracles

# mpmath-derived reference values (40 significant digits, rounded)
INTERVAL_K3 = (0.633333333333, 0.705876372843)
INTERVAL_K5 = (0.557142857143, 0.593829348102)
RECIPE_DELTA_A4 = 2.57743638458  # exp(0.7^(4*1.01) * 4)
CYCLE_HYPOTHESIS_P = 0.633166899604  # (0.69 / e)^(1/3)
EXPONENT_070 = -0.02400061393
EXPONENT_075 = 0.1740753764
EPS_CEILING_K10 = 0.2965011509  # 4 - 2^(17/9)


# --- general checker -------------------------------------------------------


def test_general_single_event_holds():
    report = check_general_lll([0.25], [[]], [0.5])
    assert report.holds
    assert report.product_bound == pytest.approx(0.5)
    assert report.margins == [pytest.approx(0.25)]


def test_general_symmetric_system():
    probs = [0.1, 0.1, 0.1]
    neighbors = [[1, 2], [0, 2], [0, 1]]
    report = check_general_lll(probs, neighbors, [0.2] * 3)
    assert report.holds
    assert report.margins[0] == pytest.approx(0.2 * 0.8**2 - 0.1)
    assert report.product_bound == pytest.approx(0.8**3)


def test_general_single_event_fails():
    report = check_general_lll([0.9], [[]], [0.5])
    assert not report.holds
    assert report.margins[0] == pytest.approx(-0.4)


def test_general_rejects_bad_gamma():
    with pytest.raises(ValueError):
        check_general_lll([0.5], [[]], [1.0])
    with pytest.raises(ValueError):
        check_general_lll([0.5], [[]], [0.0])
    with pytest.raises(ValueError):
        check_general_lll([0.5, 0.5], [[], []], [0.5])


# --- log-form checker ------------------------------------------------------


def test_bollobas_single_event():
    report = check_bollobas_lll([0.5], [[]], [1.0])
    assert report.holds
    assert report.product_bound == pytest.approx(0.5)
    failing = check_bollobas_lll([0.5], [[]], [0.5])
    assert not failing.holds
    assert failing.margins[0] == pytest.approx(math.log(0.5))


def test_bollobas_two_dependent_events():
    probs = [0.1, 0.1]
    neighbors = [[1], [0]]
    weak = check_bollobas_lll(probs, neighbors, [1.2, 1.2])
    assert not weak.holds
    assert weak.margins[0] == pytest.approx(math.log(1.2) - 0.24)
    strong = check_bollobas_lll(probs, neighbors, [2.0, 2.0])
    assert strong.holds
    assert strong.margins[0] == pytest.approx(math.log(2.0) - 0.4)
    assert strong.product_bound == pytest.approx(0.64)


def test_bollobas_hypothesis_violations_reported():
    report = check_bollobas_lll([0.5], [[]], [2.0])  # delta * P = 1.0 >= 0.69
    assert report.hypothesis_violations == [0]
    assert not report.holds
    with pytest.raises(ValueError):
        check_bollobas_lll([0.5], [[]], [-1.0])


# --- reduction -------------------------------------------------------------


def test_substitution_reduces_to_general():
    assert bollobas_implies_general([0.1, 0.1], [[1], [0]], [2.0, 2.0])
    assert bollobas_implies_general([0.5], [[]], [1.0])


def random_feasible_log_form_system(rng):
    """Rejection-sample a system where the log-form condition holds."""
    for _ in range(10_000):
        m = int(rng.integers(1, 13))
        probs = rng.uniform(0.001, 0.05, m).tolist()
        neighbors = [[] for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.35:
                    neighbors[i].append(j)
                    neighbors[j].append(i)
        deltas = rng.uniform(1.05, math.e, m).tolist()
        report = check_bollobas_lll(probs, neighbors, deltas)
        if report.holds:
            return probs, neighbors, deltas
    raise AssertionError("rejection sampling failed to find a feasible system")


def test_reduction_on_random_feasible_systems():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        probs, neighbors, deltas = random_feasible_log_form_system(rng)
        assert bollobas_implies_general(probs, neighbors, deltas)


# --- dependency-count bounds ------------------------------------------------


def test_bound_table_values():
    bounds = dependency_count_bounds(n=1, k=3, l=3, a_i=4)
    assert bounds.subset_on_cycles[3] == 4 * 2**4 == 64
    assert bounds.cycle_on_cycles[(3, 3)] == 3 * 2**4 == 48
    assert bounds.on_subsets == 20  # C(6, 3)
    big = dependency_count_bounds(n=8, k=4, l=2, a_i=1)
    assert big.cycle_on_cycles[(3, 4)] == 3 * 2**64  # exact integers


def test_bounds_dominate_on_g4(g4):
    p = 0.1
    events = enumerate_independent_set_events(g4, 3, p) + enumerate_cycle_events(
        g4, 3, p
    )
    system = EventSystem.from_events(events)
    on_x = dependency_count_bounds(1, 3, 3, 0).on_subsets
    for i, ev in enumerate(system.events):
        split = oracles.split_neighbors(system, i)
        cycles = len(split.get((KIND_CYCLE, 3), ()))
        subsets = len(split.get((KIND_INDEPENDENT_SET, 3), ()))
        assert subsets <= on_x
        if ev.kind == KIND_INDEPENDENT_SET:
            bound = dependency_count_bounds(1, 3, 3, len(ev.variable_set))
            assert cycles <= bound.subset_on_cycles[3]
        else:
            bound = dependency_count_bounds(1, 3, 3, 0)
            assert cycles <= bound.cycle_on_cycles[(3, 3)]


def test_quad_subset_touches_at_most_eight_triangles(g4):
    labels = {s: i for i, s in enumerate(g4.vertex_strings())}
    quad = tuple(sorted(labels[s] for s in ("1100", "0011", "1010", "0101")))
    p = 0.1
    events = enumerate_independent_set_events(g4, 4, p) + enumerate_cycle_events(
        g4, 3, p
    )
    system = EventSystem.from_events(events)
    idx = next(
        i for i, ev in enumerate(system.events) if ev.members == quad
    )
    assert len(system.events[idx].variable_set) == 4
    touched = len(oracles.split_neighbors(system, idx).get((KIND_CYCLE, 3), ()))
    assert touched <= 8 <= 64


def test_bounds_dominate_on_g8(g8):
    p = 0.01
    events = enumerate_independent_set_events(g8, 2, p) + enumerate_cycle_events(
        g8, 3, p
    )
    system = EventSystem.from_events(events)
    assert len(system.unavoidable) == 1155  # non-adjacent pairs
    assert len(system) == 1260 + 7560
    bounds_a1 = dependency_count_bounds(2, 3, 2, 1)
    for i, ev in enumerate(system.events):
        split = oracles.split_neighbors(system, i)
        cycles = len(split.get((KIND_CYCLE, 3), ()))
        subsets = len(split.get((KIND_INDEPENDENT_SET, 2), ()))
        assert subsets <= bounds_a1.on_subsets
        if ev.kind == KIND_INDEPENDENT_SET:
            assert cycles <= bounds_a1.subset_on_cycles[3]  # a_i = 1 always
        else:
            assert cycles <= bounds_a1.cycle_on_cycles[(3, 3)]


# --- recipe multipliers ------------------------------------------------------


def test_recipe_values(g4):
    p, f = 0.7**4, 0.01
    events = enumerate_independent_set_events(g4, 4, p) + enumerate_cycle_events(
        g4, 3, p
    )
    deltas = recipe_multipliers(events, p, f)
    for ev, d in zip(events, deltas):
        if ev.kind == KIND_CYCLE:
            assert d == math.e
        else:
            assert d == pytest.approx(
                math.exp(p ** (1 + f) * len(ev.variable_set)), rel=1e-12
            )
    four_edge = next(
        d
        for ev, d in zip(events, deltas)
        if ev.kind == KIND_INDEPENDENT_SET and len(ev.variable_set) == 4
    )
    assert four_edge == pytest.approx(RECIPE_DELTA_A4, abs=1e-9)


def test_cycle_hypothesis_threshold():
    assert math.e * (CYCLE_HYPOTHESIS_P**3) == pytest.approx(0.69, abs=1e-9)


# --- finite system evaluation -------------------------------------------------


def test_sys1_on_g4_records_failure_at_desk_scale(g4):
    # recorded outcome: at n = 1 the asymptotic hypothesis has not kicked in;
    # every subset event has delta * P close to 1 and the margins are negative
    p, f = 0.05, 0.01
    events = enumerate_independent_set_events(g4, 3, p) + enumerate_cycle_events(
        g4, 3, p
    )
    system = EventSystem.from_events(events)
    report = verify_sys1_finite(system, p, f)
    assert len(report.margins) == 28
    assert not report.infeasible
    assert not report.holds
    assert report.hypothesis_violations == list(range(20))  # all subset events
    assert all(m < 0 for m in report.margins)
    assert report.log_form is not None and not report.log_form.holds
    assert report.product_bound is None


def test_sys1_vacuous_and_infeasible(g4):
    empty = EventSystem(events=[])
    report = verify_sys1_finite(empty, 0.3, 0.01)
    assert report.holds and report.margins == []
    events = enumerate_independent_set_events(g4, 2, 0.3)
    system = EventSystem.from_events(events)
    report = verify_sys1_finite(system, 0.3, 0.01)
    assert report.infeasible
    assert not report.holds


def test_sys1_holds_on_a_sparse_synthetic_system(g4):
    # cycle events only, tiny p: neighbors contribute 2e*p^3 each, so the
    # condition 1 >= sum holds comfortably and the log-form check agrees
    p = 0.05
    events = enumerate_cycle_events(g4, 3, p)
    system = EventSystem.from_events(events)
    report = verify_sys1_finite(system, p, 0.01)
    assert report.holds
    assert report.log_form.holds
    assert report.product_bound == pytest.approx(
        (1 - math.e * p**3) ** 8, rel=1e-12
    )


def test_sys1_margins_lower_bound_log_form_margins(g4):
    # the two-line condition replaces subset probabilities (1-p)^a by the
    # larger exp(-p a), so its margins can only be tighter: event by
    # event, sys-margin <= direct log-form margin
    for p in (0.05, 0.2, 0.5):
        events = enumerate_independent_set_events(g4, 3, p)
        events += enumerate_cycle_events(g4, 3, p)
        system = EventSystem.from_events(events)
        report = verify_sys1_finite(system, p, 0.01)
        assert report.log_form is not None
        for tight, loose in zip(report.margins, report.log_form.margins):
            assert tight <= loose + 1e-12


def test_sys1_custom_deltas_length_checked(g4):
    events = enumerate_cycle_events(g4, 3, 0.05)
    system = EventSystem.from_events(events)
    with pytest.raises(ValueError):
        verify_sys1_finite(system, 0.05, 0.01, deltas=[1.0])


def test_measured_exponent_correction(g4):
    from highgirth import measured_exponent_correction

    events = enumerate_cycle_events(g4, 3, 0.1)
    system = EventSystem.from_events(events)
    worst = max(len(system.neighbors[i]) for i in range(len(system)))
    # each triangle's 3 edges lie in one other triangle apiece, so the
    # coarse bound 2^{4n(s-2)} = 16 is slack by a factor of ~5
    assert worst == 3
    correction = measured_exponent_correction(worst, 1, 3)
    assert correction == pytest.approx(math.log2(3) / 4 - 1)
    assert correction < 0
    with pytest.raises(ValueError):
        measured_exponent_correction(0, 1, 3)


# --- parameter windows --------------------------------------------------------


def test_interval_frozen_endpoints():
    window = feasible_gamma_interval(3, 1.0, 0.1, 0.01)
    assert window.lower == pytest.approx(INTERVAL_K3[0], abs=1e-9)
    assert window.upper == pytest.approx(INTERVAL_K3[1], abs=1e-9)
    assert window.nonempty
    window5 = feasible_gamma_interval(5, 0.5, 0.05, 0.01)
    assert window5.lower == pytest.approx(INTERVAL_K5[0], abs=1e-9)
    assert window5.upper == pytest.approx(INTERVAL_K5[1], abs=1e-9)
    assert window5.nonempty


def test_interval_empty_case():
    window = feasible_gamma_interval(3, 2.0, 1e-9, 1e-9)
    assert window.lower == pytest.approx(1.0)
    assert window.upper == pytest.approx(2 ** -0.5)
    assert not window.nonempty


def test_interval_domain_errors():
    with pytest.raises(ValueError):
        feasible_gamma_interval(2, 1.0, 0.1, 0.01)
    with pytest.raises(ValueError):
        feasible_gamma_interval(3, 4.0, 0.1, 0.01)
    with pytest.raises(ValueError):
        feasible_gamma_interval(3, 1.0, 0.0, 0.01)
    with pytest.raises(ValueError):
        feasible_gamma_interval(3, 1.0, 0.1, 2.0)  # f >= k - 1
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"delta must be finite, got {delta}"):
            feasible_gamma_interval(3, 1.0, delta, 0.5)


def test_upper_endpoint_monotonicity():
    f_grid = [0.01, 0.1, 0.5, 0.9]
    for f in f_grid:
        uppers = [
            feasible_gamma_interval(k, 1.0, 0.1, f).upper for k in range(3, 11)
        ]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
    for k in range(3, 11):
        uppers = [feasible_gamma_interval(k, 1.0, 0.1, f).upper for f in f_grid]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
    # the upper endpoint approaches 1/2 from above as k grows
    assert feasible_gamma_interval(100, 1.0, 0.1, 0.01).upper == pytest.approx(
        0.5, abs=5e-3
    )


# --- exponent condition --------------------------------------------------------


def test_exponent_condition_values():
    assert verify_exponent_condition(3, 0.01, 0.70) == pytest.approx(
        EXPONENT_070, abs=1e-9
    )
    assert verify_exponent_condition(3, 0.01, 0.75) == pytest.approx(
        EXPONENT_075, abs=1e-9
    )
    assert verify_exponent_condition(3, 0.0, 2**-0.5) == pytest.approx(0.0, abs=1e-12)


def test_exponent_condition_boundary_is_zero():
    for k in range(3, 11):
        f = 0.01
        gamma = 2 ** (-(k - 2) / (k - 1 - f))
        assert abs(verify_exponent_condition(k, f, gamma)) < 1e-12


# --- parameter recipe -----------------------------------------------------------


def test_choose_parameters_k3():
    params = choose_parameters(3, 0.1)
    params.validate()
    window = params.interval()
    assert window.lower < params.gamma < window.upper
    assert params.epsilon == pytest.approx((4 - 2**1.5) / 2, abs=1e-12)
    assert params.l == 14  # ceil(1.9^4)


def test_choose_parameters_large_delta_handled():
    params = choose_parameters(3, 3.9)
    params.validate()
    assert params.interval().lower < 0
    assert 0 < params.gamma < 1
    assert params.l == 1


def test_choose_parameters_all_k():
    for k in range(3, 11):
        params = choose_parameters(k, 0.1)
        params.validate()
        assert params.interval().nonempty
        for s in range(3, k + 1):
            assert verify_exponent_condition(s, params.f, params.gamma) < 0


def test_choose_parameters_epsilon_ceiling_k10():
    params = choose_parameters(10, 0.01)
    assert params.epsilon == pytest.approx(EPS_CEILING_K10 / 2, abs=1e-9)
    assert params.epsilon < EPS_CEILING_K10


def test_choose_parameters_rejects_bad_input():
    with pytest.raises(ValueError):
        choose_parameters(2, 0.1)
    with pytest.raises(ValueError):
        choose_parameters(3, 0.0)
    with pytest.raises(ValueError):
        choose_parameters(3, 0.1, n=0)
    with pytest.raises(ValueError, match="delta must be positive, got -inf"):
        choose_parameters(3, -math.inf)
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"delta must be finite, got {delta}"):
            choose_parameters(3, delta)


def test_non_finite_multipliers_are_refused(g4):
    events = enumerate_cycle_events(g4, 3, 0.05)
    for f in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"f must be finite, got {f}"):
            recipe_multipliers(events, 0.05, f)
    for d in (math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"delta\[1\] = {d} must be finite"):
            check_bollobas_lll([0.1, 0.1], [[1], [0]], [1.5, d])


def test_parameters_validate_rejects_out_of_window():
    params = choose_parameters(3, 0.1)
    from dataclasses import replace

    bad = replace(params, gamma=0.99)
    with pytest.raises(ValueError):
        bad.validate()
    bad_low = replace(params, gamma=min(0.01, params.interval().lower / 2))
    with pytest.raises(ValueError):
        bad_low.validate()


# --- the neighbour-sum kernel against the former per-checker loops ----------


def margin_bits(report):
    """Margins and product bound as exact bit patterns."""
    return [float(m).hex() for m in report.margins], float(report.product_bound).hex()


def assert_checkers_match_oracles(system, p, f, deltas, gammas):
    probs, nbrs = system.probabilities, system.neighbors
    fast = check_general_lll(probs, nbrs, gammas)
    slow = oracles.check_general_lll(probs, nbrs, gammas)
    assert fast == slow and margin_bits(fast) == margin_bits(slow)
    fast = check_bollobas_lll(probs, nbrs, deltas)
    slow = oracles.check_bollobas_lll(probs, nbrs, deltas)
    assert fast == slow and margin_bits(fast) == margin_bits(slow)
    for ds in (deltas, None):  # explicit multipliers, then the recipe
        fast = verify_sys1_finite(system, p, f, ds)
        slow = oracles.verify_sys1_finite(system, p, f, ds)
        assert fast == slow
        assert [m.hex() for m in fast.margins] == [m.hex() for m in slow.margins]
        if fast.log_form is not None:
            assert margin_bits(fast.log_form) == margin_bits(slow.log_form)


@st.composite
def event_systems(draw):
    """Mixed subset and cycle events over a few edges, with multipliers.

    Subset events may span no edge (unavoidable: an infeasible system),
    events may share no edge (empty neighbourhoods), and the multipliers
    put ``delta_i P(A_i)`` on both sides of the 0.69 cap.
    """
    p = draw(st.floats(min_value=0.01, max_value=0.99))
    edge_sets = st.sets(st.integers(min_value=0, max_value=11), max_size=5)
    events = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        ids = tuple(sorted(draw(edge_sets)))
        if ids and draw(st.booleans()):
            s = draw(st.integers(min_value=3, max_value=6))
            events.append(EventSpec(KIND_CYCLE, ids, s, p**s, ()))
        else:
            events.append(
                EventSpec(KIND_INDEPENDENT_SET, ids, 3, (1 - p) ** len(ids), ())
            )
    system = EventSystem.from_events(events)
    size = len(system.events)
    deltas = draw(st.lists(
        st.floats(min_value=0.05, max_value=40.0), min_size=size, max_size=size
    ))
    gammas = draw(st.lists(
        st.floats(min_value=1e-6, max_value=0.999, exclude_max=True),
        min_size=size, max_size=size,
    ))
    return system, p, draw(st.floats(min_value=0.01, max_value=1.0)), deltas, gammas


@given(event_systems())
@settings(max_examples=150, deadline=None)
def test_checkers_match_former_loops_on_random_systems(case):
    system, p, f, deltas, gammas = case
    assert_checkers_match_oracles(system, p, f, deltas, gammas)


def test_checkers_match_former_loops_across_the_cap():
    system = EventSystem.from_events([
        EventSpec(KIND_CYCLE, (0, 1, 2), 3, 0.5**3, ()),
        EventSpec(KIND_INDEPENDENT_SET, (2, 3), 3, 0.25, ()),
        EventSpec(KIND_INDEPENDENT_SET, (7,), 3, 0.5, ()),
    ])
    deltas = [2.0, 3.0, 1.38]  # delta * P: 0.25, 0.75 (over the cap), 0.69 (at it)
    assert system.neighbors == [[1], [0], []]
    report = verify_sys1_finite(system, 0.5, 0.1, deltas)
    assert report.hypothesis_violations == [1, 2]
    assert_checkers_match_oracles(system, 0.5, 0.1, deltas, [0.2, 0.3, 0.4])


def test_checkers_match_former_loops_on_g8_cycles(g8):
    system = EventSystem.from_events(enumerate_cycle_events(g8, 3, 0.05))
    size = len(system)
    deltas = [1.5 + (i % 7) * 0.1 for i in range(size)]
    gammas = [0.001 + (i % 5) * 0.0002 for i in range(size)]
    assert_checkers_match_oracles(system, 0.05, 0.01, deltas, gammas)


def test_checkers_match_former_loops_on_the_mixed_g4_system(g4):
    p = 0.05
    system = EventSystem.from_events(
        enumerate_independent_set_events(g4, 3, p) + enumerate_cycle_events(g4, 4, p)
    )
    assert system.feasible
    size = len(system)
    deltas = [1.1 + 0.01 * (i % 13) for i in range(size)]
    gammas = [0.01 + 0.001 * (i % 11) for i in range(size)]
    assert_checkers_match_oracles(system, p, 0.01, deltas, gammas)
