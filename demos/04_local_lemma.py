#!/usr/bin/env python3
"""Numeric Local Lemma checks and the parameter-selection pipeline.

Two checker styles: the general condition P(A_i) <= gamma_i * prod (1 -
gamma_j) over the dependency neighborhood, and the log form ln delta_i
>= sum 2 delta_j P(A_j) under the hypothesis 0 < delta_i P(A_i) < 0.69.
The substitution gamma_i = delta_i P(A_i) turns any passing log-form
system into a passing general system, and both checkers report signed
margins rather than bare booleans.

The parameter pipeline picks (epsilon, f, gamma) for a girth ceiling k
so that gamma lands inside its window ((2-delta)/(4-epsilon),
2^(-(k-2)/(k-1-f))); the window exists for every k and shrinks toward
1/2 as k grows.
"""

from highgirth import (
    EventSystem,
    build_base_graph,
    check_bollobas_lll,
    check_general_lll,
    choose_parameters,
    enumerate_cycle_events,
    enumerate_independent_set_events,
    feasible_gamma_interval,
    measured_exponent_correction,
    recipe_multipliers,
    verify_exponent_condition,
    verify_sys1_finite,
)

# A symmetric toy system: three events of probability 0.1, each
# depending on the other two.  gamma = 0.2 clears the condition.
probs = [0.1, 0.1, 0.1]
neighbors = [[1, 2], [0, 2], [0, 1]]
report = check_general_lll(probs, neighbors, [0.2] * 3)
print("general check:", report.holds, " margins:", [round(m, 4) for m in report.margins])
print("P(no event) >=", report.product_bound)

# The log form on two mutually dependent events: delta = 1.2 is too
# small, delta = 2 passes and bounds P(no event) by 0.64.
for delta in (1.2, 2.0):
    rep = check_bollobas_lll([0.1, 0.1], [[1], [0]], [delta, delta])
    print(f"log-form with delta={delta}: holds={rep.holds}  bound={rep.product_bound:.3f}")

# The full two-line condition on a concretely enumerated system.  At
# n = 1 the asymptotic regime is far away: the subset events violate the
# 0.69 hypothesis and every margin is negative.  The report records it.
g4 = build_base_graph(1)
p, f = 0.05, 0.01
events = enumerate_independent_set_events(g4, 3, p) + enumerate_cycle_events(g4, 3, p)
system = EventSystem.from_events(events)
deltas = recipe_multipliers(system.events, p, f)
finite = verify_sys1_finite(system, p, f, deltas=deltas)
print(
    f"finite system at n=1: holds={finite.holds}, "
    f"{len(finite.hypothesis_violations)} hypothesis violations, "
    f"worst margin {min(finite.margins):.2f}"
)

# Cycle events alone are sparse enough to pass already at n = 1.
cycles_only = EventSystem.from_events(enumerate_cycle_events(g4, 3, p))
finite = verify_sys1_finite(cycles_only, p, f)
print(
    f"cycles-only system: holds={finite.holds}, "
    f"P(no short cycle) >= {finite.product_bound:.4f}"
)

# Parameter windows: endpoints for a hand-picked tuple, then the
# deterministic recipe for k = 3..6, rechecked through the window and
# the per-length exponent condition.
window = feasible_gamma_interval(3, 1.0, 0.1, 0.01)
print(f"window(k=3, eps=1, delta=0.1, f=0.01) = ({window.lower:.5f}, {window.upper:.5f})")
for k in range(3, 7):
    params = choose_parameters(k, 0.1)
    worst = max(verify_exponent_condition(s, params.f, params.gamma) for s in range(3, k + 1))
    print(
        f"k={k}: eps={params.epsilon:.4f} f={params.f:.4f} gamma={params.gamma:.4f} "
        f"l={params.l}  worst exponent {worst:.4f}"
    )

# How slack is the coarse cycle-on-cycle dependency bound at n = 1?
worst_nbhd = max(len(nb) for nb in cycles_only.neighbors)
print("measured exponent correction:", round(measured_exponent_correction(worst_nbhd, 1, 3), 4))
