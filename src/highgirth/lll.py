"""Local Lemma machinery: checkers, multiplier recipes, parameter windows.

Two checker styles are supported.  The general style takes multipliers
``gamma_i`` in (0,1) and verifies ``P(A_i) <= gamma_i * prod_{j in J(i)}
(1 - gamma_j)``.  The log-form (Bollobas) style takes multipliers
``delta_i > 0`` with ``0 < delta_i P(A_i) < 0.69`` and verifies ``ln
delta_i >= sum_{j in J(i)} 2 delta_j P(A_j)``; substituting ``gamma_i =
delta_i P(A_i)`` reduces it to the general style, and
``bollobas_implies_general`` checks that reduction numerically.

All comparisons report signed margins (condition LHS minus RHS) and accept
a margin down to ``-DEFAULT_TOL``, a fixed absolute tolerance, so boundary
cases stay visible.

Every neighbour sum or product goes through one kernel, ``_gather``, over
a per-event column computed once.  ``sum`` and ``math.prod`` fold it left
to right on Python 3.11, as the former pair-by-pair loops did, so every
margin stays the same float, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Sequence

from .model import KIND_CYCLE, KIND_INDEPENDENT_SET, EventSystem

#: Absolute tolerance on condition margins.
DEFAULT_TOL = 1e-12

#: The log-form hypothesis requires delta_i * P(A_i) below this constant.
HYPOTHESIS_CAP = 0.69


class InfeasibleParameters(ValueError):
    """No parameter choice satisfies the requested window."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one checker run over an event system."""

    style: str
    holds: bool
    margins: list[float]  # per event: condition LHS - RHS
    product_bound: float  # lower bound on P(no event) when holds
    hypothesis_violations: list[int]  # events breaking 0 < delta*P < 0.69

    def to_json(self) -> dict:
        return vars(self).copy()


def check_general_lll(
    probs: Sequence[float],
    neighbors: Sequence[Sequence[int]],
    gammas: Sequence[float],
) -> CheckReport:
    """Verify the general local-lemma condition for every event.

    Margin for event i: ``gamma_i * prod_{j in J(i)} (1 - gamma_j) -
    P(A_i)``.  When all margins clear ``-DEFAULT_TOL`` the product
    ``prod (1 - gamma_i)`` lower-bounds the probability that no event
    occurs.
    """
    _check_lengths(probs, neighbors, gammas)
    for i, g in enumerate(gammas):
        if not 0 < g < 1:
            raise ValueError(f"gamma[{i}] = {g} outside (0, 1)")
    complements = [1 - g for g in gammas]
    margins = [
        math.prod(factors, start=g) - p
        for g, p, factors in zip(gammas, probs, _gather(complements, neighbors))
    ]
    return CheckReport(
        style="general",
        holds=all(m >= -DEFAULT_TOL for m in margins),
        margins=margins,
        product_bound=math.prod(complements),
        hypothesis_violations=[],
    )


def check_bollobas_lll(
    probs: Sequence[float],
    neighbors: Sequence[Sequence[int]],
    deltas: Sequence[float],
) -> CheckReport:
    """Verify the log-form condition ``ln delta_i >= sum 2 delta_j P(A_j)``.

    Events violating the hypothesis ``0 < delta_i P(A_i) < 0.69`` are
    reported per index; the check cannot hold while any exist.  When it
    holds, ``prod (1 - delta_i P(A_i))`` bounds P(no event) from below.
    """
    _check_lengths(probs, neighbors, deltas)
    for i, d in enumerate(deltas):
        if d <= 0:
            raise ValueError(f"delta[{i}] = {d} must be positive")
        if not math.isfinite(d):
            raise ValueError(f"delta[{i}] = {d} must be finite")
    violations = _hypothesis_violations(deltas, probs)
    margins = _log_margins(deltas, probs, neighbors)
    bound = math.prod(1 - d * p for d, p in zip(deltas, probs))
    return CheckReport(
        style="bollobas",
        holds=not violations and all(m >= -DEFAULT_TOL for m in margins),
        margins=margins,
        product_bound=bound,
        hypothesis_violations=violations,
    )


def bollobas_implies_general(
    probs: Sequence[float],
    neighbors: Sequence[Sequence[int]],
    deltas: Sequence[float],
) -> bool:
    """Substitute ``gamma_i = delta_i P(A_i)`` and re-check the general form.

    For any system where the log-form condition holds with its hypothesis,
    this substitution must satisfy the general condition; returning False
    here exposes a checker bug rather than a property of the system.
    """
    gammas = [d * p for d, p in zip(deltas, probs)]
    if any(not 0 < g < 1 for g in gammas):
        return False
    return check_general_lll(probs, neighbors, gammas).holds


def _check_lengths(probs, neighbors, multipliers):
    if not len(probs) == len(neighbors) == len(multipliers):
        raise ValueError(
            f"mismatched lengths: {len(probs)} probabilities, "
            f"{len(neighbors)} neighborhoods, {len(multipliers)} multipliers"
        )
    for i, p in enumerate(probs):
        if not 0 <= p <= 1:
            raise ValueError(f"probability[{i}] = {p} outside [0, 1]")


def _gather(values, neighbors):
    """Per event i, ``values[j]`` for each neighbour j, in N(i) order."""
    get = values.__getitem__
    return (map(get, nbrs) for nbrs in neighbors)


def _log_margins(deltas, weights, neighbors) -> list[float]:
    """``ln delta_i - sum_{j in N(i)} 2 delta_j w_j`` for every event i."""
    terms = [2 * d * w for d, w in zip(deltas, weights)]
    return [math.log(d) - sum(t) for d, t in zip(deltas, _gather(terms, neighbors))]


def _hypothesis_violations(deltas, probs) -> list[int]:
    """Events breaking the log-form hypothesis ``0 < delta_i P(A_i) < 0.69``."""
    pairs = enumerate(zip(deltas, probs))
    return [i for i, (d, p) in pairs if not 0 < d * p < HYPOTHESIS_CAP]


@dataclass(frozen=True)
class DependencyBounds:
    """Closed-form upper bounds on dependency-neighborhood sizes.

    A subset event meets at most ``a * 2^{(s-2)4n}`` s-cycle events (each
    shared edge extends to an s-cycle in fewer than ``2^{(s-2)4n}`` ways);
    an s1-cycle event meets at most ``s1 * 2^{(s2-2)4n}`` s2-cycle events;
    and anything meets at most ``C(N, l)`` subset events.  Exact integers.
    """

    subset_on_cycles: dict[int, int]  # s -> bound, given the subset's edge count
    cycle_on_cycles: dict[tuple[int, int], int]  # (s1, s2) -> bound
    on_subsets: int  # C(N, l)


def dependency_count_bounds(n: int, k: int, l: int, a_i: int) -> DependencyBounds:
    """The coarse dependency-count bounds for quarter-dimension ``n``."""
    if n < 1 or k < 3 or l < 1 or a_i < 0:
        raise ValueError("parameters must be positive (a_i nonnegative)")
    dim = 4 * n
    subset_on_cycles = {s: a_i * 2 ** ((s - 2) * dim) for s in range(3, k + 1)}
    cycle_on_cycles = {
        (s1, s2): s1 * 2 ** ((s2 - 2) * dim)
        for s1 in range(3, k + 1)
        for s2 in range(3, k + 1)
    }
    return DependencyBounds(
        subset_on_cycles=subset_on_cycles,
        cycle_on_cycles=cycle_on_cycles,
        on_subsets=comb(comb(dim, 2 * n), l),
    )


def recipe_multipliers(events, p: float, f: float) -> list[float]:
    """The built-in multiplier recipe for an enumerated event list.

    Cycle events get ``e``; an independent-set event with ``a`` internal
    base edges gets ``exp(p^(1+f) * a)``.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    if f <= 0:
        raise ValueError(f"f must be positive, got {f}")
    if not math.isfinite(f):
        raise ValueError(f"f must be finite, got {f}")
    out = []
    for ev in events:
        if ev.kind == KIND_CYCLE:
            out.append(math.e)
        elif ev.kind == KIND_INDEPENDENT_SET:
            out.append(math.exp(p ** (1 + f) * len(ev.variable_set)))
        else:
            raise ValueError(f"unknown event kind {ev.kind!r}")
    return out


@dataclass(frozen=True)
class FiniteSystemReport:
    """Exact evaluation of the two-line multiplier condition on a system.

    For event i with multiplier ``delta_i`` the condition is::

        ln delta_i >= 2 sum_{j subset-neighbor} delta_j exp(-p a_j)
                    + 2 sum_{j cycle-neighbor} delta_j p^{s_j}

    computed with actual edge counts and actual neighborhoods.  The
    subset term uses the bound ``exp(-p a_j) >= (1 - p)^{a_j}``, so
    nonnegative margins imply the log-form condition on the exact
    probabilities, which ``log_form`` then re-checks directly.
    """

    margins: list[float]
    holds: bool
    infeasible: bool  # unavoidable probability-1 events present
    hypothesis_violations: list[int]
    log_form: CheckReport | None  # direct log-form check, exact probabilities

    @property
    def product_bound(self) -> float | None:
        if self.log_form is not None and self.log_form.holds:
            return self.log_form.product_bound
        return None

    def to_json(self) -> dict:
        doc = vars(self).copy()
        doc["log_form"] = None if self.log_form is None else self.log_form.to_json()
        doc["product_bound"] = self.product_bound
        return doc


def verify_sys1_finite(
    system: EventSystem,
    p: float,
    f: float,
    deltas: Sequence[float] | None = None,
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
    weights = [  # exp(-p a_j) for a subset event, p^s_j for an s-cycle
        math.exp(-p * len(ev.variable_set)) if ev.kind == KIND_INDEPENDENT_SET
        else p**ev.meta
        for ev in system.events
    ]
    # one neighbourhood read per event: bench/test_bench.py counts them
    neighbors = (system.neighbors[i] for i in range(len(deltas)))
    margins = _log_margins(deltas, weights, neighbors)
    probs = system.probabilities
    violations = _hypothesis_violations(deltas, probs)
    infeasible = not system.feasible
    holds = (
        not infeasible and not violations
        and all(m >= -DEFAULT_TOL for m in margins)
    )
    log_form = None
    if not infeasible and system.events:
        log_form = check_bollobas_lll(probs, system.neighbors, deltas)
    return FiniteSystemReport(
        margins=margins,
        holds=holds,
        infeasible=infeasible,
        hypothesis_violations=violations,
        log_form=log_form,
    )


def measured_exponent_correction(actual_count: int, n: int, s: int) -> float:
    """How far an observed cycle-on-cycle neighborhood is from its bound.

    The coarse bound says an s-cycle event meets about ``2^{4n(s-2)}``
    others; this returns ``log2(actual) / (4n(s-2)) - 1``, the relative
    correction to that exponent at finite n.  Diagnostics only; negative
    values mean the bound is slack.
    """
    if actual_count < 1:
        raise ValueError(f"actual count must be >= 1, got {actual_count}")
    if n < 1 or s < 3:
        raise ValueError("need n >= 1 and s >= 3")
    return math.log2(actual_count) / (4 * n * (s - 2)) - 1


def _check_delta(delta: float) -> None:
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")


@dataclass(frozen=True)
class GammaInterval:
    """The open window for the edge-probability base gamma."""

    lower: float  # (2 - delta) / (4 - epsilon)
    upper: float  # 2^(-(k-2)/(k-1-f))
    nonempty: bool


def feasible_gamma_interval(
    k: int, epsilon: float, delta: float, f: float
) -> GammaInterval:
    """Endpoints of the gamma window for the given (k, epsilon, delta, f).

    The lower endpoint makes the subset-event sums vanish; the upper
    endpoint keeps every cycle-length exponent negative.  Endpoints are
    returned raw (the lower one may be negative or exceed 1).
    """
    if k < 3:
        raise ValueError(f"cycle ceiling k must be >= 3, got {k}")
    if not 0 < epsilon < 4:
        raise ValueError(f"epsilon must lie in (0, 4), got {epsilon}")
    _check_delta(delta)
    if not 0 < f < k - 1:
        raise ValueError(f"f must lie in (0, {k - 1}), got {f}")
    lower = (2 - delta) / (4 - epsilon)
    upper = 2 ** (-(k - 2) / (k - 1 - f))
    return GammaInterval(lower=lower, upper=upper, nonempty=lower < upper)


def verify_exponent_condition(s: int, f: float, gamma: float) -> float:
    """Value of ``s - 2 + (s - 1 - f) log2 gamma``; negative certifies s.

    Negativity for all s = 3..k makes every cycle-length term vanish
    asymptotically; zero marks the window boundary.
    """
    if s < 3:
        raise ValueError(f"cycle length must be >= 3, got {s}")
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return s - 2 + (s - 1 - f) * math.log2(gamma)


@dataclass(frozen=True)
class LLLParameters:
    """A full parameter tuple (k, n, epsilon, delta, f, gamma, l).

    Valid when gamma sits strictly inside its window: above
    ``(2 - delta)/(4 - epsilon)`` and below ``2^(-(k-2)/(k-1-f))``,
    with ``0 < f < k - 1``.
    """

    k: int
    n: int
    epsilon: float
    delta: float
    f: float
    gamma: float
    l: int

    @property
    def p(self) -> float:
        return self.gamma ** (4 * self.n)

    def interval(self) -> GammaInterval:
        return feasible_gamma_interval(self.k, self.epsilon, self.delta, self.f)

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"quarter-dimension must be >= 1, got {self.n}")
        if self.l < 1:
            raise ValueError(f"subset size l must be >= 1, got {self.l}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        window = self.interval()  # validates k, epsilon, delta, f
        if not self.gamma > window.lower:
            raise ValueError(
                f"gamma = {self.gamma} not above the lower endpoint {window.lower}"
            )
        if not self.gamma < window.upper:
            raise ValueError(
                f"gamma = {self.gamma} not below the upper endpoint {window.upper}"
            )

    def to_json(self) -> dict:
        window = self.interval()
        return {**vars(self), "p": self.p, "gamma_window": [window.lower, window.upper]}


def choose_parameters(k: int, delta: float, n: int = 1) -> LLLParameters:
    """Deterministic parameter selection for a given (k, delta).

    Order: epsilon is the midpoint of the range where ``2/(4 - epsilon)``
    stays below ``2^(-(k-2)/(k-1))``; f is half the largest value keeping
    the gamma window nonempty; gamma is the midpoint of the window
    (clamped below at 0); l rounds ``(2 - delta)^(4n)`` up.  The output
    always re-validates.
    """
    if k < 3:
        raise ValueError(f"cycle ceiling k must be >= 3, got {k}")
    _check_delta(delta)
    if n < 1:
        raise ValueError(f"quarter-dimension must be >= 1, got {n}")
    eps_max = 4 - 2 ** ((2 * k - 3) / (k - 1))
    if eps_max <= 0:
        raise InfeasibleParameters(
            f"no epsilon makes 2/(4 - epsilon) < 2^(-(k-2)/(k-1)) for k = {k}"
        )
    epsilon = eps_max / 2
    lower = (2 - delta) / (4 - epsilon)
    if lower <= 0:
        f_max = float(k - 1)
    else:
        # largest f with lower < 2^(-(k-2)/(k-1-f))
        f_max = min((k - 1) - (k - 2) / -math.log2(lower), float(k - 1))
    if f_max <= 0:
        raise InfeasibleParameters(
            f"gamma window empty for every f > 0 at k = {k}, delta = {delta}"
        )
    f = f_max / 2
    window = feasible_gamma_interval(k, epsilon, delta, f)
    if not window.nonempty:
        raise InfeasibleParameters(
            f"gamma window ({window.lower}, {window.upper}) is empty "
            f"at k = {k}, delta = {delta}"
        )
    gamma = (max(window.lower, 0.0) + window.upper) / 2
    l = max(math.ceil((2 - delta) ** (4 * n)), 1) if delta < 2 else 1
    params = LLLParameters(
        k=k, n=n, epsilon=epsilon, delta=delta, f=f, gamma=gamma, l=l
    )
    params.validate()
    return params
