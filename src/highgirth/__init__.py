"""Distance graphs with large girth and large chromatic number.

Builds the base distance graphs on balanced 0/1 vectors, samples random
spanning subgraphs, verifies Local Lemma conditions numerically on the
enumerated bad-event systems, searches constructively for subgraphs with
girth above a ceiling and bounded independence number, and certifies the
resulting chromatic lower bounds.
"""

__version__ = "0.1.0"

from .graphs import (
    BaseGraph,
    BitVertex,
    CountSummary,
    EdgeSubset,
    Graph,
    MetricError,
    SizeGuardError,
    build_base_graph,
    count_formulas,
    embed_codimension,
    scalar_product,
    verify_unit_distance,
)
from .solvers import (
    CycleCount,
    FamilyReduction,
    ForestError,
    RatioBound,
    SolveBudget,
    SolveResult,
    chromatic_lower_bound_ratio,
    chromatic_number,
    count_cycles,
    edges_within,
    family_girth_reduction,
    girth,
    independence_number,
    min_edges_over_subsets,
)
from .model import (
    EventSpec,
    EventSystem,
    ModelParams,
    build_event_system,
    cycle_blocks,
    derive_seed,
    enumerate_cycle_events,
    enumerate_independent_set_events,
    log_probability,
    sample_subgraph,
)
from .lll import (
    CheckReport,
    DependencyBounds,
    FiniteSystemReport,
    GammaInterval,
    InfeasibleParameters,
    LLLParameters,
    bollobas_implies_general,
    check_bollobas_lll,
    check_general_lll,
    choose_parameters,
    dependency_count_bounds,
    feasible_gamma_interval,
    measured_exponent_correction,
    recipe_multipliers,
    verify_exponent_condition,
    verify_sys1_finite,
)
from .search import (
    CertificationError,
    GirthCertificate,
    SearchFailure,
    certify,
    deletion_method,
    moser_tardos_search,
    recheck_certificate,
)

__all__ = [
    "__version__",
    # graphs
    "BaseGraph", "BitVertex", "CountSummary", "EdgeSubset", "Graph",
    "MetricError", "SizeGuardError", "build_base_graph", "count_formulas",
    "embed_codimension", "scalar_product", "verify_unit_distance",
    # solvers
    "CycleCount", "FamilyReduction", "ForestError", "RatioBound",
    "SolveBudget", "SolveResult", "chromatic_lower_bound_ratio",
    "chromatic_number", "count_cycles", "edges_within",
    "family_girth_reduction", "girth", "independence_number",
    "min_edges_over_subsets",
    # model
    "EventSpec", "EventSystem", "ModelParams", "build_event_system",
    "cycle_blocks",
    "derive_seed", "enumerate_cycle_events",
    "enumerate_independent_set_events", "log_probability", "sample_subgraph",
    # lll
    "CheckReport", "DependencyBounds", "FiniteSystemReport", "GammaInterval",
    "InfeasibleParameters", "LLLParameters",
    "bollobas_implies_general", "check_bollobas_lll", "check_general_lll",
    "choose_parameters", "dependency_count_bounds",
    "feasible_gamma_interval", "measured_exponent_correction",
    "recipe_multipliers",
    "verify_exponent_condition", "verify_sys1_finite",
    # search
    "CertificationError", "GirthCertificate", "SearchFailure", "certify",
    "deletion_method", "moser_tardos_search", "recheck_certificate",
]
