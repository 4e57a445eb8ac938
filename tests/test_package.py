"""The package's public surface: what ``highgirth`` exports, and what it no longer has."""

import inspect

import highgirth
from highgirth import lll, solvers


def test_every_exported_name_resolves_once():
    assert len(highgirth.__all__) == len(set(highgirth.__all__))
    for name in highgirth.__all__:
        assert hasattr(highgirth, name), name


def test_removed_names_and_parameters_are_gone():
    for name in ("LLLAssignment", "cycle_hypothesis_first_n"):
        assert name not in highgirth.__all__
        assert not hasattr(highgirth, name) and not hasattr(lll, name)
    assert not hasattr(highgirth.EdgeSubset, "contains")
    assert not hasattr(highgirth.LLLParameters, "is_valid")
    assert not hasattr(solvers, "_min_edges_local_search")
    assert list(inspect.signature(solvers.min_edges_over_subsets).parameters) == ["view", "l"]
    for check in (lll.check_general_lll, lll.check_bollobas_lll,
                  lll.bollobas_implies_general, lll.verify_sys1_finite):
        assert "tol" not in inspect.signature(check).parameters, check.__name__
