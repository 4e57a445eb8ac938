import io
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highgirth import (
    CertificationError,
    EdgeSubset,
    GirthCertificate,
    ModelParams,
    SearchFailure,
    SizeGuardError,
    SolveBudget,
    certify,
    deletion_method,
    girth,
    independence_number,
    moser_tardos_search,
    recheck_certificate,
    sample_subgraph,
)
from highgirth import model
from highgirth.dimacs import dump_json

import oracles


def _json_bytes(doc):
    buf = io.StringIO()
    dump_json(doc, buf)
    return buf.getvalue().encode()


# --- certify ----------------------------------------------------------------


def test_certify_rejects_oversized_independent_set(g4):
    with pytest.raises(CertificationError) as err:
        certify(EdgeSubset.empty(g4), k=3, l=2)
    assert "exceeds the bound" in str(err.value)
    assert sorted(err.value.witness) == list(range(6))


def test_certify_accepts_full_g4_at_k2(g4):
    cert = certify(EdgeSubset.full(g4), k=2, l=2)
    assert cert.girth == 3
    assert cert.alpha == 2 and cert.alpha_exact
    assert cert.chi_lower == 3
    assert cert.empirical_rate == pytest.approx(3**0.25)
    assert recheck_certificate(cert, g4) == []


def test_certify_rejects_short_cycle(g4):
    with pytest.raises(CertificationError) as err:
        certify(EdgeSubset.full(g4), k=3, l=2)
    assert "girth" in str(err.value)
    assert len(err.value.witness) == 3  # a triangle


def test_certify_refuses_inexact_alpha(g8):
    sub = sample_subgraph(g8, ModelParams(n=2, p_override=0.05, seed=1))
    with pytest.raises(CertificationError, match="budget"):
        certify(sub, k=0, l=70, alpha_budget=SolveBudget(node_limit=1))


def test_certify_argument_validation(g4):
    with pytest.raises(ValueError):
        certify(EdgeSubset.full(g4), k=-1, l=2)
    with pytest.raises(ValueError):
        certify(EdgeSubset.full(g4), k=2, l=0)


def test_searches_refuse_a_negative_ceiling_before_drawing(g4, monkeypatch):
    from highgirth import search

    def no_draw(*args):
        raise AssertionError("a negative k reached the draw or an enumeration")

    monkeypatch.setattr(search, "_draw", no_draw)
    monkeypatch.setattr(search, "sample_subgraph", no_draw)
    monkeypatch.setattr(model, "enumerate_independent_set_events", no_draw)
    params = ModelParams(n=1, p_override=0.5, seed=0)
    message = "forbidden-cycle ceiling must be >= 0, got -1"
    with pytest.raises(ValueError, match=message):
        deletion_method(g4, params, k=-1)
    with pytest.raises(ValueError, match=message):
        moser_tardos_search(g4, params, k=-1, l=3)
    with pytest.raises(ValueError, match=message):
        model.build_event_system(g4, -1, 3, 0.5)
    with pytest.raises(ValueError, match=message):
        certify(EdgeSubset.full(g4), k=-1, l=2)


# --- deletion method ----------------------------------------------------------


def test_deletion_from_full_graph(g4):
    cert = deletion_method(g4, ModelParams(n=1, p_override=1.0, seed=0), k=3)
    assert cert.girth > 3
    assert recheck_certificate(cert, g4) == []


def test_deletion_on_empty_sample(g4):
    cert = deletion_method(g4, ModelParams(n=1, p_override=0.0, seed=0), k=3)
    assert cert.girth == math.inf
    assert cert.alpha == 6  # edgeless spanning subgraph
    assert cert.edge_mask_hex == "000"


def test_deletion_is_deterministic(g4):
    params = ModelParams(n=1, p_override=0.6, seed=11)
    a = deletion_method(g4, params, k=3)
    b = deletion_method(g4, params, k=3)
    assert _json_bytes(a.to_json()) == _json_bytes(b.to_json())


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_deletion_guarantee_on_g4(g4, k):
    for seed in range(100):
        cert = deletion_method(g4, ModelParams(n=1, p_override=0.7, seed=seed), k=k)
        assert cert.girth > k
        sub = cert.subgraph(g4)
        assert girth(sub).value > k


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_deletion_guarantee_on_g8(g8, k):
    for seed in range(25):
        cert = deletion_method(g8, ModelParams(n=2, p_override=0.4, seed=seed), k=k)
        assert cert.girth > k
    assert recheck_certificate(cert, g8) == []


@pytest.mark.parametrize("k,p", [(4, 0.004), (5, 0.004), (6, 0.003)])
def test_deletion_guarantee_on_g12(g12, k, p):
    for seed in range(3):
        cert = deletion_method(g12, ModelParams(n=3, p_override=p, seed=seed), k=k)
        assert cert.girth > k
        assert cert.alpha_exact
        assert cert.chi_lower == -(-924 // cert.l)


def test_deletion_removed_edges_were_necessary(g4):
    # deletion only ever removes edges, so the output mask is a submask
    params = ModelParams(n=1, p_override=0.8, seed=3)
    sampled = sample_subgraph(g4, params)
    cert = deletion_method(g4, params, k=3)
    final = cert.subgraph(g4)
    assert final.mask & ~sampled.mask == 0


def assert_deletion_matches_the_former_search(g, p, k, seeds, budget=None):
    for seed in seeds:
        params = ModelParams(n=g.n, p_override=p, seed=seed)
        got = deletion_method(g, params, k, alpha_budget=budget)
        expected = oracles.deletion_method(g, params, k, alpha_budget=budget)
        assert _json_bytes(got.to_json()) == _json_bytes(expected.to_json())


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
def test_deletion_matches_the_former_search_on_g4(g4, p, k):
    assert_deletion_matches_the_former_search(g4, p, k, range(10))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [0.4, 0.5, 1.0])
def test_deletion_matches_the_former_search_on_g8(g8, p, k):
    assert_deletion_matches_the_former_search(g8, p, k, range(3))


@pytest.mark.parametrize("k,p", [(4, 0.006), (4, 0.01), (6, 0.012)])
def test_deletion_matches_the_former_search_on_g12(g12, k, p):
    # the budget keeps the failing alpha solves (p = 0.01, 0.012) short
    assert_deletion_matches_the_former_search(g12, p, k, range(3), SolveBudget(node_limit=1000))


def test_deletion_matches_the_former_search_root_by_root(g8, monkeypatch):
    # at guard 400 the open paths of all roots at once do not fit, so the
    # kept graph's cycles are listed one root at a time
    roots = []
    root_paths = model._PathKernel.root_paths
    monkeypatch.setattr(model._PathKernel, "root_paths",
                        lambda self, s, root: roots.append(root) or root_paths(self, s, root))
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 400)
    assert_deletion_matches_the_former_search(g8, 0.5, 5, range(10))
    assert roots


# --- Moser-Tardos --------------------------------------------------------------


def test_mt_finds_triangle_free_subgraph(g4):
    out = moser_tardos_search(
        g4, ModelParams(n=1, p_override=0.3, seed=7), k=3, l=6
    )
    assert isinstance(out, GirthCertificate)
    assert out.girth > 3
    assert recheck_certificate(out, g4) == []


def test_mt_zero_probability_needs_no_resamples(g4):
    out = moser_tardos_search(
        g4,
        ModelParams(n=1, p_override=0.0, seed=9),
        k=3,
        l=7,  # above the vertex count: no subset events exist
        max_resamples=0,
    )
    assert isinstance(out, GirthCertificate)
    assert out.girth == math.inf
    assert out.edge_mask_hex == "000"


def test_mt_reports_infeasible_subset_events(g4):
    out = moser_tardos_search(
        g4, ModelParams(n=1, p_override=0.5, seed=1), k=3, l=2
    )
    assert isinstance(out, SearchFailure)
    assert "no base edge" in out.reason
    assert out.witness is not None


def test_mt_budget_exhaustion_reports_statistics(g4):
    out = moser_tardos_search(
        g4,
        ModelParams(n=1, p_override=0.99, seed=2),
        k=3,
        l=6,
        max_resamples=1,
    )
    assert isinstance(out, SearchFailure)
    assert "budget" in out.reason
    assert out.resamples == 1
    assert len(out.violated_history) == 2
    assert out.violated_history[0] > 0


def test_mt_refuses_a_negative_budget(g4):
    with pytest.raises(ValueError, match="resample budget must be >= 0, got -1"):
        moser_tardos_search(g4, ModelParams(n=1, p_override=0.5), k=3, l=4, max_resamples=-1)


def test_mt_refuses_params_for_another_n(g4):
    with pytest.raises(ValueError, match="params built for n=2, graph has n=1"):
        moser_tardos_search(g4, ModelParams(n=2, p_override=0.5), k=3, l=4)


class _FirstRound(Exception):
    pass


@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_mt_first_round_sees_exactly_the_sampled_edges(g4, g8, monkeypatch, seed):
    from highgirth import search

    seen = []

    def first_round(g, k, kept=None):
        seen.append(kept.copy())
        raise _FirstRound

    monkeypatch.setattr(search, "cycle_blocks", first_round)
    for g in (g4, g8):
        params = ModelParams(n=g.n, p_override=0.3, seed=seed)
        with pytest.raises(_FirstRound):
            moser_tardos_search(g, params, k=4, l=g.num_vertices + 1)
        assert seen[-1].dtype == bool and len(seen[-1]) == g.num_edges
        assert EdgeSubset.from_kept(g, seen[-1]).mask == sample_subgraph(g, params).mask


def test_mt_respects_subset_guard(g8, monkeypatch):
    monkeypatch.setattr(model, "EVENT_ENUMERATION_GUARD", 100)
    out = moser_tardos_search(
        g8,
        ModelParams(n=2, p_override=0.1, seed=0),
        k=3,
        l=10,
        subset_events=True,
    )
    assert isinstance(out, SearchFailure)
    assert "guard" in out.reason


def test_mt_subset_event_policy(g4, g8, monkeypatch):
    # which l reaches the subset enumerator: subset events come only when
    # allowed, l <= N and C(N, l) fits the guard
    import highgirth.search as search

    calls = []
    real = search.enumerate_independent_set_events

    def spy(g, l, p):
        calls.append(l)
        return real(g, l, p)

    def subset_l(g, params, l, mode="auto"):
        calls.clear()
        moser_tardos_search(g, params, k=3, l=l, subset_events=mode, max_resamples=0)
        return calls[0] if calls else None

    monkeypatch.setattr(search, "enumerate_independent_set_events", spy)
    p4 = ModelParams(n=1, p_override=0.3, seed=1)
    seen = [subset_l(g4, p4, 7, mode) for mode in ("auto", True, False)]
    seen += [subset_l(g4, p4, 4, mode) for mode in ("auto", True, False)]
    # C(70, 10) is over the enumeration guard
    seen.append(subset_l(g8, ModelParams(n=2, p_override=0.1, seed=0), 10))
    assert seen == [None, None, None, 4, 4, None, None]


def test_mt_is_deterministic(g4):
    params = ModelParams(n=1, p_override=0.3, seed=21)
    a = moser_tardos_search(g4, params, k=3, l=6)
    b = moser_tardos_search(g4, params, k=3, l=6)
    assert isinstance(a, GirthCertificate)
    assert _json_bytes(a.to_json()) == _json_bytes(b.to_json())


def test_mt_with_subset_events_bounds_alpha(g4):
    # l = 4 is the smallest feasible bound here: by Ramsey R(3,3) = 6 no
    # 6-vertex graph is simultaneously triangle-free and free of
    # independent triples, so l = 3 with k = 3 has no solution at all
    hit = None
    for seed in range(40):
        out = moser_tardos_search(
            g4,
            ModelParams(n=1, p_override=0.5, seed=seed),
            k=3,
            l=4,
            subset_events=True,
            max_resamples=500,
        )
        if isinstance(out, GirthCertificate):
            hit = out
            break
    assert hit is not None, "no seed produced a certificate"
    assert hit.alpha < 4  # no independent 4-subset survived
    assert hit.girth > 3
    assert recheck_certificate(hit, g4) == []


def test_mt_on_g8_with_both_cycle_lengths(g8):
    # k = 4 enumerates all 7560 triangles and 193095 quadrilaterals of the
    # base graph; at p = 0.05 only a couple start violated, so the search
    # settles fast and the certificate pins the exact independence number
    out = moser_tardos_search(
        g8,
        ModelParams(n=2, p_override=0.05, seed=5),
        k=4,
        l=70,
        subset_events=False,
    )
    assert isinstance(out, GirthCertificate)
    assert out.girth > 4
    assert out.alpha_exact
    assert recheck_certificate(out, g8) == []


# edge_mask_hex of moser_tardos_search(g8, p, seed, k=4, l=50) as recorded
# by an event-at-a-time EventSpec.occurs scan: the draw order, and so the
# mask, must not depend on how the violated events are found
G8_MT_MASKS = {
    (0.06, 1): (
        "0028002000400040000800802400000000000000000002000000000000040000"
        "020000000080000000000800010000000400a000120100822010000002000080"
        "0000000000700000000000000000000420000000000000000000400000000200"
        "0480000040000000008200000000000028000000088002000081000000100008"
        "01001000004010100000000000000000000200008002000001000000200"
    ),
    (0.06, 2): (
        "0800080000000400008002000000008000000000000140080501000801000200"
        "0000580000020000000000100000000000000200000300000000000000000000"
        "0000000000040000000800000000000004000000000000000000000080000001"
        "0000040000805004000080000014000000000400010000000000010420400000"
        "40000800010080000000000202000200402204100000000000000000080"
    ),
    (0.06, 3): (
        "0084000000008000200040000100200000000000200000200200010000001000"
        "0000000000000282000000000000204008000000440208000400000004200200"
        "0004000000010000000102004080020010800020000400000120900000010000"
        "0000908480280008140000000003000000000000001101100000100000400000"
        "00200000400040000410000000000000100020004000000000000000000"
    ),
    (0.15, 1): (
        "8002000000000041000801882400800000000010080000014000000000000800"
        "004001020000000000000804000000000400a000200120922010200000110000"
        "1020000200600000000000020404000460002000000000300000020040001200"
        "0002000000001400000400000200000028000020280000000001048448000050"
        "00001000000000100000420900000000001202008000000001080000000"
    ),
    (0.15, 2): (
        "080680002109004220885600000000a000010001000140000401000c01000200"
        "0010480240020000000000100020000000000200000200000400402000000008"
        "8000000400280400000804000000000006000000480002400000000088040010"
        "40000c0800024004040190800014000000080450010200000200000420000000"
        "02000800010000000000810002001000006020100050000000020000000"
    ),
    (0.15, 3): (
        "0080000220868040200200002020000000002000200000201304000020002000"
        "0004000000000002010200000400a8400000440044020a000600000014010202"
        "008000240200c000100102004000000810800010814410000000040000200000"
        "0000100004000000080000004000000000100000001100100000100000600004"
        "00000c00400000000c00000020000000108000114000008800090000000"
    ),
}


@pytest.mark.parametrize("p,seed", sorted(G8_MT_MASKS))
def test_mt_g8_certificates_are_pinned(g8, p, seed):
    out = moser_tardos_search(g8, ModelParams(n=2, p_override=p, seed=seed), k=4, l=50)
    assert isinstance(out, GirthCertificate)
    assert out.edge_mask_hex == G8_MT_MASKS[(p, seed)]


def test_mt_g8_budget_exhaustion_is_pinned(g8):
    out = moser_tardos_search(
        g8, ModelParams(n=2, p_override=0.15, seed=5), k=4, l=50, max_resamples=12
    )
    assert isinstance(out, SearchFailure)
    assert out.resamples == 12
    assert out.violated_history == (
        149, 144, 135, 133, 127, 121, 118, 116, 111, 107, 89, 82, 77,
    )


def test_mt_refuses_oversized_cycle_systems(g12):
    # G_12 has 10.1M triangles: refused after a few roots
    with pytest.raises(SizeGuardError, match="guard 500000"):
        moser_tardos_search(g12, ModelParams(n=3, p_override=0.1, seed=0), k=3, l=50)


def mt_outcome(search_fn, *args, **kwargs):
    try:
        return _json_bytes(search_fn(*args, **kwargs).to_json())
    except SizeGuardError as exc:
        return f"SizeGuardError: {exc}"


@given(
    data=st.data(),
    on_g8=st.booleans(),
    k=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
    subset_events=st.sampled_from(["auto", True, False]),
)
@settings(max_examples=60, deadline=None)
def test_mt_matches_the_base_rescan_oracle(g4, g8, data, on_g8, k, seed, subset_events):
    # G_8 at k = 5 passes the cycle guard: both raise the same error; the
    # small budgets make resample-budget failures common
    if on_g8:
        g, n = g8, 2
        l = data.draw(st.sampled_from([3, 40, 50, 60, 80]), label="l")
        p = data.draw(st.sampled_from([0.02, 0.06, 0.15, 0.3]), label="p")
        budget = data.draw(st.integers(min_value=0, max_value=15), label="max_resamples")
    else:
        g, n = g4, 1
        l = data.draw(st.integers(min_value=2, max_value=7), label="l")
        p = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.8, 0.99]), label="p")
        budget = data.draw(
            st.none() | st.integers(min_value=0, max_value=30), label="max_resamples"
        )
    params = ModelParams(n=n, p_override=p, seed=seed)
    args = (g, params, k, l)
    kwargs = dict(max_resamples=budget, subset_events=subset_events)
    assert mt_outcome(moser_tardos_search, *args, **kwargs) == mt_outcome(
        oracles.moser_tardos_search, *args, **kwargs
    )


def test_mt_termination_regression(g4):
    # cycle events only at p = 0.3: at least 95 of 100 seeds certify within
    # the default budget of 10 resamples per event
    wins = 0
    for seed in range(100):
        out = moser_tardos_search(
            g4,
            ModelParams(n=1, p_override=0.3, seed=seed),
            k=3,
            l=6,
            subset_events=False,
        )
        wins += isinstance(out, GirthCertificate)
    assert wins >= 95


# --- certificates ----------------------------------------------------------------


def test_certificate_json_round_trip(g4):
    cert = deletion_method(g4, ModelParams(n=1, p_override=0.9, seed=5), k=3)
    doc = cert.to_json()
    back = GirthCertificate.from_json(doc)
    assert back == cert
    assert doc["gamma_or_p"] == {"p": 0.9}
    assert set(doc) == {
        "n", "k", "l", "alpha", "alpha_exact", "chi_lower", "empirical_rate",
        "girth", "seed", "gamma_or_p", "edge_mask_hex", "solver_versions",
    }


def test_certificate_reproduces_subgraph_bytes(g4):
    params = ModelParams(n=1, gamma=0.85, seed=77)
    cert = deletion_method(g4, params, k=3)
    resampled = sample_subgraph(g4, params)
    # the certificate's mask must be reproducible from (seed, params):
    # rerunning the whole pipeline gives the identical mask
    again = deletion_method(g4, params, k=3)
    assert again.edge_mask_hex == cert.edge_mask_hex
    # and the recorded mask is a submask of the seeded sample
    assert cert.subgraph(g4).mask & ~resampled.mask == 0


def test_recheck_flags_tampering(g4):
    cert = certify(EdgeSubset.full(g4), k=2, l=2)
    tampered = replace(cert, chi_lower=17)
    assert any("chi_lower" in p for p in recheck_certificate(tampered, g4))
    tampered = replace(cert, alpha=1)
    assert any("alpha" in p for p in recheck_certificate(tampered, g4))
    tampered = replace(cert, k=5)
    assert any("not above" in p for p in recheck_certificate(tampered, g4))
    tampered = replace(cert, alpha_exact=False)
    assert recheck_certificate(tampered, g4) == [
        "alpha_exact recomputes to True, certificate says False"
    ]
    tampered = replace(cert, girth=7)
    assert recheck_certificate(tampered, g4) == [
        "girth recomputes to 3, certificate says 7"
    ]
    tampered = replace(cert, empirical_rate=cert.empirical_rate * (1 + 1e-9))
    assert any("empirical_rate" in p for p in recheck_certificate(tampered, g4))


def test_recheck_with_an_exhausted_budget_never_confirms(g12):
    # forged on a mask of girth above 4 whose alpha needs more than one node
    cert = deletion_method(
        g12, ModelParams(n=3, p_override=0.006, seed=3), k=4,
        alpha_budget=SolveBudget(node_limit=1000),
    )
    forged = replace(cert, l=2, alpha=2, chi_lower=462, empirical_rate=462 ** (1 / 12))
    problems = recheck_certificate(forged, g12, SolveBudget(node_limit=1))
    assert any("exhausted its budget" in p for p in problems)


def test_recheck_refuses_a_short_girth_before_solving_alpha(g12):
    # the full G_12 is dense: an unbudgeted alpha solve on it would not end
    forged = GirthCertificate(
        n=3, k=4, l=2, alpha=2, alpha_exact=True, chi_lower=462,
        empirical_rate=462 ** (1 / 12), girth=5,
        edge_mask_hex=EdgeSubset.full(g12).mask_hex(),
    )
    assert recheck_certificate(forged, g12) == ["girth 3 is not above 4"]


def test_recheck_reruns_certify_once(g4, monkeypatch):
    import highgirth.search as search_module

    cert = certify(EdgeSubset.full(g4), k=2, l=2)
    calls = _call_counter(monkeypatch, search_module, "certify")
    assert recheck_certificate(cert, g4) == []
    assert calls == ["certify"]


def test_recheck_budget_on_a_genuine_certificate(g12):
    cert = deletion_method(
        g12, ModelParams(n=3, p_override=0.006, seed=3), k=4,
        alpha_budget=SolveBudget(node_limit=1000),
    )
    assert recheck_certificate(cert, g12, SolveBudget(node_limit=1000)) == []
    problems = recheck_certificate(cert, g12, SolveBudget(node_limit=1))
    assert len(problems) == 1 and "exhausted its budget" in problems[0]


def _call_counter(monkeypatch, owner, name):
    calls = []
    wrapped = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_deletion_solves_alpha_once_and_converts_once(g12, monkeypatch):
    import highgirth.search as search_module

    params = ModelParams(n=3, p_override=0.006, seed=3)
    budget = SolveBudget(node_limit=1000)
    expected = deletion_method(g12, params, k=4, alpha_budget=budget)
    solves = _call_counter(monkeypatch, search_module, "independence_number")
    conversions = _call_counter(monkeypatch, EdgeSubset, "to_graph")
    cert = deletion_method(g12, params, k=4, alpha_budget=budget)
    assert cert == expected
    assert len(solves) == 1 and len(conversions) == 1
    # the single solve certifies exactly what certify would
    assert cert == certify(
        cert.subgraph(g12), 4, cert.l, alpha_budget=budget,
        seed=params.seed, gamma=params.gamma, p=params.p,
    )


def test_certify_converts_the_subset_once(g8, monkeypatch):
    conversions = _call_counter(monkeypatch, EdgeSubset, "to_graph")
    certify(EdgeSubset.full(g8), k=2, l=70)
    assert len(conversions) == 1


def test_deletion_budget_failure_reason(g12):
    failure = deletion_method(
        g12, ModelParams(n=3, p_override=0.01, seed=1), k=4,
        alpha_budget=SolveBudget(node_limit=1000),
    )
    assert isinstance(failure, SearchFailure)
    assert failure.reason == (
        "independence solve exhausted its budget; cannot pick a certified bound l"
    )
    assert (failure.l, failure.seed, failure.witness) == (0, 1, None)


def test_certificate_independent_cross_check_with_networkx(g4):
    nx = pytest.importorskip("networkx")
    cert = deletion_method(g4, ModelParams(n=1, p_override=0.8, seed=13), k=3)
    sub = cert.subgraph(g4)
    h = nx.Graph()
    h.add_nodes_from(range(6))
    h.add_edges_from(sub.edges())
    try:
        nx_girth = nx.girth(h)
    except Exception:
        nx_girth = math.inf
    assert (nx_girth if nx_girth != math.inf else math.inf) == cert.girth
    alpha = independence_number(sub)
    complement_clique = nx.algorithms.clique.graph_clique_number(
        nx.complement(h)
    ) if hasattr(nx.algorithms.clique, "graph_clique_number") else max(
        len(c) for c in nx.find_cliques(nx.complement(h))
    )
    assert alpha.value == complement_clique
