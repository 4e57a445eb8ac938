"""Tests of the benchmark's own code: spans, output checks, failure counting.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import networkx as nx
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import TaskRun  # noqa: E402

import highgirth.cli  # noqa: E402
import highgirth.model  # noqa: E402
from highgirth import build_base_graph  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def cli(argv) -> int:
    with redirect_stdout(io.StringIO()):
        return highgirth.cli.main([str(a) for a in argv])


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 6] (which holds c [2, 5]) and d [7, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 5, 6, 7, 9, 10]))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    times = tracer.self_times()
    assert times == {"a": (3, 1), "b": (2, 1), "c": (3, 1), "d": (2, 1)}
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]


def test_self_time_sums_repeated_calls_and_closes_spans_on_error():
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 4, 7, 8]))
    with tracer.span("outer"):
        for _ in range(2):
            with pytest.raises(ValueError), tracer.span("inner"):
                raise ValueError
    assert tracer.self_times() == {"outer": (3, 1), "inner": (5, 2)}


def test_overhead_frac_compares_traced_with_untraced_wall():
    assert spans.overhead_frac(traced_wall=1.25, untraced_wall=1.0) == pytest.approx(0.25)
    assert spans.overhead_frac(traced_wall=0.9, untraced_wall=1.0) == pytest.approx(-0.1)


def test_install_wraps_every_caller_namespace_and_restores(tmp_path):
    original_main = highgirth.cli.main
    original_property = vars(highgirth.model.EventSystem)["neighbors"]
    events = tmp_path / "events.json"
    tracer = spans.Tracer()
    with tracer.install():
        assert highgirth.cli.main is not original_main
        assert cli(["events", "--n", 1, "--k", 4, "--p", 0.3, "--out", events]) == 0
        assert cli(["lll-check", "--events", events, "--recipe-multipliers"]) in (0, 2)
    assert highgirth.cli.main is original_main
    assert vars(highgirth.model.EventSystem)["neighbors"] is original_property

    metrics = spans.layer_metrics(tracer)
    num_events = len(json.loads(events.read_text())["events"])
    assert metrics["cli.main.calls"] == 2
    assert metrics["graphs.build_base_graph.calls"] == 1
    assert metrics["model.enumerate_cycle_events.calls"] == 1
    assert metrics["model.EventSystem.from_events.calls"] == 2
    assert metrics["lll.verify_sys1_finite.calls"] == 1
    assert metrics["lll.recipe_multipliers.calls"] == 1
    assert metrics["lll.check_bollobas_lll.calls"] == 1
    assert metrics["model.events"] == 2 * num_events
    # neighbours are computed once per system; every later read is cached
    assert metrics["model.EventSystem.neighbors.calls"] == 1
    assert metrics["model.EventSystem.neighbors.cached_reads"] >= num_events
    assert metrics["model.neighbor_terms"] > 0
    assert metrics["search.deletion_method.calls"] == 0
    busy = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    outer = [s for s in tracer.spans if s.parent == -1]
    assert busy == pytest.approx(sum(s.end - s.start for s in outer))


def test_missing_layer_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(spans, "SPAN_NAMES", spans.SPAN_NAMES + ("solvers.no_such_solver",))
    tracer = spans.Tracer()
    with tracer.install():
        pass
    assert spans.layer_metrics(tracer)["solvers.no_such_solver.calls"] == 0


def test_unexpected_result_type_keeps_the_call(monkeypatch):
    import highgirth.solvers

    monkeypatch.setattr(highgirth.solvers, "independence_number", lambda *a, **k: "refactored")
    tracer = spans.Tracer()
    with tracer.install():
        assert highgirth.solvers.independence_number(None) == "refactored"
    assert spans.layer_metrics(tracer)["solvers.independence_number.calls"] == 1


def test_search_counters_on_the_deletion_method(tmp_path):
    cert_path = tmp_path / "cert.json"
    tracer = spans.Tracer()
    with tracer.install():
        rc = cli(["search", "--n", 1, "--k", 3, "--p", 0.9, "--seed", 3,
                  "--method", "delete", "--out", cert_path])
    assert rc == 0
    cert = json.loads(cert_path.read_text())
    metrics = spans.layer_metrics(tracer)
    sample = checks.sample_mask(len(checks.base_edges(1)[1]), 3, 0.9)
    kept = int(cert["edge_mask_hex"], 16).bit_count()
    assert metrics["search.edges_deleted"] == sample.bit_count() - kept > 0
    assert metrics["search.certified_frac"] == 1.0
    assert metrics["search.chi_lower_max"] == cert["chi_lower"]
    assert metrics["solvers.alpha_exact_frac"] == 1.0


@pytest.mark.parametrize("n", [1, 2])
def test_base_edges_match_the_library(n):
    g = build_base_graph(n)
    assert checks.base_edges(n) == (g.num_vertices, g.edge_list)


def test_sample_mask_follows_the_prng_contract():
    from highgirth.model import ModelParams, sample_subgraph

    g = build_base_graph(2)
    sub = sample_subgraph(g, ModelParams(n=2, seed=11, p_override=0.2))
    assert checks.sample_mask(g.num_edges, 11, 0.2) == sub.mask


def test_shortest_cycle_agrees_with_networkx():
    rng = random.Random(5)
    for _ in range(40):
        nv = rng.randrange(3, 14)
        edges = [e for e in itertools.combinations(range(nv), 2) if rng.random() < 0.3]
        mask = (1 << len(edges)) - 1
        girth = nx.girth(nx.Graph(edges))
        for limit in (3, 4, 6):
            expected = girth if girth <= limit else None
            assert checks.shortest_cycle(nv, edges, mask, limit) == expected


@pytest.fixture
def lll_pair(tmp_path):
    events, report = tmp_path / "events.json", tmp_path / "report.json"
    assert cli(["events", "--n", 1, "--k", 4, "--p", 0.3, "--out", events]) == 0
    rc = cli(["lll-check", "--events", events, "--recipe-multipliers", "--f", 0.01, "--out", report])
    return json.loads(events.read_text()), json.loads(report.read_text()), rc


def test_lll_check_passes_on_true_outputs(lll_pair):
    events, report, rc = lll_pair
    assert checks.check_lll_pair(events, report, rc, 0.3, 0.01, "s") == []


def test_corrupted_margin_is_caught(lll_pair):
    events, report, rc = lll_pair
    report["margins"][1] += 1e-6
    problems = checks.check_lll_pair(events, report, rc, 0.3, 0.01, "s")
    assert any("margin[1]" in p for p in problems)


def test_wrong_exit_code_is_caught(lll_pair):
    events, report, rc = lll_pair
    assert checks.check_lll_pair(events, report, 2 - rc, 0.3, 0.01, "s")


def test_infeasible_flag_must_match_the_events_file(lll_pair):
    events, report, rc = lll_pair
    events = dict(events, unavoidable=[{"kind": "independent_set", "variable_set": []}])
    problems = checks.check_lll_pair(events, report, rc, 0.3, 0.01, "s")
    assert any(p.startswith("infeasible=False") for p in problems)


@pytest.fixture
def deletion_certificate(tmp_path):
    cert_path, recheck_path = tmp_path / "cert.json", tmp_path / "recheck.json"
    assert cli(["search", "--n", 2, "--k", 4, "--p", 0.1, "--seed", 7,
                "--method", "delete", "--out", cert_path]) == 0
    cert = json.loads(cert_path.read_text())
    assert cli(["certify", "--n", 2, "--mask-hex", cert["edge_mask_hex"], "--k", 4,
                "--l", cert["l"], "--out", recheck_path]) == 0
    return cert, json.loads(recheck_path.read_text())


def _check(cert, recheck):
    return checks.check_certificate(cert, recheck, n=2, k=4, l=None, seed=7, p=0.1,
                                    submask_of_sample=True)


def test_certificate_check_passes_on_true_outputs(deletion_certificate):
    assert _check(*deletion_certificate) == []


def test_forged_mask_is_caught(deletion_certificate):
    cert, _ = deletion_certificate
    num_edges = len(checks.base_edges(2)[1])
    outside = next(i for i in range(num_edges)
                   if not checks.sample_mask(num_edges, 7, 0.1) >> i & 1)
    forged = dict(cert, edge_mask_hex=format(int(cert["edge_mask_hex"], 16) | 1 << outside, "x"))
    problems = _check(forged, dict(forged))
    assert "certificate keeps edges that the seeded sample does not" in problems


def test_short_cycle_in_mask_is_caught(deletion_certificate):
    cert, _ = deletion_certificate
    _, edges = checks.base_edges(2)
    triangle = next(c for c in itertools.combinations(range(70), 3)
                    if all(tuple(sorted(e)) in set(edges) for e in itertools.combinations(c, 2)))
    index = {e: i for i, e in enumerate(edges)}
    mask = sum(1 << index[tuple(sorted(e))] for e in itertools.combinations(triangle, 2))
    forged = dict(cert, edge_mask_hex=format(mask, "x"))
    assert any("3-cycle survives" in p for p in _check(forged, dict(forged)))


def test_disagreeing_certify_is_caught(deletion_certificate):
    cert, recheck = deletion_certificate
    assert _check(cert, dict(recheck, alpha=recheck["alpha"] + 1))


class _Stub:
    def __init__(self, problems):
        self.problems = problems

    def check(self, task_run, seed):
        return self.problems[task_run.task]


def test_check_runs_counts_failed_tasks():
    runs = [TaskRun(i, {}, ok=True) for i in range(3)]
    workload = _Stub({0: [], 1: ["margin[3] is off"], 2: []})
    assert run.check_runs(workload, runs, seed=0) == 1
    assert [r.ok for r in runs] == [True, False, True]


def test_check_that_raises_counts_as_failed():
    class Broken:
        def check(self, task_run, seed):
            raise KeyError("margins")

    runs = [TaskRun(0, {}, ok=True)]
    assert run.check_runs(Broken(), runs, seed=0) == 1
    assert not runs[0].ok


@pytest.fixture
def mixed_events(tmp_path):
    events = tmp_path / "events.json"
    assert cli(["events", "--n", 1, "--l", 2, "--k", 3, "--p", 0.3, "--out", events]) == 0
    return events


def test_events_check_passes_on_true_outputs(mixed_events):
    doc = json.loads(mixed_events.read_text())
    assert doc["unavoidable"] and doc["events"]
    assert checks.check_events_file(doc, 1, 2, 0.3) == []


def test_events_check_catches_wrong_probability_and_missing_event(mixed_events):
    doc = json.loads(mixed_events.read_text())
    doc["events"][0]["probability"] *= 1 + 1e-9
    assert any(p.startswith("events[0]") for p in checks.check_events_file(doc, 1, 2, 0.3))
    del doc["unavoidable"][0]
    assert any("distinct subset events" in p for p in checks.check_events_file(doc, 1, 2, 0.3))


@pytest.mark.xfail(strict=True, reason="lll-check drops the events file's unavoidable list")
def test_lll_check_reports_unavoidable_events(mixed_events, tmp_path):
    """A known program defect, and the reason lll-g8 sends only cycles-only
    systems to lll-check.  When this passes, drop the marker and put the
    mixed events | lll-check pair back into the lll-g8 round."""
    report = tmp_path / "report.json"
    rc = cli(["lll-check", "--events", mixed_events, "--recipe-multipliers", "--out", report])
    assert rc == 2
    assert json.loads(report.read_text())["infeasible"]
