import json
import time
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from highgirth import cli
from highgirth.cli import _config_flags, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    text = resources.files("highgirth.schemas").joinpath(name).read_text()
    return json.loads(text)


def check_schema(doc, schema_name):
    jsonschema.validate(doc, load_schema(schema_name))


@pytest.fixture()
def g4_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--n", "1", "--out-dir", str(tmp_path))
    assert code == 0
    return tmp_path / "g4.dimacs"


def test_gen_writes_expected_headers(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--n", "1", "--out-dir", str(tmp_path))
    assert code == 0
    dimacs = (tmp_path / "g4.dimacs").read_text()
    assert dimacs.startswith("p edge 6 12\n")
    vertices = json.loads((tmp_path / "g4.vertices.json").read_text())
    check_schema(vertices, "vertices.schema.json")
    assert vertices["vertices"][0] == "1100"

    code, out, _ = run(capsys, "gen", "--n", "2", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "g8.dimacs").read_text().startswith("p edge 70 1260\n")


def test_gen_rejects_n_zero(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--n", "0", "--out-dir", str(tmp_path))
    assert code == 1
    assert "error" in err


def test_gen_round_trip_is_byte_identical(tmp_path, capsys):
    run(capsys, "gen", "--n", "2", "--out-dir", str(tmp_path))
    from highgirth.dimacs import read_dimacs, write_dimacs

    original = (tmp_path / "g8.dimacs").read_text()
    g = read_dimacs(tmp_path / "g8.dimacs")
    write_dimacs(g, tmp_path / "again.dimacs")
    assert (tmp_path / "again.dimacs").read_text() == original


def test_solve_alpha_and_girth(g4_file, tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--graph", str(g4_file), "--what", "alpha")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "solve_result.schema.json")
    assert doc["value"] == 2 and doc["exact"] is True

    tree = tmp_path / "tree.dimacs"
    tree.write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _ = run(capsys, "solve", "--graph", str(tree), "--what", "girth")
    doc = json.loads(out)
    check_schema(doc, "solve_result.schema.json")
    assert doc["value"] == "infinite"


def test_solve_cycles(g4_file, capsys):
    code, out, _ = run(
        capsys, "solve", "--graph", str(g4_file), "--what", "cycles", "--s", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"labeled": 48, "distinct": 8, "s": 3}


def test_solve_chi(g4_file, capsys):
    code, out, _ = run(capsys, "solve", "--graph", str(g4_file), "--what", "chi")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "solve_result.schema.json")
    assert doc["value"] == 3


def test_events_cycles_only(tmp_path, capsys):
    code, out, _ = run(capsys, "events", "--n", "1", "--k", "3", "--p", "0.2")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "event_system.schema.json")
    assert len(doc["events"]) == 8
    assert all(ev["kind"] == "cycle" for ev in doc["events"])


def test_events_refuses_oversized_cycle_systems(capsys):
    # G_8 has 5,448,807 cycles of length 3..5: refused, not enumerated
    code, out, err = run(capsys, "events", "--n", "2", "--k", "5", "--p", "0.1")
    assert code == 1
    assert out == ""
    assert "exceed the enumeration guard 500000" in err


@pytest.mark.parametrize("flag,value", [("--p", "1.5"), ("--p", "-0.5"), ("--gamma", "1.2")])
def test_events_refuses_probabilities_outside_the_unit_interval(capsys, flag, value):
    code, out, err = run(capsys, "events", "--n", "1", "--k", "3", flag, value)
    assert code == 1
    assert out == ""
    assert "must lie in" in err


def test_solve_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.dimacs"
    bad.write_text("p edge 3 1\ne 1 x\n")
    code, _, err = run(capsys, "solve", "--graph", str(bad), "--what", "girth")
    assert code == 1
    assert "line 2" in err


def test_solve_refuses_oversized_dimacs_files_at_once(tmp_path, capsys):
    huge = tmp_path / "huge.dimacs"
    huge.write_text("p edge 100000000 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--graph", str(huge), "--what", "girth")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "100000000 vertices exceed the guard 12870" in err


def test_sample_is_seed_deterministic(tmp_path, capsys):
    args = ("sample", "--n", "1", "--p", "0.4", "--seed", "5",
            "--out-dir", str(tmp_path))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    check_schema(doc, "sample.schema.json")
    dimacs = (tmp_path / "sample-n1-seed5.dimacs").read_text()
    assert dimacs.startswith("p edge 6 ")


def test_sample_defaults_seed_and_prints_it(tmp_path, capsys):
    code, out, err = run(
        capsys, "sample", "--n", "1", "--p", "0.4", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert "default seed 0" in err
    assert json.loads(out)["seed"] == 0


def test_sample_requires_probability(tmp_path, capsys):
    code, _, err = run(capsys, "sample", "--n", "1", "--out-dir", str(tmp_path))
    assert code == 1
    assert "--gamma or --p" in err


def test_events_and_lll_check_recipe(tmp_path, capsys):
    events_path = tmp_path / "events.json"
    code, out, _ = run(
        capsys, "events", "--n", "1", "--l", "3", "--k", "3", "--p", "0.05",
        "--out", str(events_path),
    )
    assert code == 0
    doc = json.loads(events_path.read_text())
    check_schema(doc, "event_system.schema.json")
    assert len(doc["events"]) == 28

    code, out, _ = run(
        capsys, "lll-check", "--events", str(events_path),
        "--recipe-multipliers", "--f", "0.01",
    )
    # recorded outcome at desk scale: the hypothesis fails, verdict 2
    assert code == 2
    report = json.loads(out)
    check_schema(report, "margin_report.schema.json")
    assert report["holds"] is False
    assert len(report["margins"]) == 28


def test_lll_check_with_assignment(tmp_path, capsys):
    events_path = tmp_path / "single.json"
    events_path.write_text(json.dumps({
        "events": [{
            "kind": "cycle", "variable_set": [0], "meta": 3,
            "probability": 0.5, "members": [0, 1, 2],
        }],
    }))
    assignment = tmp_path / "assign.json"
    assignment.write_text(json.dumps({"style": "bollobas", "multipliers": [1.0]}))
    code, out, _ = run(
        capsys, "lll-check", "--events", str(events_path),
        "--assignment", str(assignment),
    )
    assert code == 0
    report = json.loads(out)
    check_schema(report, "margin_report.schema.json")
    assert report["holds"] is True
    assert report["product_bound"] == pytest.approx(0.5)

    assignment.write_text(json.dumps({"style": "general", "multipliers": [0.5]}))
    code, out, _ = run(
        capsys, "lll-check", "--events", str(events_path),
        "--assignment", str(assignment),
    )
    assert code == 0
    assert json.loads(out)["product_bound"] == pytest.approx(0.5)


def test_lll_check_failing_verdict_exits_2(tmp_path, capsys):
    events_path = tmp_path / "single.json"
    events_path.write_text(json.dumps({
        "events": [{
            "kind": "cycle", "variable_set": [0], "meta": 3,
            "probability": 0.9, "members": [],
        }],
    }))
    assignment = tmp_path / "assign.json"
    assignment.write_text(json.dumps({"style": "general", "multipliers": [0.5]}))
    code, out, _ = run(
        capsys, "lll-check", "--events", str(events_path),
        "--assignment", str(assignment),
    )
    assert code == 2
    assert json.loads(out)["holds"] is False


def test_lll_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"events": [{"kind": "cycle"}]}))
    code, _, err = run(capsys, "lll-check", "--events", str(bad),
                       "--recipe-multipliers")
    assert code == 1
    assert "events[0]" in err


@pytest.mark.parametrize("field,value,message", [
    ("variable_set", ["a", "b"], "events[0]: variable_set, members and meta must be integers"),
    ("meta", "3", "events[0]: variable_set, members and meta must be integers"),
    ("probability", "0.1", "events[0]: probability must be a number"),
    ("probability", None, "events[0]: probability must be a number"),
    ("p", "0.1", "p must be a number"),
], ids=["variable_set", "meta", "probability", "null-probability", "p"])
def test_lll_check_rejects_mistyped_fields(tmp_path, capsys, field, value, message):
    event = {"kind": "cycle", "variable_set": [0, 1, 2], "meta": 3,
             "probability": 0.001, "members": [0, 1, 2]}
    doc = {"events": [event], "p": 0.1}
    if field == "p":
        doc["p"] = value
    else:
        event[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lll-check", "--events", str(bad), "--recipe-multipliers")
    assert code == 1
    assert out == ""
    assert f"{bad}: {message}" in err


@pytest.mark.parametrize("multipliers", [["0.5", 0.5], [None, 0.5]], ids=["string", "null"])
def test_lll_check_rejects_non_numeric_multipliers(tmp_path, capsys, multipliers):
    events_path = tmp_path / "events.json"
    event = {"kind": "cycle", "variable_set": [0, 1, 2], "meta": 3,
             "probability": 0.001, "members": [0, 1, 2]}
    events_path.write_text(json.dumps({"events": [event, event], "p": 0.1}))
    bad = tmp_path / "assignment.json"
    bad.write_text(json.dumps({"style": "general", "multipliers": multipliers}))
    code, out, err = run(capsys, "lll-check", "--events", str(events_path),
                         "--assignment", str(bad))
    assert code == 1
    assert out == ""
    assert f"{bad}: multipliers must be numbers" in err


@pytest.mark.parametrize("style", ["gen", 3, ["general"]], ids=["word", "number", "list"])
def test_lll_check_rejects_unknown_styles(tmp_path, capsys, style):
    events_path = tmp_path / "events.json"
    event = {"kind": "cycle", "variable_set": [0, 1, 2], "meta": 3,
             "probability": 0.001, "members": [0, 1, 2]}
    events_path.write_text(json.dumps({"events": [event], "p": 0.1}))
    bad = tmp_path / "assignment.json"
    bad.write_text(json.dumps({"style": style, "multipliers": [0.5]}))
    code, out, err = run(capsys, "lll-check", "--events", str(events_path),
                         "--assignment", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: unknown assignment style {style!r}\n"


def test_lll_check_refuses_oversized_neighbourhoods(tmp_path, capsys, monkeypatch):
    import highgirth.model as model

    events_path = tmp_path / "events.json"
    run(capsys, "events", "--n", "1", "--l", "3", "--k", "3", "--p", "0.05",
        "--out", str(events_path))
    monkeypatch.setattr(model, "NEIGHBOR_TERM_GUARD", 100)
    code, out, err = run(capsys, "lll-check", "--events", str(events_path),
                         "--recipe-multipliers")
    assert code == 1
    assert out == ""
    assert "over the guard 100" in err


def test_params_command(capsys):
    code, out, _ = run(capsys, "params", "--k", "3", "--delta", "0.1")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "params.schema.json")
    assert doc["feasible"] is True
    lower, upper = doc["gamma_window"]
    assert lower < doc["gamma"] < upper


def test_scan_command(capsys):
    code, out, _ = run(
        capsys, "scan", "--k-min", "3", "--k-max", "5", "--delta", "0.1",
        "--epsilon-grid", "1.0,2.0", "--f-grid", "0.01",
    )
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "scan.schema.json")
    k3 = [r for r in doc["rows"] if r["k"] == 3 and not r["recipe"]]
    eps1 = next(r for r in k3 if r["epsilon"] == 1.0)
    assert eps1["nonempty"] is True
    assert eps1["lower"] == pytest.approx(1.9 / 3)
    eps2 = next(r for r in k3 if r["epsilon"] == 2.0)
    assert eps2["nonempty"] is False
    assert any(r["recipe"] for r in doc["rows"] if r["k"] == 3)


def test_search_delete_writes_certificate(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    args = ("search", "--n", "1", "--k", "3", "--p", "0.3", "--seed", "7",
            "--method", "delete", "--out", str(out_path))
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out_path.read_text())
    check_schema(doc, "certificate.schema.json")
    assert doc["girth"] == "infinite" or doc["girth"] > 3
    first_bytes = out_path.read_bytes()
    code, out2, _ = run(capsys, *args)
    assert out_path.read_bytes() == first_bytes  # byte-identical rerun
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("events", "--n", "1", "--p", "0.5"),
    ("search", "--n", "1", "--p", "0.5", "--seed", "0", "--method", "delete"),
    ("search", "--n", "1", "--p", "0.5", "--seed", "0", "--l", "6"),
], ids=["events", "delete", "mt"])
def test_cycle_ceiling_above_the_vertex_count_costs_nothing(capsys, argv):
    # G_4 has 6 vertices, so no cycle is longer than 6: every length past
    # that is skipped, and the output only echoes the given k
    code, small, _ = run(capsys, *argv, "--k", "6")
    start = time.perf_counter()
    code_huge, huge, _ = run(capsys, *argv, "--k", str(10**6))
    assert time.perf_counter() - start < 2
    assert code_huge == code == 0
    assert json.loads(huge)["k"] == 10**6
    assert {**json.loads(huge), "k": 6} == json.loads(small)


def test_search_mt_failure_exits_2(tmp_path, capsys):
    code, out, _ = run(
        capsys, "search", "--n", "1", "--k", "3", "--l", "2", "--p", "1.0",
        "--seed", "0", "--method", "mt",
    )
    assert code == 2
    doc = json.loads(out)
    check_schema(doc, "failure.schema.json")
    assert "no base edge" in doc["reason"]


def test_search_mt_requires_l(capsys):
    code, _, err = run(
        capsys, "search", "--n", "1", "--k", "3", "--p", "0.3", "--seed", "1",
    )
    assert code == 1
    assert "--l" in err


def test_search_restarts_recover(capsys):
    # with no resample budget a single try at p = 0.4 fails on this seed,
    # but derived-seed restarts deterministically find a winner
    base = ("search", "--n", "1", "--k", "3", "--l", "6", "--p", "0.4",
            "--seed", "3", "--method", "mt", "--max-resamples", "0")
    code, out, _ = run(capsys, *base, "--restarts", "16")
    assert code == 0
    check_schema(json.loads(out), "certificate.schema.json")
    # the parallel path must pick the identical seed-order winner
    code2, out2, _ = run(capsys, *base, "--restarts", "16", "--jobs", "2")
    assert code2 == 0
    assert out2 == out


def test_search_refuses_negative_budgets(tmp_path, capsys):
    base = ("search", "--n", "1", "--k", "3", "--l", "4", "--p", "0.5", "--seed", "0")
    code, out, err = run(capsys, *base, "--max-resamples", "-1")
    assert (code, out) == (1, "")
    assert err == "error: resample budget must be >= 0, got -1\n"
    config = tmp_path / "run.conf"
    config.write_text("max-resamples = -1\n")
    code, out, err = run(capsys, *base, "--config", str(config))
    assert (code, out) == (1, "")
    assert err == "error: resample budget must be >= 0, got -1\n"
    for restarts in ("0", "-2"):
        code, out, err = run(capsys, *base, "--restarts", restarts)
        assert (code, out) == (1, "")
        assert err == f"error: --restarts must be at least 1, got {restarts}\n"


@pytest.fixture()
def no_pool(monkeypatch):
    import concurrent.futures

    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError("a pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)


def test_search_refuses_a_negative_budget_before_any_pool(no_pool, capsys):
    code, out, err = run(
        capsys, "search", "--n", "1", "--k", "3", "--l", "4", "--p", "0.5",
        "--seed", "0", "--max-resamples", "-1", "--restarts", "2", "--jobs", "2",
    )
    assert (code, out) == (1, "")
    assert err == "error: resample budget must be >= 0, got -1\n"


@pytest.mark.parametrize("method", ["mt", "delete"])
def test_search_refuses_a_negative_ceiling_before_any_pool(no_pool, capsys, method):
    code, out, err = run(
        capsys, "search", "--n", "1", "--k", "-1", "--l", "3", "--p", "0.5", "--seed", "0",
        "--method", method, "--restarts", "2", "--jobs", "2",
    )
    assert (code, out) == (1, "")
    assert err == "error: forbidden-cycle ceiling must be >= 0, got -1\n"


# restart 0 certifies at once on G_8
QUICK_SEARCH = ("search", "--n", "2", "--k", "4", "--l", "50", "--p", "0.06", "--seed", "1")


def test_search_derives_restart_seeds_only_when_needed(monkeypatch, capsys):
    from highgirth import cli

    calls = []
    real = cli.derive_seed

    def spy(seed, replica):
        calls.append(replica)
        return real(seed, replica)

    monkeypatch.setattr(cli, "derive_seed", spy)
    code, once, _ = run(capsys, *QUICK_SEARCH)
    assert code == 0
    code, out, _ = run(capsys, *QUICK_SEARCH, "--restarts", "1000")
    assert (code, out) == (0, once)
    assert calls == []


def test_search_pool_stops_after_the_first_certified_window(monkeypatch, capsys):
    import concurrent.futures
    import os

    ran = []

    class RecordingPool:  # runs each window eagerly in this process, as a pool would
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            ran.extend(jobs)
            return [fn(job) for job in jobs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code, once, _ = run(capsys, *QUICK_SEARCH)
    code, out, _ = run(capsys, *QUICK_SEARCH, "--restarts", "1000", "--jobs", "2")
    assert (code, out) == (0, once)
    assert len(ran) <= 2


def test_search_jobs_clamped_to_restarts_and_cpus(monkeypatch, capsys):
    import concurrent.futures
    import os

    from highgirth import cli

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._worker_count(8, 5) == 3
    assert cli._worker_count(8, 2) == 2
    assert cli._worker_count(2, 5) == 2
    assert cli._worker_count(0, 5) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count(8, 5) == 1

    sizes = []

    class RecordingPool:  # runs the restarts in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    base = ("search", "--n", "1", "--k", "3", "--l", "6", "--p", "0.3",
            "--seed", "1", "--method", "mt")
    assert run(capsys, *base, "--restarts", "2", "--jobs", "5000")[0] == 0
    assert run(capsys, *base, "--restarts", "9", "--jobs", "5000")[0] == 0
    assert run(capsys, *base, "--restarts", "1", "--jobs", "5000")[0] == 0
    assert sizes == [2, 4]


def test_certify_accepts_and_rejects(g4_file, tmp_path, capsys):
    code, out, _ = run(
        capsys, "certify", "--n", "1", "--graph", str(g4_file),
        "--k", "2", "--l", "2",
    )
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "certificate.schema.json")
    assert doc["chi_lower"] == 3

    code, out, _ = run(
        capsys, "certify", "--n", "1", "--graph", str(g4_file),
        "--k", "3", "--l", "2",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["certified"] is False
    assert doc["witness"]


def test_certify_from_mask_hex(g4_file, capsys):
    code, out, _ = run(
        capsys, "certify", "--n", "1", "--mask-hex", "000", "--k", "3", "--l", "6",
    )
    assert code == 0
    assert json.loads(out)["girth"] == "infinite"


def test_export_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(capsys, "search", "--n", "1", "--k", "3", "--p", "0.5", "--seed", "2",
        "--method", "delete", "--out", str(cert_path))
    code, out, _ = run(
        capsys, "export", "--certificate", str(cert_path),
        "--format", "dimacs", "--out-dir", str(tmp_path),
    )
    assert code == 0
    exported = tmp_path / "certificate-n1-k3.dimacs"
    assert exported.exists()
    from highgirth import EdgeSubset, build_base_graph
    from highgirth.dimacs import read_dimacs

    cert = json.loads(cert_path.read_text())
    base = build_base_graph(1)
    sub = EdgeSubset.from_hex(base, cert["edge_mask_hex"])
    assert read_dimacs(exported).edge_list == sub.to_graph().edge_list


def test_export_json_normalizes(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    run(capsys, "search", "--n", "1", "--k", "3", "--p", "0.5", "--seed", "2",
        "--method", "delete", "--out", str(cert_path))
    code, out, _ = run(
        capsys, "export", "--certificate", str(cert_path),
        "--format", "json", "--out-dir", str(tmp_path),
    )
    assert code == 0
    exported = tmp_path / "certificate-n1-k3.json"
    assert json.loads(exported.read_text()) == json.loads(cert_path.read_text())


def test_export_keeps_the_size_guard(tmp_path, capsys, monkeypatch):
    # a G_8 certificate under a guard of dimension 4 stands in for n = 5
    # (G_20, 184,756 vertices) under the real guard of 16
    import highgirth.graphs as graphs

    cert_path = tmp_path / "cert.json"
    run(capsys, "search", "--n", "2", "--k", "4", "--p", "0.5", "--seed", "0",
        "--method", "delete", "--out", str(cert_path))
    monkeypatch.setattr(graphs, "DIMENSION_GUARD", 4)
    code, out, err = run(capsys, "export", "--certificate", str(cert_path),
                         "--out-dir", str(tmp_path))
    assert code == 1
    assert out == ""
    assert "dimension 8 exceeds guard 4" in err
    assert not (tmp_path / "certificate-n2-k4.dimacs").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: [doc], "a certificate must be a JSON object"),
    (lambda doc: {**doc, "n": "1"}, "certificate n must be an integer, got '1'"),
    (lambda doc: {**doc, "k": 3.0}, "certificate k must be an integer, got 3.0"),
    (lambda doc: {**doc, "l": None}, "certificate l must be an integer, got None"),
    (lambda doc: {**doc, "edge_mask_hex": 5},
     "certificate edge_mask_hex must be a string, got 5"),
    (lambda doc: {**doc, "n": 0}, "certificate n must be at least 1, got 0"),
    (lambda doc: {**doc, "k": -1}, "certificate k must be at least 0, got -1"),
    (lambda doc: {**doc, "l": 0}, "certificate l must be at least 1, got 0"),
    (lambda doc: {**doc, "alpha": "many"}, "certificate alpha must be an integer, got 'many'"),
    (lambda doc: {**doc, "alpha": -1}, "certificate alpha must be at least 0, got -1"),
    (lambda doc: {**doc, "alpha_exact": 1}, "certificate alpha_exact must be a boolean, got 1"),
    (lambda doc: {**doc, "chi_lower": 0}, "certificate chi_lower must be at least 1, got 0"),
    (lambda doc: {**doc, "empirical_rate": True},
     "certificate empirical_rate must be a number > 0, got True"),
    (lambda doc: {**doc, "empirical_rate": 0.0},
     "certificate empirical_rate must be a number > 0, got 0.0"),
    (lambda doc: {**doc, "girth": "3"},
     """certificate girth must be an integer >= 3 or "infinite", got '3'"""),
    (lambda doc: {**doc, "girth": 2},
     """certificate girth must be an integer >= 3 or "infinite", got 2"""),
    (lambda doc: {**doc, "seed": -1}, "certificate seed must be an integer >= 0 or null, got -1"),
    (lambda doc: {**doc, "gamma_or_p": [0.5]},
     "certificate gamma_or_p must be an object, got [0.5]"),
    (lambda doc: {**doc, "gamma_or_p": {"gamma": 1.0}},
     "certificate gamma must be a number in (0, 1), got 1.0"),
    (lambda doc: {**doc, "gamma_or_p": {"p": "0.5"}},
     "certificate p must be a number in [0, 1], got '0.5'"),
    (lambda doc: {**doc, "solver_versions": None},
     "certificate solver_versions must be an object, got None"),
    (lambda doc: {**doc, "edge_mask_hex": "0x" + doc["edge_mask_hex"]},
     "certificate edge_mask_hex must be lowercase hex digits, got '0x"),
], ids=[
    "list", "string-n", "float-k", "null-l", "int-mask", "zero-n", "negative-k", "zero-l",
    "string-alpha", "negative-alpha", "int-alpha-exact", "zero-chi-lower", "bool-rate",
    "zero-rate", "string-girth", "girth-2", "negative-seed", "list-gamma-or-p",
    "gamma-1", "string-p", "null-solver-versions", "prefixed-mask",
])
def test_export_rejects_malformed_certificates(tmp_path, capsys, edit, message):
    cert_path = tmp_path / "cert.json"
    run(capsys, "search", "--n", "1", "--k", "3", "--p", "0.5", "--seed", "2",
        "--method", "delete", "--out", str(cert_path))
    cert_path.write_text(json.dumps(edit(json.loads(cert_path.read_text()))))
    code, out, err = run(capsys, "export", "--certificate", str(cert_path),
                         "--out-dir", str(tmp_path))
    assert code == 1
    assert out == ""
    assert message in err


def test_sample_with_gamma(tmp_path, capsys):
    code, out, _ = run(
        capsys, "sample", "--n", "1", "--gamma", "0.7", "--seed", "1",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "sample.schema.json")
    assert doc["gamma"] == 0.7
    assert doc["p"] == pytest.approx(0.7**4)


def test_params_scales_l_with_n(capsys):
    code, out, _ = run(capsys, "params", "--k", "3", "--delta", "0.1", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["l"] == 170  # ceil(1.9^8)
    assert doc["n"] == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("# defaults\np = 0.4\nseed = 9\nout-dir = {}\n".format(tmp_path))
    code, out, _ = run(capsys, "sample", "--n", "1", "--config", str(config))
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 0.4 and doc["seed"] == 9
    # explicit flags override the config
    code, out, _ = run(
        capsys, "sample", "--n", "1", "--config", str(config), "--seed", "11",
    )
    assert json.loads(out)["seed"] == 11


@pytest.mark.parametrize("spelling", [("--config={}",), ("--conf", "{}")])
def test_config_file_spellings(tmp_path, capsys, spelling):
    # the joined form and argparse's abbreviation load the file too
    config = tmp_path / "run.conf"
    config.write_text("p = 0.4\nseed = 9\nout-dir = {}\n".format(tmp_path))
    flags = [part.format(config) for part in spelling]
    code, out, _ = run(capsys, "sample", "--n", "1", *flags)
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 0.4 and doc["seed"] == 9
    code, out, _ = run(capsys, "sample", "--n", "1", *flags, "--seed", "11", "--p", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 0.5 and doc["seed"] == 11


@pytest.mark.parametrize("argv, text, message", [
    (("sample", "--n", "1"), "p = 0.4\nseeed = 9\n",
     "key 'seeed' matches no flag of highgirth sample"),
    (("search", "--n", "1", "--k", "3", "--l", "6", "--p", "0.3"), "method = bogus\n",
     "argument --method: invalid choice: 'bogus' (choose from 'mt', 'delete')"),
    (("lll-check", "--events", "e.json"), "recipe-multipliers = maybe\n",
     "key 'recipe_multipliers': expected one of 1/true/yes/on/0/false/no/off, got 'maybe'"),
    (("sample", "--n", "1", "--p", "0.3"), "seed = x\n",
     "argument --seed: invalid int value: 'x'"),
    (("sample", "--n", "1", "--p", "0.3"), "se = 9\n",
     "key 'se' matches no flag of highgirth sample"),
    (("sample", "--n", "1", "--p", "0.3"), "help = x\n",
     "key 'help' matches no flag of highgirth sample"),
])
def test_config_file_values_are_checked_like_flags(
    tmp_path, capsys, monkeypatch, argv, text, message
):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.conf"
    config.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(config))
    assert code == 1 and not out
    assert err == f"error: {config}: {message}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "word, value", [("Yes", True), ("on", True), ("OFF", False), ("0", False)]
)
def test_config_file_on_off_words(tmp_path, word, value):
    config = tmp_path / "run.conf"
    config.write_text(f"recipe-multipliers = {word}\n")
    parser, registry = build_parser()
    flags = _config_flags(str(config), registry["lll-check"])
    args = parser.parse_args(["lll-check", *flags, "--events", "e.json"])
    assert args.recipe_multipliers is value


def test_config_values_do_not_leak_into_later_calls(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("p = 0.4\nseed = 9\nout-dir = {}\n".format(tmp_path))
    code, out, _ = run(capsys, "sample", "--n", "1", "--config", str(config))
    assert code == 0 and json.loads(out)["seed"] == 9
    code, out, err = run(capsys, "sample", "--n", "1", "--p", "0.3", "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["seed"] == 0
    assert err == "seed not given; using default seed 0\n"


def test_main_builds_the_parser_once(monkeypatch, tmp_path, capsys):
    builds = []

    def spy():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    config = tmp_path / "run.conf"
    config.write_text("n = 2\n")
    for argv in (("params", "--k", "3", "--delta", "0.1"),
                 ("params", "--k", "3", "--delta", "0.1", "--config", str(config)),
                 ("params", "--k", "4", "--delta", "0.1")):
        assert run(capsys, *argv)[0] == 0
    assert len(builds) == 1


def test_gen_refuses_large_dimensions(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--n", "5", "--out-dir", str(tmp_path))
    assert code == 1
    assert "dimension 20 exceeds guard 16" in err
    # there is no override: the flag is unknown
    code, _, err = run(capsys, "gen", "--n", "5", "--allow-large", "--out-dir", str(tmp_path))
    assert code == 1
    assert "unrecognized arguments: --allow-large" in err
    assert not list(tmp_path.iterdir())


def test_solve_cycles_longer_than_the_graph(tmp_path, capsys):
    triangle = tmp_path / "triangle.dimacs"
    triangle.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, _ = run(capsys, "solve", "--graph", str(triangle), "--what", "cycles", "--s", "9")
    assert code == 0
    assert json.loads(out) == {"labeled": 0, "distinct": 0, "s": 9}


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HIGHGIRTH_OUT", str(tmp_path / "outputs"))
    code, out, _ = run(capsys, "gen", "--n", "1")
    assert code == 0
    assert (tmp_path / "outputs" / "g4.dimacs").exists()


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "solve", "--what", "girth")[0] == 1  # missing --graph
    assert run(capsys, "unknown-command")[0] == 1
    assert run(capsys)[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "gen", "--help")[0] == 0


def test_package_documents_never_reach_the_json_fallback(tmp_path, capsys, monkeypatch):
    # dump_json gives a document to json.dumps only when it holds a type the
    # package does not write; with that fallback made to raise, every
    # subcommand still writes json.dumps's bytes
    monkeypatch.chdir(tmp_path)
    for style, multiplier in (("general", 0.001), ("bollobas", 1.5)):
        (tmp_path / f"{style}.json").write_text(  # one multiplier per triangle of G_4
            json.dumps({"style": style, "multipliers": [multiplier] * 8})
        )

    def refuse(*args, **kwargs):
        raise AssertionError("a package document reached json.dumps")

    got = {}
    with monkeypatch.context() as patch:
        patch.setattr(json, "dumps", refuse)

        def emit(*argv, code=0):
            result, got[argv], _ = run(capsys, *argv)
            assert result == code, argv

        assert run(capsys, "gen", "--n", "1")[0] == 0
        got["vertex JSON"] = (tmp_path / "g4.vertices.json").read_text()
        for what in ("girth", "alpha", "chi", "cycles"):
            emit("solve", "--graph", "g4.dimacs", "--what", what)
        emit("sample", "--n", "1", "--p", "0.4", "--seed", "5")
        emit("events", "--n", "1", "--k", "3", "--p", "0.05", "--out", "cycles.json")
        emit("events", "--n", "1", "--l", "3", "--k", "3", "--p", "0.05", "--out", "mixed.json")
        emit("lll-check", "--events", "mixed.json", "--recipe-multipliers", code=2)
        for style in ("general", "bollobas"):
            emit("lll-check", "--events", "cycles.json", "--assignment", f"{style}.json")
        emit("params", "--k", "4", "--delta", "0.5")
        emit("params", "--k", str(10**16), "--delta", "0.5", code=2)  # epsilon rounds to 0
        emit("scan", "--delta", "0.5")
        emit("search", "--n", "1", "--k", "3", "--l", "4", "--p", "0.5", "--seed", "0",
             "--subset-events", "on", "--max-resamples", "500")
        emit("search", "--n", "1", "--k", "3", "--l", "2", "--p", "1.0", "--seed", "0",
             "--method", "mt", code=2)
        emit("search", "--n", "1", "--k", "3", "--p", "0.5", "--seed", "2",
             "--method", "delete", "--out", "cert.json")
        emit("certify", "--n", "1", "--graph", "g4.dimacs", "--k", "2", "--l", "2")
        emit("certify", "--n", "1", "--graph", "g4.dimacs", "--k", "3", "--l", "2", code=2)
        assert run(capsys, "export", "--certificate", "cert.json", "--format", "json")[0] == 0
        got["exported certificate"] = (tmp_path / "certificate-n1-k3.json").read_text()

    for name, text in got.items():
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


@pytest.mark.parametrize("flags", [("--k", "2"), ("--l", "2", "--k", "0")])
def test_events_under_short_ceilings_match_the_schema(capsys, flags):
    code, out, _ = run(capsys, "events", "--n", "1", *flags, "--p", "0.5")
    assert code == 0
    check_schema(json.loads(out), "event_system.schema.json")


@pytest.mark.parametrize("argv", [
    ("events", "--n", "1", "--k", "-5", "--p", "0.5"),
    ("events", "--n", "1", "--l", "3", "--k", "-5", "--p", "0.5"),
    ("search", "--n", "1", "--k", "-1", "--p", "0.5", "--method", "delete", "--seed", "0"),
    ("search", "--n", "1", "--k", "-1", "--l", "3", "--p", "0.5", "--seed", "0"),
], ids=["events", "events-mixed", "delete", "mt"])
def test_negative_cycle_ceilings_are_refused(capsys, argv):
    # certify and certificate loading refuse a negative k, so no command writes one
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: forbidden-cycle ceiling must be >= 0, got {argv[argv.index('--k') + 1]}\n"


@pytest.mark.parametrize("argv, message", [
    (("params", "--k", "3", "--delta", "inf"), "delta must be finite, got inf"),
    (("params", "--k", "3", "--delta", "nan"), "delta must be finite, got nan"),
    (("scan", "--k-min", "3", "--k-max", "3", "--delta", "inf"), "delta must be finite, got inf"),
    (("scan", "--k-min", "3", "--k-max", "3", "--delta", "nan"), "delta must be finite, got nan"),
])
def test_non_finite_deltas_are_refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("f", ["nan", "inf"])
def test_lll_check_refuses_a_non_finite_recipe_offset(tmp_path, capsys, f):
    events_path = tmp_path / "mixed.json"
    run(capsys, "events", "--n", "1", "--l", "3", "--k", "3", "--p", "0.05",
        "--out", str(events_path))
    code, out, err = run(capsys, "lll-check", "--events", str(events_path),
                         "--recipe-multipliers", "--f", f)
    assert (code, out) == (1, "")
    assert err == f"error: f must be finite, got {f}\n"


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_lll_check_refuses_non_finite_bollobas_multipliers(tmp_path, capsys, value):
    events_path = tmp_path / "cycles.json"
    run(capsys, "events", "--n", "1", "--k", "3", "--p", "0.05", "--out", str(events_path))
    assignment = tmp_path / "assign.json"  # json reads NaN and Infinity as floats
    assignment.write_text(f'{{"style": "bollobas", "multipliers": [1.5, {value}{", 1.5" * 6}]}}')
    code, out, err = run(capsys, "lll-check", "--events", str(events_path),
                         "--assignment", str(assignment))
    assert (code, out) == (1, "")
    assert err == f"error: delta[1] = {float(value)} must be finite\n"


@pytest.mark.parametrize("text", ["0xfff", " fff ", "f_f", "", "FFF", "+fff"])
def test_certify_refuses_mask_text_that_certificates_refuse(capsys, text):
    code, out, err = run(
        capsys, "certify", "--n", "1", "--mask-hex", text, "--k", "3", "--l", "6",
    )
    assert (code, out) == (1, "")
    assert err == f"error: edge mask must be lowercase hex digits, got {text!r}\n"


def test_schemas_refuse_unknown_keys(tmp_path, capsys):
    events_path = tmp_path / "mixed.json"
    run(capsys, "events", "--n", "1", "--l", "3", "--k", "3", "--p", "0.05",
        "--out", str(events_path))
    documents = {
        "certificate.schema.json": ("search", "--n", "1", "--k", "3", "--p", "0.5",
                                    "--seed", "2", "--method", "delete"),
        "failure.schema.json": ("search", "--n", "1", "--k", "3", "--l", "2", "--p", "1.0",
                                "--seed", "0"),
        "margin_report.schema.json": ("lll-check", "--events", str(events_path),
                                      "--recipe-multipliers"),
        "params.schema.json": ("params", "--k", "3", "--delta", "0.1"),
    }
    docs = {}
    for schema, argv in documents.items():
        doc = docs[schema] = json.loads(run(capsys, *argv)[1])
        check_schema(doc, schema)
        with pytest.raises(jsonschema.ValidationError, match="Additional properties"):
            check_schema({**doc, "extra": 1}, schema)
    # nested records too: an event, a certificate's gamma_or_p, a log-form report
    nested = [
        (json.loads(events_path.read_text()), "events", 0, "event_system.schema.json"),
        (docs["certificate.schema.json"], "gamma_or_p", None, "certificate.schema.json"),
        (docs["margin_report.schema.json"], "log_form", None, "margin_report.schema.json"),
    ]
    for doc, key, index, schema in nested:
        check_schema(doc, schema)
        inner = doc[key] if index is None else doc[key][index]
        inner["extra"] = 1
        with pytest.raises(jsonschema.ValidationError, match="Additional properties"):
            check_schema(doc, schema)
