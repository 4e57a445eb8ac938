import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highgirth import Graph, SizeGuardError, dimacs
from highgirth.dimacs import (
    DimacsError,
    dump_json,
    read_dimacs,
    write_dimacs,
    write_vertex_json,
)


def _round_trip_bytes(g):
    first = io.StringIO()
    write_dimacs(g, first)
    parsed = read_dimacs(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_dimacs(parsed, second)
    return first.getvalue(), second.getvalue()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_is_byte_identical(n, g4, g8, g12):
    g = {1: g4, 2: g8, 3: g12}[n]
    first, second = _round_trip_bytes(g)
    assert first == second
    assert first.startswith(f"p edge {g.num_vertices} {g.num_edges}\n")


def test_read_preserves_structure(g4):
    buf = io.StringIO()
    write_dimacs(g4, buf)
    parsed = read_dimacs(io.StringIO(buf.getvalue()))
    assert parsed.num_vertices == g4.num_vertices
    assert parsed.edge_list == g4.edge_list


def test_comments_and_blank_lines_are_ignored():
    text = "c a comment\n\np edge 3 2\nc another\ne 1 2\ne 2 3\n"
    g = read_dimacs(io.StringIO(text))
    assert g.num_vertices == 3
    assert g.edge_list == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("p edge x 2\ne 1 2\n", 1),
        ("e 1 2\np edge 3 1\n", 1),
        ("p edge 3 1\ne 1\n", 2),
        ("p edge 3 1\ne 1 9\n", 2),
        ("p edge 3 1\ne 2 2\n", 2),
        ("p edge 3 1\nq 1 2\n", 2),
        ("p edge 3 2\np edge 3 2\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(DimacsError) as err:
        read_dimacs(io.StringIO(text))
    assert err.value.line == lineno
    assert f"line {lineno}" in str(err.value)


def test_declared_count_mismatch():
    with pytest.raises(DimacsError, match="declares 5 edges, found 1"):
        read_dimacs(io.StringIO("p edge 3 5\ne 1 2\n"))


def test_missing_problem_line():
    with pytest.raises(DimacsError, match="missing problem line"):
        read_dimacs(io.StringIO("c nothing here\n"))


def test_reader_refuses_more_vertices_than_the_largest_base_graph():
    # G_16 has C(16, 8) = 12,870 vertices, the most the dimension guard allows
    assert read_dimacs(io.StringIO("p edge 12870 0\n")).num_vertices == 12870
    # refused at the problem line: the bad edge line after it is never read
    with pytest.raises(SizeGuardError, match="line 1: 12871 vertices exceed the guard 12870"):
        read_dimacs(io.StringIO("p edge 12871 1\ne 1 x\n"))


def test_vertex_json(g4, tmp_path):
    path = tmp_path / "g4.vertices.json"
    write_vertex_json(g4, path)
    doc = json.loads(path.read_text())
    assert doc["n"] == 1
    assert doc["dimension"] == 4
    assert doc["num_vertices"] == 6
    assert doc["vertices"] == ["1100", "1010", "0110", "1001", "0101", "0011"]


def test_dump_json_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    doc = {"b": [1, 2], "a": {"y": 0.5, "x": 1}}
    dump_json(doc, a)
    dump_json(doc, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])


# --- JSON encoder against json.dumps ------------------------------------


def stdlib_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def encoded(doc):
    buf = io.StringIO()
    dump_json(doc, buf)
    return buf.getvalue()


def outcome(encode, doc):
    """The text, or the type and message of the error."""
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# floats where repr switches notation, the smallest subnormal, signed zeros
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,
    1e-4, 9.999999999999999e-5, 0.00010000000000000002, 1e-5, 0.1, 1 / 3,
    math.nan, math.inf, -math.inf,
]
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    floats,
    floats.map(np.float64),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text())
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.integers(), max_size=6),
        st.lists(floats, max_size=6),
        st.lists(st.lists(st.one_of(st.integers(), floats), max_size=4), max_size=4),
        st.dictionaries(st.text(), children, max_size=6),
        # dicts of one key order: the table path
        st.lists(st.fixed_dictionaries({"b": children, "a": children}), max_size=4),
    ),
    max_leaves=30,
)


@given(documents)
@settings(max_examples=300, deadline=None)
def test_dump_json_matches_json_dumps(doc):
    assert encoded(doc) == stdlib_text(doc)


scalar_keys = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)
)


@given(st.dictionaries(scalar_keys, st.integers(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_dump_json_non_str_keys_match_json_dumps(doc):
    # mixed key types fail to sort with the same TypeError
    assert outcome(encoded, doc) == outcome(stdlib_text, doc)


def test_dump_json_sorts_keys_before_turning_them_into_text():
    doc = {10: 0, 9: 0, 1.5: 0, True: 0, -1: 0}
    assert encoded(doc) == stdlib_text(doc)
    assert encoded({10: 0, 9: 0}) == '{\n  "9": 0,\n  "10": 0\n}\n'
    assert encoded({None: [1]}) == stdlib_text({None: [1]})


def test_dump_json_tables_with_braces_and_empty_lists():
    doc = [{"{0}": [], "}{": "{}", "é\n": [[1], []]}, {"{0}": [2.5], "}{": "", "é\n": [[]]}]
    assert encoded(doc) == stdlib_text(doc)


class Label(str):
    pass


class Count(int):
    def __repr__(self):
        return "Count()"


def test_dump_json_subclasses_match_json_dumps():
    doc = {
        Label("b"): [Count(3), np.float64(0.1), Label("x")],
        "a": (np.float64("nan"), Count(-2), 1, 2.5),
        "c": {Label("k"): np.float64(1e16)},
    }
    assert encoded(doc) == stdlib_text(doc)


@pytest.mark.parametrize("bad", [{1, 2}, np.int64(3), object()])
def test_dump_json_rejects_what_json_rejects(bad):
    for doc in (bad, [1, bad], {"a": {"b": bad}}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encoded(doc)
        assert outcome(encoded, doc) == outcome(stdlib_text, doc)
    with pytest.raises(TypeError, match="keys must be"):
        encoded({(1, 2): 0})


def test_dump_json_rejects_circular_documents():
    loop = [1, 2]
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        encoded(loop)
    inner = {}
    inner["self"] = [inner]
    with pytest.raises(ValueError, match="Circular reference"):
        encoded({"a": inner})
    shared = [1]
    assert encoded([shared, shared]) == stdlib_text([shared, shared])


def test_dump_json_errors_come_in_json_order():
    loop = []
    loop.append(loop)
    for doc in (
        [{"a": 1, "b": object()}, {"a": loop, "b": 2}],
        [{"a": 1, "b": 2}, {"a": loop, "b": object()}],
        [{"a": [1, 2]}, {"a": [3, np.int64(4)]}],
    ):
        assert outcome(encoded, doc) == outcome(stdlib_text, doc)
    # a row that holds another row is shared, not circular
    first = {"a": 1}
    doc = [first, {"a": first}, {"a": [first]}]
    assert encoded(doc) == stdlib_text(doc)


def test_dump_json_encodes_once_for_every_target(tmp_path, monkeypatch):
    calls = []
    encode = dimacs._encode
    monkeypatch.setattr(dimacs, "_encode", lambda doc: calls.append(1) or encode(doc))
    doc = {"b": [1, 2], "a": {"y": 0.5, "x": 1}}
    expected = stdlib_text(doc)

    buf = io.StringIO()
    dump_json(doc, buf)
    dump_json(doc, tmp_path / "one.json")
    assert buf.getvalue() == (tmp_path / "one.json").read_text() == expected
    assert len(calls) == 2

    first, second = io.StringIO(), io.StringIO()
    dump_json(doc, first, tmp_path / "two.json", second)
    assert len(calls) == 3
    for text in (first.getvalue(), (tmp_path / "two.json").read_text(), second.getvalue()):
        assert text == expected
    with pytest.raises(TypeError, match="at least one target"):
        dump_json(doc)
