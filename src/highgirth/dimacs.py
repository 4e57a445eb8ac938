"""DIMACS edge-format and JSON serialization.

The DIMACS dialect used here: optional ``c`` comment lines, exactly one
``p edge N M`` problem line, then one ``e u v`` line per edge with
1-indexed vertex ids.  Files written by this module list edges in
canonical order, so write -> read -> write is byte-identical.  A problem
line with more vertices than the largest base graph the size guard allows,
C(16, 8) = 12,870, is refused with ``SizeGuardError`` before any edge line
is read.  A negative count, or more edges than the vertices can hold, is
refused at the problem line, and an edge line past the declared count at
that line, so the edge list never outgrows the graph it declares.

Every JSON document the package writes goes through ``dump_json``: sorted
keys, 2-space indent, ASCII-only escapes and a final newline, byte for
byte the text of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.
The standard library falls back to its pure-Python generator whenever
``indent`` is set.  ``dump_json`` instead builds each container's text
with ``str.join`` and encodes lists a column at a time: a list of one
scalar type maps to text in one call, and a list of dicts that share a
key order (an event system's events) is filled in one key at a time from
a row template, with the keys sorted once per shape.  It does so only for
the exact types the package writes; a document holding anything else is
given whole to ``json.dumps``.  It encodes a document once and writes that
text to every target it is given.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import comb, isfinite
from operator import itemgetter
from pathlib import Path
from typing import IO

from .graphs import DIMENSION_GUARD, BaseGraph, Graph, SizeGuardError

#: The vertex count of the largest base graph under the dimension guard.
_MAX_VERTICES = comb(DIMENSION_GUARD, DIMENSION_GUARD // 2)


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def write_dimacs(g: Graph, target: str | Path | IO[str]) -> None:
    """Write ``g`` in DIMACS edge format with 1-indexed vertices."""
    if hasattr(target, "write"):
        _write_dimacs(g, target)
    else:
        with open(target, "w") as fh:
            _write_dimacs(g, fh)


def _write_dimacs(g: Graph, fh: IO[str]) -> None:
    fh.write(f"p edge {g.num_vertices} {g.num_edges}\n")
    for u, v in g.edge_list:
        fh.write(f"e {u + 1} {v + 1}\n")


def read_dimacs(source: str | Path | IO[str]) -> Graph:
    """Parse a DIMACS edge-format graph; raises ``DimacsError`` on bad input
    and ``SizeGuardError`` on more than 12,870 vertices."""
    if hasattr(source, "read"):
        return _read_dimacs(source)
    with open(source) as fh:
        return _read_dimacs(fh)


def _read_dimacs(fh: IO[str]) -> Graph:
    num_vertices = None
    declared_edges = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if num_vertices is not None:
                raise DimacsError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"malformed problem line {line!r}", lineno)
            try:
                num_vertices = int(fields[2])
                declared_edges = int(fields[3])
            except ValueError:
                raise DimacsError(f"non-integer counts in {line!r}", lineno) from None
            if num_vertices > _MAX_VERTICES:
                raise SizeGuardError(
                    f"line {lineno}: {num_vertices} vertices exceed the guard {_MAX_VERTICES}"
                )
            if num_vertices < 0:
                raise DimacsError(f"negative vertex count in {line!r}", lineno)
            most = num_vertices * (num_vertices - 1) // 2
            if not 0 <= declared_edges <= most:
                raise DimacsError(
                    f"problem line declares {declared_edges} edges; "
                    f"{num_vertices} vertices hold 0 to {most}",
                    lineno,
                )
        elif fields[0] == "e":
            if num_vertices is None:
                raise DimacsError("edge line before problem line", lineno)
            if len(edges) == declared_edges:
                raise DimacsError(
                    f"edge line past the {declared_edges} edges the problem line declares",
                    lineno,
                )
            if len(fields) != 3:
                raise DimacsError(f"malformed edge line {line!r}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"non-integer endpoint in {line!r}", lineno) from None
            if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
                raise DimacsError(f"endpoint out of range in {line!r}", lineno)
            if u == v:
                raise DimacsError(f"self-loop in {line!r}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise DimacsError(f"unknown line type {fields[0]!r}", lineno)
    if num_vertices is None:
        raise DimacsError("missing problem line", 0)
    if declared_edges != len(edges):
        raise DimacsError(
            f"problem line declares {declared_edges} edges, found {len(edges)}", 0
        )
    return Graph(num_vertices, edges)


def write_vertex_json(g: BaseGraph, target: str | Path | IO[str]) -> None:
    """Write the base graph's vertex bit patterns as a JSON document."""
    doc = {
        "n": g.n,
        "dimension": g.dimension,
        "num_vertices": g.num_vertices,
        "vertices": g.vertex_strings(),
    }
    dump_json(doc, target)


def dump_json(doc, *targets: str | Path | IO[str]) -> None:
    """Encode ``doc`` once and write the text to each target, in order.

    A target is a path (created or truncated) or an open text stream.  The
    text equals ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``,
    and a document JSON cannot hold raises ``json``'s own ``TypeError`` or
    ``ValueError``.
    """
    if not targets:
        raise TypeError("dump_json needs at least one target")
    text = _encode(doc) + "\n"
    for target in targets:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as fh:
                fh.write(text)


class _Foreign(Exception):
    """A value of a type the package does not write."""


class _Newlines(dict):
    """``newlines[d]``: a line break indented to depth d."""

    def __missing__(self, depth: int) -> str:
        text = self[depth] = "\n" + "  " * depth
        return text


def _scalar_text(xs):
    """The text function for a sequence of one exact type of JSON scalar:
    ``int``, ``str`` or finite ``float``; else None."""
    kinds = set(map(type, xs))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is int:
        return int.__repr__
    if kind is str:
        return encode_basestring_ascii
    if kind is float and all(map(isfinite, xs)):
        return float.__repr__
    return None


def _encode(doc) -> str:
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)``.

    Encodes the exact types the package writes: ``dict`` with ``str`` keys,
    ``list``, ``tuple``, ``str``, ``int``, ``float``, ``bool`` and ``None``.
    A list is encoded a column at a time where it can be: scalars of one
    type, lists of such scalars and dicts of one key order (rows after the
    first matched to its keys by equality) map straight to text.  Anything
    else, a subclass, a key that is not a ``str`` or a document that holds
    itself (and so recurses without end), gives the whole document to
    ``json.dumps``: its text, or its error, is then the result.
    """
    newlines = _Newlines()
    shapes = {}  # (key tuple, depth) -> (sorted keys, '"key": ' lines)

    def value(x, depth: int) -> str:
        t = type(x)
        if t is str:
            return encode_basestring_ascii(x)
        if t is int:
            return int.__repr__(x)
        if t is float:
            if isfinite(x):
                return float.__repr__(x)
            return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
        if t is list or t is tuple:
            return array(x, depth)
        if t is dict:
            return obj(x, depth)
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        raise _Foreign

    def array(xs, depth: int) -> str:
        if not xs:
            return "[]"
        items = ("," + newlines[depth + 1]).join(column(xs, depth + 1))
        return "".join(("[", newlines[depth + 1], items, newlines[depth], "]"))

    def column(xs, depth: int):
        """The texts of the items of a list or tuple, all at ``depth``."""
        text = _scalar_text(xs)
        if text is not None:
            return map(text, xs)
        kinds = set(map(type, xs))
        if kinds == {dict}:
            keys = tuple(xs[0])
            if keys and all(map(keys.__eq__, map(tuple, xs))):
                # a table: each row filled in from one template, a key at a time
                order, lines = shape(keys, depth)
                columns = [column(list(map(itemgetter(k), xs)), depth + 1) for k in order]
                row = "{}".join(line.replace("{", "{{").replace("}", "}}") for line in lines)
                return map((row + "{}" + newlines[depth] + "}}").format, *columns)
        elif kinds <= {list, tuple} and all(xs):
            text = _scalar_text(list(chain.from_iterable(xs)))
            if text is not None:
                inner = newlines[depth + 1]
                brackets = "[" + inner + "{}" + newlines[depth] + "]"
                return map(brackets.format, map(("," + inner).join, map(map, repeat(text), xs)))
        return [value(x, depth) for x in xs]

    def shape(keys: tuple, depth: int) -> tuple[list[str], list[str]]:
        """Sorted keys and their lines, for a key order of exact ``str`` keys."""
        if set(map(type, keys)) != {str}:
            raise _Foreign
        found = shapes.get((keys, depth))
        if found is None:
            order = sorted(keys)
            found = shapes[keys, depth] = (order, _key_lines(order, newlines[depth + 1]))
        return found

    def obj(d: dict, depth: int) -> str:
        if not d:
            return "{}"
        order, lines = shape(tuple(d), depth)
        values = [value(d[k], depth + 1) for k in order]
        return "".join([*chain.from_iterable(zip(lines, values)), newlines[depth], "}"])

    try:
        return value(doc, 0)
    except (_Foreign, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True)


def _key_lines(keys: list[str], inner: str) -> list[str]:
    """The text before each value of an object: brace or comma, newline, key."""
    lines = ["," + inner + encode_basestring_ascii(k) + ": " for k in keys]
    lines[0] = "{" + lines[0][1:]
    return lines
