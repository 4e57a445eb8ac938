"""Base distance graphs on balanced 0/1 vectors.

The base graph in quarter-dimension ``n`` has one vertex per 0/1 vector of
length ``4n`` with exactly ``2n`` ones; two vertices are adjacent when their
Euclidean scalar product equals ``n``.  Every edge then has squared length
``2n`` exactly, so the graph sits in R^{4n} as a sqrt(2n)-distance graph
(rescalable to unit distance by homothety).

Vertices are stored as integer bitmasks (bit ``i`` holds coordinate ``i+1``)
and listed in colexicographic order of their supports, which coincides with
increasing numeric order of the masks.  All orderings are deterministic:
two constructions of the same graph are identical element for element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from math import comb, exp, log
from typing import Iterator

import numpy as np

#: Refuse full materialization above this many coordinates.
#: C(16,8) = 12870 vertices is the practical desk ceiling.
DIMENSION_GUARD = 16

#: An edge mask's text: lowercase hex digits, as ``EdgeSubset.mask_hex``
#: writes them and as certificates hold them.
_HEX_MASK = re.compile("[0-9a-f]+")


class SizeGuardError(ValueError):
    """A requested construction exceeds the configured size guard."""


class MetricError(ValueError):
    """An edge violates the common squared-distance invariant."""

    def __init__(self, message: str, edge: tuple[int, int] | None = None):
        super().__init__(message)
        self.edge = edge


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class BitVertex:
    """A balanced 0/1 vector of even length, stored as a bitmask.

    Bit ``i`` of ``mask`` is coordinate ``i+1``; exactly half the
    coordinates must be 1.
    """

    mask: int
    length: int

    def __post_init__(self):
        if self.length <= 0 or self.length % 2:
            raise ValueError(f"length must be positive and even, got {self.length}")
        if self.mask < 0 or self.mask >> self.length:
            raise ValueError("mask does not fit in the declared length")
        if self.mask.bit_count() * 2 != self.length:
            raise ValueError(
                f"expected {self.length // 2} ones in a vector of length {self.length}, "
                f"got {self.mask.bit_count()}"
            )

    @classmethod
    def from_string(cls, bits: str) -> "BitVertex":
        """Parse a '0'/'1' string; leftmost character is coordinate 1."""
        mask = 0
        for i, ch in enumerate(bits):
            if ch == "1":
                mask |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(mask, len(bits))

    def to_string(self) -> str:
        return "".join("1" if (self.mask >> i) & 1 else "0" for i in range(self.length))

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def coords(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.length))


def scalar_product(x: BitVertex, y: BitVertex) -> int:
    """Euclidean scalar product of two 0/1 vectors: |{i : x_i = y_i = 1}|."""
    if x.length != y.length:
        raise ValueError(f"length mismatch: {x.length} vs {y.length}")
    return (x.mask & y.mask).bit_count()


def _canonical_edges(num_vertices: int, edges) -> np.ndarray:
    """Validated edges as sorted ``(u, v)`` rows with ``u < v``.

    Raises ``ValueError`` for anything but integer pairs, naming the first
    self-loop or out-of-range edge in input order, or the first duplicate
    in canonical order.
    """
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if not pairs.size:
        pairs = np.empty((0, 2), dtype=np.int64)
    elif pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError("edges must be pairs of integer vertex indices")
    pairs = pairs.astype(np.int64, copy=False)
    u, v = pairs[:, 0], pairs[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo == hi) | (lo < 0) | (hi >= num_vertices)
    if bad.any():
        a, b = pairs[bad.argmax()].tolist()
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        raise ValueError(f"edge ({a}, {b}) out of range")
    key = lo * num_vertices + hi
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        lo, hi, key = lo[order], hi[order], key[order]
        dup = np.flatnonzero(key[1:] == key[:-1])
        if len(dup):
            raise ValueError(f"duplicate edge {(int(lo[dup[0]]), int(hi[dup[0]]))}")
    return np.column_stack((lo, hi))


def _edge_tuples(num_vertices: int, edge_array: np.ndarray) -> list[tuple[int, int]]:
    """The edge rows as tuples that share one int object per vertex."""
    ends = np.array(range(num_vertices), dtype=object)[edge_array]
    return list(zip(ends[:, 0].tolist(), ends[:, 1].tolist()))


#: Cells per row block of the dense matrices the graph builders fill; bounds
#: their temporaries whatever the vertex count.
_BLOCK_CELLS = 1 << 22


def _adjacency_masks(num_vertices: int, canon: np.ndarray) -> list[int]:
    """Per-vertex neighbour bitmasks from canonical ``(u, v)`` edge rows.

    Rows of a dense 0/1 adjacency block are packed little-endian, so bit
    ``w`` of vertex ``v``'s int is set exactly when ``{v, w}`` is an edge.
    Blocks of rows bound the dense matrix to ``_BLOCK_CELLS`` cells.
    """
    u, v = canon[:, 0], canon[:, 1]
    rows = max(1, _BLOCK_CELLS // max(num_vertices, 1))
    adj: list[int] = []
    for start in range(0, num_vertices, rows):
        stop = min(start + rows, num_vertices)
        dense = np.zeros((stop - start, num_vertices), dtype=bool)
        for src, dst in ((u, v), (v, u)):
            inside = (src >= start) & (src < stop)
            dense[src[inside] - start, dst[inside]] = True
        packed = np.packbits(dense, axis=1, bitorder="little")
        adj.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return adj


class Graph:
    """An undirected graph on vertices ``0..num_vertices-1``.

    Edges are kept canonically as sorted ``(u, v)`` pairs with ``u < v``:
    an ``(E, 2)`` array, and a list of tuples built on first use.
    Adjacency is a bitmask per vertex for fast set algebra.
    """

    __slots__ = ("num_vertices", "edge_array", "adj", "_edge_list", "_edge_start")

    def __init__(self, num_vertices: int, edges):
        if num_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        self.num_vertices = num_vertices
        #: The canonical edge list as an (E, 2) int64 array.
        self.edge_array: np.ndarray = _canonical_edges(num_vertices, edges)
        self.adj: list[int] = _adjacency_masks(num_vertices, self.edge_array)
        self._edge_list: list[tuple[int, int]] | None = None
        self._edge_start: list[int] | None = None

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        """The canonical edge list as ``(u, v)`` tuples."""
        if self._edge_list is None:
            self._edge_list = _edge_tuples(self.num_vertices, self.edge_array)
        return self._edge_list

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def edge_index(self, u: int, v: int) -> int:
        """Index of edge ``{u, v}`` in the canonical edge list.

        Raises ``KeyError`` when ``{u, v}`` is not an edge.  The index is
        the number of edges whose smaller end is below ``u``, plus the
        neighbours of ``u`` strictly between ``u`` and ``v``.
        """
        if u > v:
            u, v = v, u
        if not (0 <= u and v < self.num_vertices and (self.adj[u] >> v) & 1):
            raise KeyError((u, v))
        if self._edge_start is None:
            self._edge_start = np.searchsorted(
                self.edge_array[:, 0], np.arange(self.num_vertices)
            ).tolist()
        between = (self.adj[u] >> (u + 1)) & ((1 << (v - u - 1)) - 1)
        return self._edge_start[u] + between.bit_count()


class BaseGraph(Graph):
    """The fully materialized base graph for quarter-dimension ``n``."""

    __slots__ = ("n", "vertices")

    def __init__(self, n: int, vertices: list[BitVertex], edges):
        super().__init__(len(vertices), edges)
        self.n = n
        self.vertices = vertices

    @property
    def dimension(self) -> int:
        return 4 * self.n

    def vertex_strings(self) -> list[str]:
        return [v.to_string() for v in self.vertices]


def _balanced_masks(dim: int) -> list[int]:
    """All masks of width ``dim`` with ``dim/2`` set bits, in numeric order."""
    mask = (1 << (dim // 2)) - 1
    limit = 1 << dim
    out = []
    while mask < limit:
        out.append(mask)
        # Gosper's hack: next larger mask with the same popcount
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple
    return out


def build_base_graph(n: int) -> BaseGraph:
    """Construct the base graph for quarter-dimension ``n``.

    Vertices are the C(4n, 2n) balanced 0/1 vectors in colexicographic
    order; edges join vectors with scalar product exactly ``n``.  Refuses
    dimensions above ``DIMENSION_GUARD`` with ``SizeGuardError``.
    """
    if n < 1:
        raise ValueError(f"quarter-dimension must be >= 1, got {n}")
    dim = 4 * n
    if dim > DIMENSION_GUARD:
        raise SizeGuardError(f"dimension {dim} exceeds guard {DIMENSION_GUARD}")
    masks = _balanced_masks(dim)
    vertices = [BitVertex(m, dim) for m in masks]
    return BaseGraph(n, vertices, _product_n_pairs(masks, dim, n))


@cache
def _popcount16() -> np.ndarray:
    """Set bits of every 16-bit value: a 65,536-entry uint8 table."""
    values = np.arange(1 << 16, dtype=np.uint16)
    table = np.zeros(1 << 16, dtype=np.uint8)
    for b in range(16):
        table += (values >> b & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def _product_n_pairs(masks: list[int], dim: int, n: int) -> np.ndarray:
    """All pairs ``i < j`` with ``|masks[i] & masks[j]| == n``, as (E, 2) rows.

    The ``dim``-bit masks are split into 16-bit limbs, and the AND of each
    limb pair is counted through a 65,536-entry popcount table, one block
    of rows at a time; ``np.nonzero`` over each block's upper triangle
    yields the pairs in lexicographic order.
    """
    table = _popcount16()
    arr = np.array(masks, dtype=np.uint64)
    limbs = [
        (arr >> np.uint64(shift) & np.uint64(0xFFFF)).astype(np.uint16)
        for shift in range(0, dim, 16)
    ]
    size = len(masks)
    rows = max(1, _BLOCK_CELLS // max(size, 1))
    found = [np.empty((0, 2), dtype=np.int64)]
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        count = np.zeros((stop - start, size), dtype=np.uint8)
        for limb in limbs:
            count += table[limb[start:stop, None] & limb[None, :]]
        i, j = np.nonzero(np.triu(count == n, k=start + 1))
        found.append(np.column_stack((i + start, j)))
    return np.concatenate(found)


@dataclass(frozen=True)
class EdgeSubset:
    """A subset of a base graph's edges, as a bitmask over its edge list.

    Bit ``i`` of ``mask`` marks membership of ``base.edge_list[i]``.  The
    vertex set is always the full base vertex set (spanning subgraph).
    """

    base: BaseGraph
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.base.num_edges:
            raise ValueError("edge mask wider than the base edge list")

    @classmethod
    def empty(cls, base: BaseGraph) -> "EdgeSubset":
        return cls(base, 0)

    @classmethod
    def full(cls, base: BaseGraph) -> "EdgeSubset":
        return cls(base, (1 << base.num_edges) - 1)

    @classmethod
    def from_edge_indices(cls, base: BaseGraph, indices) -> "EdgeSubset":
        kept = bytearray(base.num_edges)
        for i in indices:
            if not 0 <= i < base.num_edges:
                raise ValueError(f"edge index {i} out of range")
            kept[i] = 1
        return cls.from_kept(base, np.frombuffer(kept, dtype=bool))

    @classmethod
    def from_hex(cls, base: BaseGraph, hex_mask: str) -> "EdgeSubset":
        """The subset of a mask written as ``mask_hex`` writes it; other text
        raises ``ValueError``."""
        if _HEX_MASK.fullmatch(hex_mask) is None:
            raise ValueError(f"edge mask must be lowercase hex digits, got {hex_mask!r}")
        return cls(base, int(hex_mask, 16))

    @classmethod
    def from_kept(cls, base: BaseGraph, kept: np.ndarray) -> "EdgeSubset":
        """The subset of the edges flagged in a boolean array; inverts ``_index_array``."""
        packed = np.packbits(kept, bitorder="little")
        return cls(base, int.from_bytes(packed.tobytes(), "little"))

    @property
    def num_edges(self) -> int:
        return self.mask.bit_count()

    def _index_array(self) -> np.ndarray:
        """Set-bit positions of the mask, ascending, via ``np.unpackbits``."""
        raw = self.mask.to_bytes((self.base.num_edges + 7) // 8, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return np.flatnonzero(bits)

    def edge_indices(self) -> list[int]:
        return self._index_array().tolist()

    def edges(self) -> list[tuple[int, int]]:
        el = self.base.edge_list
        return [el[i] for i in self.edge_indices()]

    def to_graph(self) -> Graph:
        return Graph(self.base.num_vertices, self.base.edge_array[self._index_array()])

    def mask_hex(self) -> str:
        """Hex encoding of the mask, zero-padded to cover the edge list."""
        width = (self.base.num_edges + 3) // 4
        return format(self.mask, f"0{max(width, 1)}x")


def verify_unit_distance(g: BaseGraph) -> int:
    """Check every edge has squared Euclidean distance exactly ``2n``.

    Returns the common squared distance ``2n`` on success; raises
    ``MetricError`` naming the first violating edge otherwise.  For 0/1
    vectors the squared distance is the Hamming distance, so the check is
    exact integer arithmetic.
    """
    target = 2 * g.n
    for u, v in g.edge_list:
        d2 = (g.vertices[u].mask ^ g.vertices[v].mask).bit_count()
        if d2 != target:
            raise MetricError(
                f"edge ({u}, {v}) has squared distance {d2}, expected {target}",
                edge=(u, v),
            )
    return target


def embed_codimension(g: BaseGraph, j: int) -> list[tuple[int, ...]]:
    """Isometric copy of the vertex set in dimension ``4n + j``.

    Appends ``j`` zero coordinates to each vertex; all pairwise distances
    are preserved exactly.
    """
    if j < 0:
        raise ValueError(f"codimension must be >= 0, got {j}")
    tail = (0,) * j
    return [v.coords() + tail for v in g.vertices]


@dataclass(frozen=True)
class CountSummary:
    """Closed-form counts and finite growth rates for the base graph."""

    n: int
    num_vertices: int
    num_edges: int          # unordered edge count
    ordered_edge_count: int  # counts each edge twice
    vertex_rate: float      # num_vertices ** (1 / 4n)
    edge_rate: float        # ordered_edge_count ** (1 / 4n)


def count_formulas(n: int) -> CountSummary:
    """Vertex and edge counts with their per-coordinate growth rates.

    N = C(4n, 2n) and the unordered edge count M = C(4n, 2n) * C(2n, n)^2 / 2.
    The ordered count 2M is reported alongside, and the rates N^(1/4n) and
    (2M)^(1/4n) approach 2 and 4 respectively as n grows.  Counts use exact
    integer arithmetic.
    """
    if n < 1:
        raise ValueError(f"quarter-dimension must be >= 1, got {n}")
    nv = comb(4 * n, 2 * n)
    ordered = nv * comb(2 * n, n) ** 2
    if ordered % 2:
        raise AssertionError("ordered edge count must be even")
    dim = 4 * n
    return CountSummary(
        n=n,
        num_vertices=nv,
        num_edges=ordered // 2,
        ordered_edge_count=ordered,
        vertex_rate=exp(log(nv) / dim),
        edge_rate=exp(log(ordered) / dim),
    )
