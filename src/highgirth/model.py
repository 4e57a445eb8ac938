"""The edge-percolation probability space over a base graph.

A random subgraph keeps every base edge independently with probability
``p = gamma ** (4n)`` (or an explicit override at desk scale, where the
power underflows).  Two bad-event families live on this space:

* independent-set events: a fixed l-element vertex subset spans no kept
  edge, probability ``(1 - p) ** a`` where ``a`` counts its base edges;
* cycle events: a fixed s-cycle of the base graph survives entirely,
  probability ``p ** s``.

Both families are functions of disjoint-or-overlapping edge indicator
sets, so two events are dependent exactly when their edge sets intersect.

Storage: cycle events live in ``CycleBlock`` arrays, one int32 block per
length s holding the canonical vertex tuples and the ascending edge ids.
One path-growth kernel, ``_PathKernel``, is the package's only cycle
enumerator.  Its ``cycle_rows`` lists a graph's s-cycles, all roots in one
batch when they fit the guard and otherwise root by root.
``cycle_blocks`` joins those rows for a graph or, given a kept-edge
array, for that subgraph with the base edge ids: those rows are exactly
the base cycle events occurring on the subgraph, in event order, which is
all a resampling search needs.  The deletion search
walks the same rows with no guard on their total.  ``solvers.count_cycles``
counts a graph's cycles root by root without listing them (a popcount
closes each path), and ``count_cycle_blocks`` counts the base graph's
from vertex 0 alone: the graph is vertex-transitive, so that one root
gives the whole count.
Cycle ``EventSpec`` lists are only materialised by
``enumerate_cycle_events``, for ``build_event_system``: the one builder of
the ``EventSystem`` that JSON, the dependency structure and the LLL checks
read.

PRNG contract: sampling uses NumPy's PCG64 stream seeded with the model
seed, drawing one uniform per base edge in canonical edge-list order;
edge ``i`` is kept iff draw ``i`` is below ``p``.  ``_draw`` alone draws:
the sample, and then the redraws of a resampling search.  Parallel
replicas must derive their seed via ``derive_seed(seed, replica)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from math import comb

import numpy as np

from .graphs import (
    BaseGraph,
    EdgeSubset,
    Graph,
    SizeGuardError,
    _balanced_masks,
    _product_n_pairs,
)

KIND_INDEPENDENT_SET = "independent_set"
KIND_CYCLE = "cycle"

#: Event enumeration refuses above this many subsets, or this many cycles;
#: read at call time.
EVENT_ENUMERATION_GUARD = 500_000

#: ``EventSystem.neighbors`` refuses above this bound on its terms: the sum
#: over edges of c_e ** 2, c_e the number of events on edge e.
NEIGHBOR_TERM_GUARD = 20_000_000

#: Candidate extensions examined per vectorised step of ``cycle_blocks``;
#: bounds its temporary arrays independently of the graph's degree.
_STEP_CANDIDATES = 1 << 20


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the random subgraph model.

    ``p`` is recomputed from ``gamma`` as ``gamma ** (4n)`` unless an
    explicit ``p_override`` is given (the asymptotic power underflows
    quickly; finite experiments need a usable edge probability).
    """

    n: int
    gamma: float | None = None
    seed: int = 0
    p_override: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"quarter-dimension must be >= 1, got {self.n}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.p_override is None:
            if self.gamma is None:
                raise ValueError("either gamma or p_override is required")
            if not 0 < self.gamma < 1:
                raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        elif not 0 <= self.p_override <= 1:
            raise ValueError(f"p override must lie in [0, 1], got {self.p_override}")

    @property
    def p(self) -> float:
        if self.p_override is not None:
            return self.p_override
        return self.gamma ** (4 * self.n)

    def replica(self, index: int) -> "ModelParams":
        """Same model with the seed derived for a parallel replica."""
        return ModelParams(
            n=self.n,
            gamma=self.gamma,
            seed=derive_seed(self.seed, index),
            p_override=self.p_override,
        )


def derive_seed(seed: int, replica: int) -> int:
    """Deterministic per-replica seed: SeedSequence([seed, replica])."""
    return int(np.random.SeedSequence([seed, replica]).generate_state(1)[0])


def _draw(g: BaseGraph, params: ModelParams):
    """``(draw, kept)``: ``draw(m)`` keeps each of m edges iff its next uniform
    is below p, and ``kept`` is the sample, ``draw`` over the base edges."""
    if params.n != g.n:
        raise ValueError(f"params built for n={params.n}, graph has n={g.n}")
    rng = np.random.Generator(np.random.PCG64(params.seed))

    def draw(size: int) -> np.ndarray:
        return rng.random(size) < params.p

    return draw, draw(g.num_edges)


def sample_subgraph(g: BaseGraph, params: ModelParams) -> EdgeSubset:
    """Draw a random spanning subgraph; identical inputs give identical masks."""
    return EdgeSubset.from_kept(g, _draw(g, params)[1])


def log_probability(g: BaseGraph, sub: EdgeSubset, p: float) -> float:
    """Log-measure of one subgraph: |E| ln p + (M - |E|) ln(1 - p)."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    kept = sub.num_edges
    total = g.num_edges
    return kept * math.log(p) + (total - kept) * math.log1p(-p)


@dataclass(frozen=True)
class EventSpec:
    """One bad event, reduced to its edge indicator set.

    ``variable_set`` holds base edge indices: an independent-set event
    occurs when all of them are absent, a cycle event when all are
    present.  ``meta`` is the subset size l or the cycle length s;
    ``members`` the vertex indices involved.
    """

    kind: str
    variable_set: tuple[int, ...]
    meta: int
    probability: float
    members: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (KIND_INDEPENDENT_SET, KIND_CYCLE):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == KIND_CYCLE and not self.variable_set:
            raise ValueError("cycle events must involve at least one edge")

    @property
    def unavoidable(self) -> bool:
        """Probability-1 events: an independent base subset stays independent."""
        return self.kind == KIND_INDEPENDENT_SET and not self.variable_set

    def to_json(self) -> dict:
        """The event's document; ``dimacs.dump_json`` writes its tuples as arrays."""
        return vars(self).copy()


def _edge_id_matrix(g: Graph, kept: np.ndarray | None = None) -> np.ndarray:
    """Dense int32 matrix of edge indices: ``eid[u, v]`` for each edge, else -1.

    With a boolean ``kept`` over the edges, only the flagged edges are in.
    """
    eid = np.full((g.num_vertices, g.num_vertices), -1, dtype=np.int32)
    ids = np.arange(g.num_edges, dtype=np.int32)
    if kept is not None:
        ids = ids[kept]
    u, v = g.edge_array[ids].T
    eid[u, v] = ids
    eid[v, u] = ids
    return eid


def enumerate_independent_set_events(g: BaseGraph, l: int, p: float) -> list[EventSpec]:
    """One event per l-element vertex subset, in combinations order.

    Each event's edge set is the base edges inside the subset; subsets
    spanning no base edge come out with probability 1 (flagged by
    ``EventSpec.unavoidable``) and make any avoidance argument infeasible,
    which happens exactly when l is at most the base independence number.
    More than ``EVENT_ENUMERATION_GUARD`` subsets raise ``SizeGuardError``.
    """
    nv = g.num_vertices
    if not 1 <= l <= nv:
        raise ValueError(f"subset size {l} outside [1, {nv}]")
    total = comb(nv, l)
    if total > EVENT_ENUMERATION_GUARD:
        raise SizeGuardError(
            f"C({nv}, {l}) = {total} subsets exceed the enumeration guard "
            f"{EVENT_ENUMERATION_GUARD}"
        )
    eid = _edge_id_matrix(g).tolist()
    events = []
    for subset in combinations(range(nv), l):
        # a sorted subset's pairs come out in lexicographic order, which is
        # the canonical edge order, so the ids already ascend
        edge_ids = [e for u, v in combinations(subset, 2) if (e := eid[u][v]) >= 0]
        events.append(
            EventSpec(
                kind=KIND_INDEPENDENT_SET,
                variable_set=tuple(edge_ids),
                meta=l,
                probability=(1 - p) ** len(edge_ids),
                members=subset,
            )
        )
    return events


@dataclass(frozen=True)
class CycleBlock:
    """Every s-cycle of a graph as int32 rows, in lexicographic order.

    ``members[i]`` is the i-th canonical vertex tuple: it starts at the
    cycle's smallest vertex, and its second vertex is below its last.
    ``edge_ids[i]`` holds the base edge indices of that cycle, ascending.
    """

    s: int
    members: np.ndarray
    edge_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.members)


def _cycle_lengths(g: Graph, k: int) -> range:
    """The cycle lengths 3..k that ``g`` can hold: a simple cycle repeats no
    vertex, so none is longer than its vertex count.  A negative ceiling k
    raises ``ValueError``."""
    if k < 0:
        raise ValueError(f"forbidden-cycle ceiling must be >= 0, got {k}")
    return range(3, min(k, g.num_vertices) + 1)


def cycle_blocks(g: Graph, k: int, kept: np.ndarray | None = None) -> list[CycleBlock]:
    """One block per cycle length 3..min(k, N), rows in canonical lexicographic order.

    With a boolean ``kept``, only the flagged edges of ``g`` count: the rows
    are the cycles of ``g`` that survive, edge ids unchanged.  The rows come
    from ``_PathKernel.cycle_rows``, whose paths expand into their
    candidates in ascending order with their children contiguous.
    ``SizeGuardError`` is raised before the running total of cycles (over
    all lengths) or the open paths of one root pass
    ``EVENT_ENUMERATION_GUARD``.
    """
    kernel = _PathKernel(g, kept)
    guard = EVENT_ENUMERATION_GUARD
    total = 0
    blocks = []
    for s in _cycle_lengths(g, k):
        found = [np.empty((0, s), np.int32)]
        for rows in kernel.cycle_rows(s, k):
            total += len(rows)
            if total > guard:
                raise _too_many_cycles(k, guard)
            found.append(rows)
        rows = np.concatenate(found)
        blocks.append(CycleBlock(s, rows, kernel.edge_ids(rows)))
    return blocks


def count_cycle_blocks(g: BaseGraph, k: int) -> int:
    """``sum(map(len, cycle_blocks(g, k)))`` of the full base graph, counted from vertex 0.

    Permuting the 4n coordinates maps the base graph onto itself and any
    vertex onto any other, so every vertex lies on the same number c(s)
    of s-cycles, and there are N * c(s) / s of them.  Vertex 0 is the
    smallest, so the kernel's root-0 paths close into exactly the s-cycles
    through it (a popcount closes each path).  ``SizeGuardError`` comes
    with the message, and at the length, of the all-roots count: root 0
    goes first there and has the most open paths, since an automorphism
    taking r to 0 maps root r's paths injectively into root 0's.  Any
    other graph raises ``ValueError``, since the orbit argument needs the
    full base graph.
    """
    _check_full_base_graph(g)
    kernel = _PathKernel(g)
    guard = EVENT_ENUMERATION_GUARD
    total = 0
    for s in _cycle_lengths(g, k):
        total += g.num_vertices * kernel.count_closing(kernel.root_paths(s, 0)) // s
        if total > guard:
            raise _too_many_cycles(k, guard)
    return total


def _check_full_base_graph(g) -> None:
    """``ValueError`` unless ``g`` is a base graph, up to the order of its vertices.

    Its masks must be every balanced mask of width 4n, once each, and its
    edges every pair of them with scalar product n.
    """
    if isinstance(g, BaseGraph):
        dim = g.dimension
        masks = [v.mask for v in g.vertices]
        if (  # the count first: no mask list is built past the graph's own size
            len(masks) == comb(dim, dim // 2)
            and sorted(masks) == _balanced_masks(dim)
            and np.array_equal(g.edge_array, _product_n_pairs(masks, dim, g.n))
        ):
            return
    raise ValueError("the cycle count from one vertex needs the full base graph")


def _too_many_cycles(k, guard):
    return SizeGuardError(f"cycles of length 3..{k} exceed the enumeration guard {guard}")


class _PathKernel:
    """The path-growth kernel of the cycle enumerator, over one graph.

    The graph is ``g``, or with a boolean ``kept`` over its edges the
    subgraph of the flagged edges; edge ids are always those of ``g``.  A
    path is an int32 row (root, v1, .., vm) of distinct vertices, all
    above the root.  ``grow`` extends paths one vertex at a time, each
    into its candidates in ascending order with its children contiguous,
    so rows stay in lexicographic order whenever the paths they grew from
    were.  The ascending neighbour lists ``indptr``/``nbrs`` are read off
    the kept edge rows; the dense edge-id matrix ``eid`` serves the
    lookups that close a cycle and name its edges.
    """

    def __init__(self, g: Graph, kept: np.ndarray | None = None):
        self.eid = _edge_id_matrix(g, kept)
        nv = self.num_vertices = g.num_vertices
        # each edge in both directions as the key src << bits | dst, in the
        # smallest unsigned type that holds it: sorted, the keys list each
        # vertex's neighbours ascending, one vertex after another
        bits = max(nv - 1, 0).bit_length()
        ends = g.edge_array if kept is None else g.edge_array[kept]
        ends = ends.astype(np.min_scalar_type(nv << bits))
        key = (ends << bits | ends[:, ::-1]).T.ravel()
        key.sort()
        self.indptr = np.searchsorted(key, np.arange(nv + 1, dtype=key.dtype) << bits)
        self.nbrs = (key & ((1 << bits) - 1)).astype(np.int32)
        max_degree = int(np.diff(self.indptr).max(initial=0))
        self.step = max(1, _STEP_CANDIDATES // max(1, max_degree))  # paths per step

    def starts(self, lo: int, hi: int) -> np.ndarray:
        """The paths (root, v1) with v1 above the root, of roots lo..hi-1."""
        roots = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(self.indptr[lo:hi + 1]))
        first = self.nbrs[self.indptr[lo]:self.indptr[hi]]
        return np.column_stack((roots, first))[first > roots]

    def open_paths(self, paths, s, limit):
        """``paths`` grown to the s - 1 vertices an s-cycle closes from, or None
        once a step would give more than ``limit`` rows."""
        for _ in range(s - 3):
            paths = self.grow(paths, limit, close=False)
            if paths is None:
                break
        return paths

    def cycle_rows(self, s, k):
        """Yield the s-cycle rows of the graph, in lexicographic order.

        All roots come in one batch when their open paths and rows stay
        within ``EVENT_ENUMERATION_GUARD``; otherwise each root comes on
        its own, bounded the same way, so memory stays bounded without a
        guard on the total.  A root with too many rows raises the
        cycles-of-length-3..k error; too many open paths, the open-path one.
        """
        guard = EVENT_ENUMERATION_GUARD
        paths = self.open_paths(self.starts(0, self.num_vertices), s, guard)
        rows = None if paths is None else self.grow(paths, guard, close=True)
        if rows is not None:
            yield rows
            return
        for root in range(self.num_vertices):
            rows = self.grow(self.root_paths(s, root), guard, close=True)
            if rows is None:
                raise _too_many_cycles(k, guard)
            yield rows

    def edge_ids(self, rows):
        """The ascending edge ids of each cycle row."""
        edge_ids = self.eid[rows, np.roll(rows, -1, axis=1)]
        edge_ids.sort(axis=1)
        return edge_ids

    def root_paths(self, s, root):
        """One root's open paths towards s-cycles; ``SizeGuardError`` past the guard."""
        guard = EVENT_ENUMERATION_GUARD
        paths = self.open_paths(self.starts(root, root + 1), s, guard)
        if paths is None:
            raise SizeGuardError(
                f"open paths from vertex {root} towards {s}-cycles "
                f"exceed the enumeration guard {guard}"
            )
        return paths

    def grow(self, paths, limit, close):
        """Extend every path by one vertex, in lexicographic order.

        A path (root, v1, .., vm) takes every neighbour w of vm above the
        root and off the path.  With ``close`` set, w must also be adjacent
        to the root and above v1 (the reflection bound), so each row is a
        cycle.  Returns None, before allocating them, once more than
        ``limit`` rows would come out.
        """
        eid, indptr, nbrs = self.eid, self.indptr, self.nbrs
        m = paths.shape[1]
        out = []
        rows_out = 0
        for lo in range(0, len(paths), self.step):
            chunk = paths[lo:lo + self.step]
            last = chunk[:, -1]
            counts = indptr[last + 1] - indptr[last]
            rows = np.repeat(np.arange(len(chunk)), counts)
            offsets = np.repeat(indptr[last] - np.cumsum(counts) + counts, counts)
            w = nbrs[offsets + np.arange(len(rows))]
            prefix = chunk[rows]
            if close:
                keep = (w > prefix[:, 1]) & (eid[w, prefix[:, 0]] >= 0)
                interior = range(2, m - 1)
            else:
                keep = w > prefix[:, 0]
                interior = range(1, m - 1)
            for j in interior:  # w is never the last vertex: no self-loops
                keep &= w != prefix[:, j]
            rows_out += int(np.count_nonzero(keep))
            if rows_out > limit:
                return None
            out.append(np.column_stack((prefix[keep], w[keep])))
        return np.concatenate(out) if out else np.empty((0, m + 1), np.int32)

    def count_closing(self, paths) -> int:
        """``len(grow(paths, limit, close=True))``, without building the rows.

        The candidates that close a path are the bits of ``adj[vm] &
        adj[root] & above[v1] & ~interior``, counted word by word through
        a 16-bit popcount table.
        """
        adj, above, single = self._words
        table = _popcount16()
        count = 0
        for lo in range(0, len(paths), self.step):
            chunk = paths[lo:lo + self.step]
            words = adj[chunk[:, -1]] & adj[chunk[:, 0]] & above[chunk[:, 1]]
            for j in range(2, chunk.shape[1] - 1):
                words &= ~single[chunk[:, j]]
            count += int(table[words].sum())
        return count

    @cached_property
    def _words(self):
        """Adjacency, "above v" and one-hot rows, packed into uint16 words."""
        nv = self.num_vertices
        above = np.triu(np.ones((nv, nv), dtype=bool), 1)
        return [_pack_words(bits) for bits in (self.eid >= 0, above, np.eye(nv, dtype=bool))]


@cache
def _popcount16() -> np.ndarray:
    """Set bits of every 16-bit value: a 65,536-entry uint8 table."""
    values = np.arange(1 << 16, dtype=np.uint16)
    table = np.zeros(1 << 16, dtype=np.uint8)
    for b in range(16):
        table += (values >> b & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Each row of a boolean matrix as uint16 words, bit j in word j // 16."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    if packed.shape[1] % 2:
        packed = np.pad(packed, ((0, 0), (0, 1)))
    return np.ascontiguousarray(packed).view(np.uint16)


def enumerate_cycle_events(g: BaseGraph, k: int, p: float) -> list[EventSpec]:
    """One event per distinct cycle of length 3..min(k, N), in canonical order."""
    events = []
    for block in cycle_blocks(g, k):
        probability = p**block.s
        events.extend(
            EventSpec(
                kind=KIND_CYCLE,
                variable_set=tuple(edge_ids),
                meta=block.s,
                probability=probability,
                members=tuple(members),
            )
            for members, edge_ids in zip(
                block.members.tolist(), block.edge_ids.tolist()
            )
        )
    return events


@dataclass
class EventSystem:
    """Enumerated events plus their dependency structure.

    Two events are neighbors exactly when their edge sets intersect.
    Probability-1 independent-set events are split off into
    ``unavoidable`` and excluded from the dependency graph; their presence
    makes the whole avoidance problem infeasible and downstream checkers
    report it.  Neighborhoods are computed on first access: resampling
    searches never need them, and on cycle-rich base graphs they are by
    far the most expensive part of the system, so a system whose
    neighbour terms may pass ``NEIGHBOR_TERM_GUARD`` raises
    ``SizeGuardError`` before any is built.
    """

    events: list[EventSpec]
    unavoidable: list[EventSpec] = field(default_factory=list)

    def __post_init__(self):
        for ev in self.events:
            if ev.unavoidable:
                raise ValueError("unavoidable events cannot enter a system")
        self._neighbors: list[list[int]] | None = None

    @property
    def neighbors(self) -> list[list[int]]:
        if self._neighbors is None:
            by_edge: dict[int, list[int]] = {}
            for i, ev in enumerate(self.events):
                for e in ev.variable_set:
                    by_edge.setdefault(e, []).append(i)
            bound = sum(len(ids) ** 2 for ids in by_edge.values())
            if bound > NEIGHBOR_TERM_GUARD:
                raise SizeGuardError(
                    f"neighbourhoods of {len(self.events)} events may hold up "
                    f"to {bound} terms (the sum of squared events per edge), "
                    f"over the guard {NEIGHBOR_TERM_GUARD}"
                )
            neighbors: list[list[int]] = []
            for i, ev in enumerate(self.events):
                seen = set()
                for e in ev.variable_set:
                    seen.update(by_edge[e])
                seen.discard(i)
                neighbors.append(sorted(seen))
            self._neighbors = neighbors
        return self._neighbors

    @classmethod
    def from_events(cls, events: list[EventSpec]) -> "EventSystem":
        retained = [ev for ev in events if not ev.unavoidable]
        unavoidable = [ev for ev in events if ev.unavoidable]
        return cls(events=retained, unavoidable=unavoidable)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def feasible(self) -> bool:
        return not self.unavoidable

    @property
    def probabilities(self) -> list[float]:
        return [ev.probability for ev in self.events]

    def to_json(self) -> dict:
        return {
            "events": [ev.to_json() for ev in self.events],
            "unavoidable": [ev.to_json() for ev in self.unavoidable],
        }


def build_event_system(g: BaseGraph, k: int, l: int | None, p: float) -> EventSystem:
    """The event system of ``g``: the l-subset events, then the cycles of length 3..k.

    With ``l`` None there are no subset events.  The events come from
    ``enumerate_independent_set_events`` and ``enumerate_cycle_events``, and
    ``EventSystem.from_events`` sets the unavoidable subsets apart.  An l
    outside [1, N] or a negative k raises ``ValueError``; more than
    ``EVENT_ENUMERATION_GUARD`` subsets, or cycles, raise ``SizeGuardError``.
    """
    _cycle_lengths(g, k)  # a negative k is refused before any enumeration
    subsets = [] if l is None else enumerate_independent_set_events(g, l, p)
    return EventSystem.from_events(subsets + enumerate_cycle_events(g, k, p))
