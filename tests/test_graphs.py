import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from highgirth import (
    BaseGraph,
    BitVertex,
    EdgeSubset,
    Graph,
    ModelParams,
    MetricError,
    SizeGuardError,
    build_base_graph,
    count_formulas,
    embed_codimension,
    sample_subgraph,
    scalar_product,
    verify_unit_distance,
)
from highgirth.graphs import iter_bits

from oracles import base_graph_pairscan, edges_within_exhaustive, mask_of_edge_indices


def test_g4_structure(g4):
    assert g4.num_vertices == 6
    assert g4.num_edges == 12
    assert all(g4.degree(v) == 4 for v in range(6))
    assert g4.vertex_strings() == ["1100", "1010", "0110", "1001", "0101", "0011"]


def test_g4_adjacency_of_first_vertex(g4):
    labels = g4.vertex_strings()
    idx = {s: i for i, s in enumerate(labels)}
    v = idx["1100"]
    neighbors = {labels[w] for w in g4.neighbors(v)}
    assert neighbors == {"1010", "1001", "0110", "0101"}
    assert not g4.has_edge(v, idx["0011"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counts_match_formulas(n, g4, g8, g12):
    g = {1: g4, 2: g8, 3: g12}[n]
    summary = count_formulas(n)
    assert g.num_vertices == summary.num_vertices
    assert g.num_edges == summary.num_edges
    assert summary.ordered_edge_count == 2 * summary.num_edges
    degree = summary.ordered_edge_count // summary.num_vertices
    assert all(g.degree(v) == degree for v in range(g.num_vertices))


def test_count_formula_values():
    assert (count_formulas(1).num_vertices, count_formulas(1).num_edges) == (6, 12)
    assert (count_formulas(2).num_vertices, count_formulas(2).num_edges) == (70, 1260)
    assert (count_formulas(3).num_vertices, count_formulas(3).num_edges) == (924, 184800)
    # rates approach 2 and 4 from below
    r1, r5 = count_formulas(1), count_formulas(5)
    assert r1.vertex_rate < r5.vertex_rate < 2
    assert r1.edge_rate < r5.edge_rate < 4


def test_scalar_product_examples():
    v = BitVertex.from_string
    assert scalar_product(v("1100"), v("1100")) == 2
    assert scalar_product(v("1100"), v("0011")) == 0
    assert scalar_product(v("11110000"), v("11001100")) == 2
    with pytest.raises(ValueError, match="length mismatch"):
        scalar_product(v("1100"), v("11001100"))


def test_bitvertex_validation():
    with pytest.raises(ValueError):
        BitVertex.from_string("1110")  # three ones out of four
    with pytest.raises(ValueError):
        BitVertex(mask=0b111, length=3)  # odd length
    with pytest.raises(ValueError):
        BitVertex(mask=1 << 5, length=4)  # mask wider than length
    v = BitVertex.from_string("0110")
    assert v.to_string() == "0110"
    assert v.coords() == (0, 1, 1, 0)
    assert v.weight == 2


@pytest.mark.parametrize("n", [1, 2])
def test_edge_predicate_matches_distance_predicate(n, g4, g8):
    # edge <=> scalar product n <=> squared distance 2n, on every pair
    g = g4 if n == 1 else g8
    for i in range(g.num_vertices):
        for j in range(i + 1, g.num_vertices):
            prod = scalar_product(g.vertices[i], g.vertices[j])
            dist2 = (g.vertices[i].mask ^ g.vertices[j].mask).bit_count()
            assert (prod == n) == g.has_edge(i, j)
            assert (dist2 == 2 * n) == g.has_edge(i, j)


def test_deterministic_construction():
    a = build_base_graph(2)
    b = build_base_graph(2)
    assert a.vertex_strings() == b.vertex_strings()
    assert a.edge_list == b.edge_list


@pytest.mark.parametrize("n", [1, 2])
def test_verify_unit_distance(n, g4, g8):
    g = g4 if n == 1 else g8
    assert verify_unit_distance(g) == 2 * n


def test_verify_unit_distance_vacuous_and_violation(g4):
    lonely = BaseGraph(1, [BitVertex.from_string("1100")], [])
    assert verify_unit_distance(lonely) == 2
    # antipodal pair has squared distance 4, not 2
    broken = BaseGraph(1, list(g4.vertices), [(0, 5)])
    with pytest.raises(MetricError) as err:
        verify_unit_distance(broken)
    assert err.value.edge == (0, 5)


def test_embed_codimension_identity(g4):
    assert embed_codimension(g4, 0) == [v.coords() for v in g4.vertices]
    with pytest.raises(ValueError):
        embed_codimension(g4, -1)


@pytest.mark.parametrize("n,j", [(1, 3), (2, 1)])
def test_embed_codimension_is_isometric(n, j, g4, g8):
    g = g4 if n == 1 else g8
    original = np.array([v.coords() for v in g.vertices], dtype=np.int64)
    embedded = np.array(embed_codimension(g, j), dtype=np.int64)
    assert embedded.shape == (g.num_vertices, 4 * n + j)
    d_orig = _pairwise_sq(original)
    d_emb = _pairwise_sq(embedded)
    assert np.array_equal(d_orig, d_emb)
    for u, v in g.edge_list:
        assert d_emb[u, v] == 2 * n


def _pairwise_sq(coords):
    sq = (coords * coords).sum(axis=1)
    return sq[:, None] + sq[None, :] - 2 * coords @ coords.T


def test_build_guards():
    with pytest.raises(ValueError):
        build_base_graph(0)
    with pytest.raises(SizeGuardError):
        build_base_graph(5)  # dimension 20, above the guard


def test_edge_subset_basics(g4):
    full = EdgeSubset.full(g4)
    empty = EdgeSubset.empty(g4)
    assert full.num_edges == 12 and empty.num_edges == 0
    sub = EdgeSubset.from_edge_indices(g4, [0, 3, 11])
    assert sub.num_edges == 3
    assert list(sub.edge_indices()) == [0, 3, 11]
    assert sub.edges() == [g4.edge_list[0], g4.edge_list[3], g4.edge_list[11]]
    assert EdgeSubset.from_hex(g4, sub.mask_hex()).mask == sub.mask
    assert len(sub.mask_hex()) == 3  # ceil(12 / 4) hex digits
    view = sub.to_graph()
    assert view.num_vertices == 6 and view.num_edges == 3
    with pytest.raises(ValueError):
        EdgeSubset(g4, 1 << 12)
    with pytest.raises(ValueError):
        EdgeSubset.from_edge_indices(g4, [12])


def test_edges_within_matches_oracle(g4):
    from highgirth import edges_within

    for subset in [(0,), (0, 5), (0, 5, 1, 4), tuple(range(6))]:
        assert edges_within(g4, subset) == edges_within_exhaustive(
            g4.edge_list, subset
        )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_array_built_base_graph_matches_pair_scan(n, g4, g8, g12):
    g = {1: g4, 2: g8, 3: g12}[n]
    masks, edges, adj = base_graph_pairscan(n)
    assert [v.mask for v in g.vertices] == masks
    assert g.edge_list == edges
    assert g.edge_array.tolist() == [list(e) for e in edges]
    assert g.adj == adj


def test_edge_indices_match_iter_bits_on_g12_samples(g12):
    for p in (0.0, 0.001, 0.01, 0.3, 1.0):
        sub = sample_subgraph(g12, ModelParams(n=3, seed=5, p_override=p))
        indices = sub.edge_indices()
        assert indices == list(iter_bits(sub.mask))
        assert sub.edges() == [g12.edge_list[i] for i in indices]
        assert sub.to_graph().edge_list == sub.edges()


@given(st.integers(min_value=0, max_value=(1 << 1260) - 1))
@settings(max_examples=60, deadline=None)
def test_edge_indices_match_iter_bits(g8, mask):
    assert EdgeSubset(g8, mask).edge_indices() == list(iter_bits(mask))


@pytest.mark.parametrize("n", [1, 2])
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_from_kept_inverts_edge_indices(g4, g8, n, data):
    g = {1: g4, 2: g8}[n]
    mask = data.draw(st.integers(min_value=0, max_value=(1 << g.num_edges) - 1))
    kept = np.zeros(g.num_edges, dtype=bool)
    kept[EdgeSubset(g, mask).edge_indices()] = True
    assert EdgeSubset.from_kept(g, kept).mask == mask


def test_from_kept_of_no_edges_and_all_edges(g4, g8):
    for g in (g4, g8):
        assert EdgeSubset.from_kept(g, np.zeros(g.num_edges, dtype=bool)).mask == 0
        full = EdgeSubset.from_kept(g, np.ones(g.num_edges, dtype=bool))
        assert full.mask == EdgeSubset.full(g).mask


@pytest.mark.parametrize("n", [1, 2])
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_from_edge_indices_matches_the_former_or_loop(g4, g8, n, data):
    g = {1: g4, 2: g8}[n]
    indices = data.draw(st.lists(st.integers(min_value=0, max_value=g.num_edges - 1)))
    assert EdgeSubset.from_edge_indices(g, indices).mask == mask_of_edge_indices(g, indices)
    bad = data.draw(st.sampled_from([-1, g.num_edges, 10**30]))
    with pytest.raises(ValueError, match=f"edge index {bad} out of range"):
        EdgeSubset.from_edge_indices(g, [*indices, bad])


@pytest.mark.parametrize("text", ["0xfff", " fff ", "f_f", "", "FFF", "-1", "+fff", "0f\n"])
def test_from_hex_takes_only_the_certificate_mask_text(g4, text):
    with pytest.raises(ValueError, match="edge mask must be lowercase hex digits"):
        EdgeSubset.from_hex(g4, text)
    assert EdgeSubset.from_hex(g4, "0fff").mask == EdgeSubset.from_hex(g4, "fff").mask == 4095


def test_graph_canonicalises_and_validates_edges():
    g = Graph(5, [(3, 1), (0, 4), (1, 0), (2, 3)])
    assert g.edge_list == [(0, 1), (0, 4), (1, 3), (2, 3)]
    assert Graph(5, np.array([[3, 1], [0, 4], [1, 0], [2, 3]])).edge_list == g.edge_list
    assert g.adj == [0b10010, 0b01001, 0b01000, 0b00110, 0b00001]
    with pytest.raises(ValueError, match=r"self-loop at vertex 7"):
        Graph(3, [(0, 1), (7, 7), (0, 9)])  # first bad edge in input order
    with pytest.raises(ValueError, match=r"edge \(0, 9\) out of range"):
        Graph(3, [(0, 1), (0, 9), (2, 2)])
    with pytest.raises(ValueError, match=r"edge \(-1, 2\) out of range"):
        Graph(3, [(-1, 2)])
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
        Graph(3, [(2, 1), (0, 1), (1, 2)])
    for malformed in ([(0, 1.5)], [(0, 1, 2)], [(0, 1, 2), (0, 2, 1)], [0, 1]):
        with pytest.raises(ValueError, match="integer vertex indices"):
            Graph(3, malformed)
    assert Graph(0, []).adj == [] and Graph(3, []).adj == [0, 0, 0]


def test_edge_index_matches_edge_list(g8):
    for i, (u, v) in enumerate(g8.edge_list):
        assert g8.edge_index(u, v) == i == g8.edge_index(v, u)
    u = 0
    absent = next(w for w in range(1, g8.num_vertices) if not g8.has_edge(u, w))
    for pair in [(u, absent), (3, 3), (-1, 5), (0, g8.num_vertices)]:
        with pytest.raises(KeyError):
            g8.edge_index(*pair)
