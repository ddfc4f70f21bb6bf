"""Graph container invariants and neighborhood queries."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, GraphConstructionError, normalized_adjacency


class TestConstruction:
    def test_symmetrizes_input(self):
        adj = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        g = Graph(adj, np.zeros((2, 1)))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        g.validate()

    def test_strips_self_loops(self):
        adj = sp.csr_matrix(np.eye(3))
        g = Graph(adj, np.zeros((3, 1)))
        assert g.num_edges == 0

    def test_binarizes_weights(self):
        adj = sp.csr_matrix(np.array([[0, 5.0], [5.0, 0]]))
        g = Graph(adj, np.zeros((2, 1)))
        assert np.all(g.adjacency.data == 1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            Graph(sp.csr_matrix((2, 3)), np.zeros((2, 1)))

    def test_rejects_feature_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            Graph(sp.csr_matrix((3, 3)), np.zeros((2, 1)))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Graph(sp.csr_matrix((3, 3)), np.zeros((3, 1)), labels=np.zeros(2, dtype=int))

    def test_from_edge_list_defaults_identity_features(self):
        g = Graph.from_edge_list(3, [(0, 1)])
        np.testing.assert_allclose(g.features, np.eye(3))

    def test_from_edge_list_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edge_list(2, [(0, 5)])

    def test_from_edge_list_empty(self):
        g = Graph.from_edge_list(4, [])
        assert g.num_edges == 0
        assert g.num_nodes == 4

    def test_from_edge_list_rejects_duplicates(self):
        with pytest.raises(GraphConstructionError, match="duplicate") as exc:
            Graph.from_edge_list(3, [(0, 1), (0, 1), (1, 2)])
        assert exc.value.duplicates == [(0, 1)]
        assert exc.value.self_loops == []

    def test_from_edge_list_rejects_reversed_restatement(self):
        """(1, 0) restates (0, 1) — silently collapsed before, now an error."""
        with pytest.raises(GraphConstructionError, match="duplicate") as exc:
            Graph.from_edge_list(3, [(0, 1), (1, 0)])
        assert exc.value.duplicates == [(0, 1)]

    def test_from_edge_list_rejects_self_loops(self):
        with pytest.raises(GraphConstructionError, match="self-loop") as exc:
            Graph.from_edge_list(3, [(0, 1), (2, 2)])
        assert exc.value.self_loops == [(2, 2)]
        assert exc.value.duplicates == []

    def test_construction_error_is_a_value_error(self):
        # Callers that predate the structured error still catch it.
        with pytest.raises(ValueError):
            Graph.from_edge_list(2, [(0, 1), (1, 0)])

    def test_rejects_nonfinite_features(self):
        features = np.zeros((3, 2))
        features[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN/Inf in 1 row"):
            Graph(sp.csr_matrix((3, 3)), features)

    def test_rejects_inf_features(self):
        features = np.zeros((2, 2))
        features[0, 1] = np.inf
        with pytest.raises(ValueError, match="NaN/Inf"):
            Graph(sp.csr_matrix((2, 2)), features)

    def test_rejects_non_numeric_features(self):
        with pytest.raises(ValueError, match="numeric"):
            Graph(sp.csr_matrix((2, 2)), np.array([["a", "b"], ["c", "d"]]))

    def test_rejects_nonfinite_adjacency(self):
        adj = sp.csr_matrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            Graph(adj, np.zeros((2, 1)))

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integers"):
            Graph(sp.csr_matrix((2, 2)), np.zeros((2, 1)),
                  labels=np.array([0.5, 1.5]))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="negative"):
            Graph(sp.csr_matrix((2, 2)), np.zeros((2, 1)),
                  labels=np.array([0, -3]))


class TestFromCanonicalCSR:
    def test_roundtrips_canonical_arrays_bit_identically(self):
        base = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 4)],
                                    features=np.arange(10.0).reshape(5, 2))
        adj = base.adjacency
        g = Graph.from_canonical_csr(adj.indptr, adj.indices, base.features,
                                     validate=True)
        assert np.array_equal(g.adjacency.indptr, adj.indptr)
        assert np.array_equal(g.adjacency.indices, adj.indices)
        assert np.array_equal(g.features, base.features)
        assert g.num_edges == base.num_edges

    def test_rejects_feature_row_mismatch(self):
        base = Graph.from_edge_list(3, [(0, 1)])
        adj = base.adjacency
        with pytest.raises(ValueError, match="features"):
            Graph.from_canonical_csr(adj.indptr, adj.indices,
                                     np.zeros((2, 4)))

    def test_validate_flag_catches_broken_invariants(self):
        # An asymmetric structure smuggled in as "canonical" must not pass
        # the opt-in check — this is the oracle-equivalence safety net.
        indptr = np.array([0, 1, 1], dtype=np.int64)
        indices = np.array([1], dtype=np.int64)
        with pytest.raises(AssertionError):
            Graph.from_canonical_csr(indptr, indices, np.zeros((2, 1)),
                                     validate=True)


class TestProperties:
    def test_counts(self, triangle_graph):
        assert triangle_graph.num_nodes == 3
        assert triangle_graph.num_edges == 3
        assert triangle_graph.num_features == 2
        assert triangle_graph.num_classes == 2

    def test_degrees(self, star_graph):
        np.testing.assert_allclose(star_graph.degrees, [5, 1, 1, 1, 1, 1])
        assert star_graph.average_degree == pytest.approx(10 / 6)

    def test_num_classes_requires_labels(self):
        g = Graph.from_edge_list(2, [(0, 1)])
        with pytest.raises(ValueError, match="labels"):
            g.num_classes

    def test_edge_array_sorted_upper(self, triangle_graph):
        edges = triangle_graph.edge_array()
        assert edges.shape == (3, 2)
        assert np.all(edges[:, 0] < edges[:, 1])


class TestNeighborhoods:
    def test_neighbors(self, path_graph):
        np.testing.assert_array_equal(path_graph.neighbors(2), [1, 3])
        np.testing.assert_array_equal(path_graph.neighbors(0), [1])

    def test_two_hop_neighbors_path(self, path_graph):
        np.testing.assert_array_equal(path_graph.two_hop_neighbors(0), [1, 2])
        np.testing.assert_array_equal(path_graph.two_hop_neighbors(2), [0, 1, 3, 4])

    def test_two_hop_excludes_self(self, triangle_graph):
        assert 0 not in triangle_graph.two_hop_neighbors(0)

    def test_two_hop_isolated_node(self, isolated_node_graph):
        assert isolated_node_graph.two_hop_neighbors(3).size == 0

    def test_ego_nodes_radii(self, path_graph):
        np.testing.assert_array_equal(path_graph.ego_nodes(0, 0), [0])
        np.testing.assert_array_equal(path_graph.ego_nodes(0, 1), [0, 1])
        np.testing.assert_array_equal(path_graph.ego_nodes(0, 2), [0, 1, 2])
        np.testing.assert_array_equal(path_graph.ego_nodes(2, 2), [0, 1, 2, 3, 4])

    def test_ego_subgraph_center_mapping(self, path_graph):
        sub, center = path_graph.ego_subgraph(3, 1)
        assert sub.num_nodes == 3
        # The center must carry node 3's features.
        np.testing.assert_allclose(sub.features[center], path_graph.features[3])


class TestSubgraphs:
    def test_induced_subgraph_edges(self, triangle_graph):
        sub, mapping = triangle_graph.induced_subgraph([0, 1])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        np.testing.assert_array_equal(mapping, [0, 1])

    def test_induced_subgraph_preserves_labels(self, path_graph):
        sub, mapping = path_graph.induced_subgraph([2, 4])
        np.testing.assert_array_equal(sub.labels, path_graph.labels[[2, 4]])

    def test_induced_subgraph_dedupes_nodes(self, path_graph):
        sub, mapping = path_graph.induced_subgraph([1, 1, 2])
        assert sub.num_nodes == 2


class TestCopyAndWith:
    def test_copy_is_independent(self, triangle_graph):
        g2 = triangle_graph.copy()
        g2.features[0, 0] = 99.0
        assert triangle_graph.features[0, 0] != 99.0

    def test_with_features_shares_structure(self, triangle_graph):
        g2 = triangle_graph.with_features(np.zeros((3, 4)))
        assert g2.num_edges == triangle_graph.num_edges
        assert g2.num_features == 4

    def test_with_adjacency_shares_features(self, triangle_graph):
        g2 = triangle_graph.with_adjacency(sp.csr_matrix((3, 3)))
        assert g2.num_edges == 0
        np.testing.assert_allclose(g2.features, triangle_graph.features)


class TestOperator:
    """``Graph.a_n``: the GCN operator, derived once per graph object."""

    def test_bit_equal_to_normalized_adjacency(self, small_er_graph):
        expected = normalized_adjacency(small_er_graph.adjacency)
        a_n = small_er_graph.a_n
        np.testing.assert_array_equal(a_n.indptr, expected.indptr)
        np.testing.assert_array_equal(a_n.indices, expected.indices)
        np.testing.assert_array_equal(a_n.data, expected.data)

    def test_computed_once_per_object(self, small_er_graph, monkeypatch):
        import repro.graphs.adjacency as adjacency

        calls = []
        original = adjacency.normalized_csr

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(adjacency, "normalized_csr", counting)
        first = small_er_graph.a_n
        assert small_er_graph.a_n is first
        assert len(calls) == 1

    def test_with_features_successor_shares_it(self, small_er_graph):
        a_n = small_er_graph.a_n
        degrees = small_er_graph.degrees
        successor = small_er_graph.with_features(
            np.zeros_like(small_er_graph.features))
        assert successor.a_n is a_n
        assert successor.degrees is degrees

    def test_mutated_successor_gets_its_own(self, small_er_graph):
        from repro.stream import Delta, MutableGraph

        mutable = MutableGraph(small_er_graph)
        before = mutable.as_graph()
        old = before.a_n
        u = 0
        v = next(w for w in range(1, small_er_graph.num_nodes)
                 if not small_er_graph.has_edge(u, w))
        mutable.apply([Delta(op="add_edge", u=u, v=v, seq=0)])
        after = mutable.as_graph()
        assert after.a_n is not old
        assert after.a_n.nnz == old.nnz + 2
        expected = normalized_adjacency(after.adjacency)
        np.testing.assert_array_equal(after.a_n.toarray(), expected.toarray())
        assert before.a_n is old


class TestInterop:
    def test_to_networkx_roundtrip(self, small_er_graph):
        nx_graph = small_er_graph.to_networkx()
        assert nx_graph.number_of_nodes() == small_er_graph.num_nodes
        assert nx_graph.number_of_edges() == small_er_graph.num_edges


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 30), st.integers(0, 10_000))
def test_property_construction_invariants(n, num_edges, seed):
    """Any random edge list yields a valid symmetric, loop-free, binary graph."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(num_edges)}
    edges = sorted(set((min(u, v), max(u, v)) for u, v in edges if u != v))
    g = Graph.from_edge_list(n, edges, features=rng.normal(size=(n, 3)))
    g.validate()
    # degree sum equals twice the edge count
    assert g.degrees.sum() == 2 * g.num_edges


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(0, 20), st.integers(0, 10_000), st.integers(0, 3))
def test_property_ego_subgraph_is_contained(n, num_edges, seed, hops):
    """Ego nodes grow monotonically with hops and contain the center."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(num_edges)}
    edges = sorted(set((min(u, v), max(u, v)) for u, v in edges if u != v))
    g = Graph.from_edge_list(n, edges)
    center = int(rng.integers(n))
    smaller = set(g.ego_nodes(center, hops).tolist())
    larger = set(g.ego_nodes(center, hops + 1).tolist())
    assert center in smaller
    assert smaller <= larger
