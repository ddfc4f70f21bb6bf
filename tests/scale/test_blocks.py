"""Oracle tests for the shared CSR block-extraction kernels.

Every kernel is checked against a naive scipy construction — plus a
regression pinning the serve encoder bit-identical through the extraction
move (its batch outputs must still equal the offline embeddings exactly).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import normalized_adjacency
from repro.scale import (
    block_csr,
    gather_rows,
    grow_ego,
    normalized_block,
    sub_triplets,
    true_degrees,
)

pytestmark = pytest.mark.scale


@pytest.fixture()
def graph(small_er_graph):
    return small_er_graph


class TestGatherRows:
    def test_matches_scipy_row_slice(self, graph):
        adj = graph.adjacency
        nodes = np.array([0, 3, 7], dtype=np.int64)
        rows, cols, vals = gather_rows(adj, nodes)
        dense = adj[nodes].toarray()
        rebuilt = np.zeros_like(dense)
        rebuilt[rows, cols] = vals
        np.testing.assert_array_equal(rebuilt, dense)

    def test_empty_rows(self, isolated_node_graph):
        adj = isolated_node_graph.adjacency
        isolated = np.flatnonzero(true_degrees(adj) == 0)
        rows, cols, vals = gather_rows(adj, isolated)
        assert rows.size == cols.size == vals.size == 0

    def test_column_order_is_ascending_within_rows(self, graph):
        rows, cols, _ = gather_rows(
            graph.adjacency, np.arange(graph.num_nodes, dtype=np.int64))
        for r in np.unique(rows):
            np.testing.assert_array_equal(
                cols[rows == r], np.sort(cols[rows == r]))


class TestGrowEgo:
    def test_matches_graph_ego_nodes(self, graph):
        for seed in (0, 5, graph.num_nodes - 1):
            for hops in (0, 1, 2, 3):
                expected = graph.ego_nodes(seed, hops)
                got = grow_ego(graph.adjacency, np.array([seed]), hops)
                np.testing.assert_array_equal(got, np.sort(expected))

    def test_multi_seed_union(self, graph):
        seeds = np.array([0, 4])
        got = grow_ego(graph.adjacency, seeds, 2)
        expected = np.union1d(graph.ego_nodes(0, 2), graph.ego_nodes(4, 2))
        np.testing.assert_array_equal(got, expected)

    def test_limit_is_a_cut_on_the_union_size(self, graph):
        seeds = np.array([0, 4])
        full = grow_ego(graph.adjacency, seeds, 2)
        np.testing.assert_array_equal(
            grow_ego(graph.adjacency, seeds, 2, limit=full.size), full)
        assert grow_ego(graph.adjacency, seeds, 2, limit=full.size - 1) is None
        assert grow_ego(graph.adjacency, seeds, 0, limit=1) is None


class TestSubTriplets:
    def test_matches_scipy_submatrix_minus_diagonal(self, graph):
        nodes = np.array([1, 2, 5, 8], dtype=np.int64)
        rows, cols, vals = sub_triplets(graph.adjacency, nodes)
        sub = graph.adjacency[nodes][:, nodes].toarray()
        np.fill_diagonal(sub, 0.0)
        rebuilt = np.zeros_like(sub)
        rebuilt[rows, cols] = vals
        np.testing.assert_array_equal(rebuilt, sub)


class TestNormalizedBlock:
    def test_full_graph_block_equals_normalized_adjacency(self, graph):
        """Taking the whole graph as one block must reproduce A_n exactly."""
        adj = graph.adjacency
        nodes = np.arange(graph.num_nodes, dtype=np.int64)
        rows, cols, vals = sub_triplets(adj, nodes)
        rows, cols, vals = normalized_block(rows, cols, vals, true_degrees(adj))
        block = block_csr(rows, cols, vals, graph.num_nodes)
        dense_a_n = normalized_adjacency(adj)
        assert (block != dense_a_n).nnz == 0
        np.testing.assert_array_equal(block.toarray(), dense_a_n.toarray())

    def test_sub_block_entries_are_exact_full_graph_floats(self, graph):
        adj = graph.adjacency
        nodes = grow_ego(adj, np.array([0]), 2)
        rows, cols, vals = sub_triplets(adj, nodes)
        rows, cols, vals = normalized_block(
            rows, cols, vals, true_degrees(adj)[nodes])
        a_n = normalized_adjacency(adj).toarray()
        block = block_csr(rows, cols, vals, nodes.size).toarray()
        np.testing.assert_array_equal(block, a_n[np.ix_(nodes, nodes)])

    def test_isolated_node_gets_unit_self_loop(self):
        rows, cols, vals = normalized_block(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0), np.zeros(1))
        block = block_csr(rows, cols, vals, 1).toarray()
        np.testing.assert_array_equal(block, [[1.0]])


class TestServeRegression:
    """The extraction move must not perturb serve outputs by a single bit."""

    def test_batch_encode_bit_identical_to_offline(self, tiny_cora, tmp_path):
        from repro.baselines import get_method
        from repro.core.serialization import export_encoder
        from repro.engine import PeriodicCheckpoint
        from repro.serve import InductiveEncoder

        path = tmp_path / "e2gcl.npz"
        method = get_method("e2gcl", epochs=2, embedding_dim=8,
                            hidden_dim=16, seed=0)
        method.fit(tiny_cora, hooks=[PeriodicCheckpoint(str(path), every=1)])
        offline = np.asarray(method.embed(tiny_cora))
        encoder = InductiveEncoder(export_encoder(path), tiny_cora)
        nodes = [0, 7, 3, tiny_cora.num_nodes - 1]
        batch = encoder.encode_batch(nodes)
        for node, embedding in zip(nodes, batch):
            np.testing.assert_array_equal(embedding, offline[node])
            np.testing.assert_array_equal(
                encoder.encode_node(node), offline[node])


class TestBlockCsr:
    def test_duplicate_triplets_are_summed(self):
        block = block_csr(
            np.array([0, 0]), np.array([1, 1]), np.array([0.25, 0.5]), 2)
        assert block[0, 1] == 0.75
        assert isinstance(block, sp.csr_matrix)
