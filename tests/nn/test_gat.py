"""GAT encoder: attention normalization, shapes, training, encoder-agnosticism."""

import numpy as np
import pytest

from repro.autograd import Adam, Tensor, functional, ops
from repro.graphs import add_self_loops
from repro.nn import GAT, GATLayer
from repro.nn.gat import _segment_softmax


class TestSegmentSoftmax:
    def test_normalizes_per_segment(self):
        scores = Tensor(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), requires_grad=True)
        segments = np.array([0, 0, 1, 1, 1])
        out = _segment_softmax(scores, segments, 2)
        assert out.data[:2].sum() == pytest.approx(1.0)
        assert out.data[2:].sum() == pytest.approx(1.0)

    def test_single_element_segment_is_one(self):
        out = _segment_softmax(Tensor(np.array([7.0])), np.array([0]), 1)
        assert out.data[0] == pytest.approx(1.0)

    def test_gradient_flows(self):
        scores = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = _segment_softmax(scores, np.array([0, 0, 0]), 1)
        ops.sum(ops.mul(out, np.array([1.0, 0.0, 0.0]))).backward()
        assert scores.grad is not None
        assert np.abs(scores.grad).sum() > 0

    def test_stable_with_large_scores(self):
        out = _segment_softmax(Tensor(np.array([1000.0, 1001.0])), np.array([0, 0]), 1)
        assert np.isfinite(out.data).all()
        assert out.data.sum() == pytest.approx(1.0)


class TestGAT:
    def test_output_shape(self, small_er_graph):
        model = GAT(6, 16, 8, num_layers=2, seed=0)
        assert model.embed(small_er_graph).shape == (30, 8)

    def test_deterministic(self, small_er_graph):
        h1 = GAT(6, 16, 8, seed=3).embed(small_er_graph)
        h2 = GAT(6, 16, 8, seed=3).embed(small_er_graph)
        np.testing.assert_allclose(h1, h2)

    def test_attention_weights_sum_to_one_per_node(self, path_graph):
        """Reconstruct the first layer's alphas and check normalization."""
        model = GAT(5, 4, 4, num_layers=1, seed=0)
        layer: GATLayer = model.layers[0]
        coo = path_graph.a_n.tocoo()
        edges = np.stack([coo.row, coo.col], axis=1)
        # The operator's pattern is A + I: every edge plus each self-loop.
        loops = add_self_loops(path_graph.adjacency).tocoo()
        np.testing.assert_array_equal(
            edges, np.stack([loops.row, loops.col], axis=1))
        assert (coo.row == coo.col).sum() == path_graph.num_nodes
        wh = ops.matmul(Tensor(path_graph.features), layer.weight)
        src, dst = edges[:, 0], edges[:, 1]
        s_src = ops.index(ops.reshape(ops.matmul(wh, layer.attn_src), (5,)), src)
        s_dst = ops.index(ops.reshape(ops.matmul(wh, layer.attn_dst), (5,)), dst)
        raw = ops.leaky_relu(ops.add(s_src, s_dst), 0.2)
        alpha = _segment_softmax(raw, dst, 5).data
        for v in range(5):
            assert alpha[dst == v].sum() == pytest.approx(1.0)

    def test_forward_matches_self_looped_edge_list_reference(
            self, small_er_graph):
        """Edges taken from ``a_n``'s pattern give the same floats as the
        ``add_self_loops`` edge list the layers were written against."""
        model = GAT(6, 16, 8, num_layers=2, seed=0)
        loops = add_self_loops(small_er_graph.adjacency).tocoo()
        edges = np.stack([loops.row, loops.col], axis=1)
        h = Tensor(small_er_graph.features)
        for layer in model.layers:
            h = layer(edges, small_er_graph.num_nodes, h)
        out = model(small_er_graph.a_n, small_er_graph.features)
        np.testing.assert_array_equal(out.data, h.data)

    def test_isolated_node_attends_to_itself(self, isolated_node_graph):
        model = GAT(3, 8, 4, seed=0)
        h = model.embed(isolated_node_graph)
        assert np.isfinite(h[3]).all()

    def test_trains_on_supervised_loss(self, small_er_graph):
        model = GAT(6, 8, 2, seed=0)
        optimizer = Adam(model.parameters(), lr=0.02)
        losses = []
        for _ in range(40):
            optimizer.zero_grad()
            loss = functional.cross_entropy(
                model(small_er_graph.a_n, small_er_graph.features),
                small_er_graph.labels)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            GAT(4, 8, 2, num_layers=0)


class TestEncoderAgnostic:
    def test_e2gcl_trainer_accepts_gat(self, tiny_cora):
        """Sec. IV-C *Remarks*: views are encoder-agnostic — swap in a GAT."""
        from repro.core import E2GCLConfig, E2GCLTrainer

        cfg = E2GCLConfig(epochs=4, num_clusters=8, sample_size=20,
                          node_ratio=0.3, hidden_dim=8, embedding_dim=8,
                          loss="euclidean")
        gat = GAT(tiny_cora.num_features, 8, 8, seed=0)
        trainer = E2GCLTrainer(tiny_cora, cfg, encoder=gat)
        result = trainer.train()
        assert np.isfinite(result.final_loss)
        assert trainer.embed().shape == (tiny_cora.num_nodes, 8)
