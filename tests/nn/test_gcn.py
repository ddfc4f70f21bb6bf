"""GCN encoder: Eq. (1) semantics, training behaviour, the prepared operator."""

import numpy as np
import pytest

from repro.autograd import Adam, Tensor, functional, ops
from repro.graphs import normalized_adjacency, propagated_features
from repro.nn import GCN, GCNLayer, LinearGCN


class TestGCNLayer:
    def test_forward_matches_equation(self, small_er_graph):
        rng = np.random.default_rng(0)
        layer = GCNLayer(6, 4, rng, activation=None, bias=False)
        a_n = normalized_adjacency(small_er_graph.adjacency)
        out = layer(a_n, Tensor(small_er_graph.features))
        expected = a_n @ (small_er_graph.features @ layer.weight.data)
        np.testing.assert_allclose(out.data, np.asarray(expected), atol=1e-10)

    def test_relu_applied(self, small_er_graph):
        rng = np.random.default_rng(0)
        layer = GCNLayer(6, 4, rng, activation="relu")
        a_n = normalized_adjacency(small_er_graph.adjacency)
        out = layer(a_n, Tensor(small_er_graph.features))
        assert (out.data >= 0).all()

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            GCNLayer(3, 3, np.random.default_rng(0), activation="swish")


class TestGCN:
    def test_output_shape(self, small_er_graph):
        model = GCN(6, 16, 8, num_layers=2, seed=0)
        h = model(small_er_graph.a_n, small_er_graph.features)
        assert h.shape == (30, 8)

    def test_embed_returns_array(self, small_er_graph):
        model = GCN(6, 16, 8, seed=0)
        h = model.embed(small_er_graph)
        assert isinstance(h, np.ndarray)
        assert h.shape == (30, 8)

    def test_embed_restores_training_mode(self, small_er_graph):
        model = GCN(6, 16, 8, seed=0, dropout=0.5)
        model.train()
        model.embed(small_er_graph)
        assert model.training

    def test_seed_determinism(self, small_er_graph):
        h1 = GCN(6, 16, 8, seed=3).embed(small_er_graph)
        h2 = GCN(6, 16, 8, seed=3).embed(small_er_graph)
        np.testing.assert_allclose(h1, h2)

    def test_one_layer_allowed(self, small_er_graph):
        model = GCN(6, 16, 4, num_layers=1, seed=0)
        assert model.embed(small_er_graph).shape == (30, 4)

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            GCN(6, 16, 4, num_layers=0)

    def test_isolated_node_gets_own_features_only(self, isolated_node_graph):
        """With renormalized self-loops an isolated node's representation is
        a pure transformation of its own features — finite and well-defined."""
        model = GCN(3, 8, 4, seed=0)
        h = model.embed(isolated_node_graph)
        assert np.isfinite(h[3]).all()

    def test_adjacency_cache_invalidates_on_new_graph(self, small_er_graph, path_graph):
        model = GCN(6, 8, 4, seed=0)
        model.embed(small_er_graph)
        h = model(path_graph.a_n, Tensor(np.zeros((5, 6))))
        assert h.shape == (5, 4)

    def test_forward_is_a_pure_function_of_the_operator(self, small_er_graph):
        """``forward(a_n, x)`` reads nothing but its arguments: the result
        over ``graph.a_n`` equals the result over a fresh normalization."""
        model = GCN(6, 16, 8, seed=0)
        x = small_er_graph.features
        via_graph = model(small_er_graph.a_n, x).data
        fresh = model(normalized_adjacency(small_er_graph.adjacency), x).data
        np.testing.assert_array_equal(via_graph, fresh)

    def test_propagate_from_first_layer_transform_matches_forward(
            self, small_er_graph):
        model = GCN(6, 16, 8, num_layers=3, seed=0)
        a_n, x = small_er_graph.a_n, small_er_graph.features
        h0 = x @ model.layers[0].weight.data
        np.testing.assert_array_equal(
            model.propagate(a_n, h0).data, model(a_n, x).data)

    def test_training_reduces_supervised_loss(self, small_er_graph):
        model = GCN(6, 16, 2, seed=0)
        labels = small_er_graph.labels
        optimizer = Adam(model.parameters(), lr=0.05)
        losses = []
        for _ in range(80):
            optimizer.zero_grad()
            loss = functional.cross_entropy(
                model(small_er_graph.a_n, small_er_graph.features), labels)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        # Labels are random on an ER graph, but the model should still be
        # able to overfit 30 nodes substantially.
        assert losses[-1] < losses[0] * 0.7

    def test_propagation_uses_structure(self, path_graph):
        """Changing a far node's features changes a node's representation
        only within the receptive field (2 layers → 2 hops)."""
        model = GCN(5, 8, 4, num_layers=2, seed=1)
        base = model.embed(path_graph)
        modified = path_graph.with_features(path_graph.features.copy())
        modified.features[4, :] += 10.0
        changed = model.embed(modified)
        # Node 4 is 4 hops from node 0: out of a 2-layer receptive field.
        np.testing.assert_allclose(changed[0], base[0], atol=1e-10)
        # Node 2 is 2 hops from node 4: inside the receptive field.
        assert np.abs(changed[2] - base[2]).max() > 1e-8


class TestLinearGCN:
    def test_matches_closed_form(self, small_er_graph):
        """LinearGCN must equal A_n^L X θ — the Theorem 1 relaxation."""
        model = LinearGCN(6, 4, hops=2, seed=0)
        out = model(small_er_graph).data
        r = propagated_features(small_er_graph, 2)
        np.testing.assert_allclose(out, r @ model.weight.data, atol=1e-10)

    def test_zero_hops_is_linear_regression(self, small_er_graph):
        model = LinearGCN(6, 4, hops=0, seed=0)
        out = model(small_er_graph).data
        np.testing.assert_allclose(out, small_er_graph.features @ model.weight.data, atol=1e-12)
