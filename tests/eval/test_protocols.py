"""Evaluation protocols: node classification, link prediction, graph
classification (the Fig. 3 timed curve lives in ``test_protocol.py``)."""

import numpy as np
import pytest

from repro.eval import (
    evaluate_embeddings,
    evaluate_graph_classification,
    evaluate_link_prediction,
    summarize_graphs,
)
from repro.graphs import load_tu_dataset
from repro.nn import GCN


class TestNodeClassificationEval:
    def test_informative_embeddings_score_high(self, tiny_cora):
        """One-hot class embeddings must be nearly perfectly decodable."""
        onehot = np.eye(tiny_cora.num_classes)[tiny_cora.labels]
        result = evaluate_embeddings(tiny_cora, onehot, trials=2, decoder_epochs=150)
        assert result.test_accuracy.mean > 0.95

    def test_random_embeddings_near_chance(self, tiny_cora):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=(tiny_cora.num_nodes, 8))
        result = evaluate_embeddings(tiny_cora, noise, trials=2, decoder_epochs=100)
        assert result.test_accuracy.mean < 0.5

    def test_trials_aggregate(self, tiny_cora):
        onehot = np.eye(tiny_cora.num_classes)[tiny_cora.labels]
        result = evaluate_embeddings(tiny_cora, onehot, trials=3, decoder_epochs=50)
        assert len(result.test_accuracy.values) == 3

    def test_requires_labels(self, tiny_cora):
        unlabeled = tiny_cora.copy()
        unlabeled.labels = None
        with pytest.raises(ValueError, match="labels"):
            evaluate_embeddings(unlabeled, np.zeros((tiny_cora.num_nodes, 4)))

    def test_embedding_row_count_validated(self, tiny_cora):
        with pytest.raises(ValueError):
            evaluate_embeddings(tiny_cora, np.zeros((3, 4)))

    def test_deterministic_under_seed(self, tiny_cora):
        onehot = np.eye(tiny_cora.num_classes)[tiny_cora.labels].astype(float)
        r1 = evaluate_embeddings(tiny_cora, onehot, seed=7, trials=2, decoder_epochs=50)
        r2 = evaluate_embeddings(tiny_cora, onehot, seed=7, trials=2, decoder_epochs=50)
        assert r1.test_accuracy.mean == r2.test_accuracy.mean


class TestLinkPredictionEval:
    def test_protocol_runs_and_beats_chance(self, small_cora):
        """Embeddings from an untrained GCN still carry structure via
        propagation, so AUC should exceed 0.5."""
        encoder = GCN(small_cora.num_features, 16, 8, seed=0)
        result = evaluate_link_prediction(
            small_cora, lambda g: encoder.embed(g), trials=2, decoder_epochs=120,
        )
        assert result.test_auc.mean > 0.55
        assert 0.0 <= result.test_accuracy.mean <= 1.0

    def test_embed_fn_receives_train_graph(self, small_cora):
        seen = []

        def embed_fn(graph):
            seen.append(graph.num_edges)
            return np.zeros((graph.num_nodes, 4))

        evaluate_link_prediction(small_cora, embed_fn, trials=1, decoder_epochs=10)
        # The graph handed to the embedder must be missing the held-out edges.
        assert seen[0] < small_cora.num_edges


class TestGraphClassificationEval:
    @pytest.fixture(scope="class")
    def tu(self):
        graphs, labels = load_tu_dataset("ptc_mr", seed=1)
        return graphs[:60], labels[:60]

    def test_summaries_shape(self, tu):
        graphs, _ = tu
        encoder = GCN(graphs[0].num_features, 8, 4, seed=0)
        summaries = summarize_graphs(graphs, encoder.embed)
        assert summaries.shape == (60, 4)

    def test_sum_vs_mean_readout(self, tu):
        graphs, _ = tu
        encoder = GCN(graphs[0].num_features, 8, 4, seed=0)
        s_sum = summarize_graphs(graphs[:5], encoder.embed, readout="sum")
        s_mean = summarize_graphs(graphs[:5], encoder.embed, readout="mean")
        sizes = np.array([g.num_nodes for g in graphs[:5]], dtype=float)
        np.testing.assert_allclose(s_sum, s_mean * sizes[:, None], atol=1e-9)

    def test_unknown_readout_rejected(self, tu):
        graphs, _ = tu
        encoder = GCN(graphs[0].num_features, 8, 4, seed=0)
        with pytest.raises(ValueError):
            summarize_graphs(graphs[:2], encoder.embed, readout="attention")

    def test_protocol_beats_chance(self, tu):
        graphs, labels = tu
        encoder = GCN(graphs[0].num_features, 16, 8, seed=0)
        result = evaluate_graph_classification(
            graphs, labels, encoder.embed, trials=2, decoder_epochs=150,
        )
        assert result.test_accuracy.mean > 0.5

    def test_label_count_validated(self, tu):
        graphs, labels = tu
        with pytest.raises(ValueError):
            evaluate_graph_classification(graphs, labels[:-1], lambda g: np.zeros((g.num_nodes, 2)))
