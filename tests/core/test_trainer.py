"""E2GCL trainer and facade: integration behaviour."""

import numpy as np
import pytest

from repro.core import E2GCL, E2GCLConfig, E2GCLTrainer
from repro.engine import Hook


def fast_config(**overrides):
    base = dict(
        epochs=8,
        num_clusters=10,
        sample_size=30,
        node_ratio=0.3,
        hidden_dim=16,
        embedding_dim=8,
    )
    base.update(overrides)
    return E2GCLConfig(**base)


class TestTrainer:
    def test_trains_and_returns_history(self, tiny_cora):
        trainer = E2GCLTrainer(tiny_cora, fast_config())
        result = trainer.train()
        assert len(result.history) == 8
        assert np.isfinite(result.final_loss)
        assert result.total_seconds > 0

    def test_coreset_used_when_enabled(self, tiny_cora):
        trainer = E2GCLTrainer(tiny_cora, fast_config())
        trainer.setup()
        assert trainer.coreset is not None
        assert trainer.coreset.budget == fast_config().budget_for(tiny_cora.num_nodes)

    def test_all_nodes_when_coreset_disabled(self, tiny_cora):
        trainer = E2GCLTrainer(tiny_cora, fast_config(use_coreset=False))
        trainer.setup()
        assert trainer.coreset is None
        assert trainer._anchors.shape[0] == tiny_cora.num_nodes

    def test_custom_selector_hook(self, tiny_cora):
        calls = {}

        def selector(graph, budget, rng):
            calls["budget"] = budget
            selected = np.arange(budget)
            return selected, np.full(budget, graph.num_nodes / budget)

        trainer = E2GCLTrainer(tiny_cora, fast_config(), selector=selector)
        trainer.setup()
        assert calls["budget"] == fast_config().budget_for(tiny_cora.num_nodes)
        np.testing.assert_array_equal(trainer._anchors, np.arange(calls["budget"]))

    def test_loss_decreases_over_training(self, tiny_cora):
        trainer = E2GCLTrainer(tiny_cora, fast_config(epochs=25, lr=0.02))
        result = trainer.train()
        first = np.mean([r.loss for r in result.history[:5]])
        last = np.mean([r.loss for r in result.history[-5:]])
        assert last < first

    def test_infonce_loss_variant_runs(self, tiny_cora):
        trainer = E2GCLTrainer(tiny_cora, fast_config(loss="infonce"))
        result = trainer.train()
        assert np.isfinite(result.final_loss)

    def test_hook_invoked_every_epoch(self, tiny_cora):
        epochs_seen = []

        class RecordEpochs(Hook):
            def on_epoch_end(self, loop, epoch, record):
                epochs_seen.append(epoch)

        trainer = E2GCLTrainer(tiny_cora, fast_config())
        trainer.train(hooks=[RecordEpochs()])
        assert epochs_seen == list(range(8))

    def test_view_refresh_interval(self, tiny_cora):
        trainer = E2GCLTrainer(tiny_cora, fast_config(view_refresh_interval=4))
        result = trainer.train()
        assert len(result.history) == 8

    def test_embed_shape(self, tiny_cora):
        trainer = E2GCLTrainer(tiny_cora, fast_config())
        trainer.train()
        h = trainer.embed()
        assert h.shape == (tiny_cora.num_nodes, 8)

    def test_deterministic_under_seed(self, tiny_cora):
        h1 = E2GCLTrainer(tiny_cora, fast_config(seed=5)).train().encoder.embed(tiny_cora)
        h2 = E2GCLTrainer(tiny_cora, fast_config(seed=5)).train().encoder.embed(tiny_cora)
        np.testing.assert_allclose(h1, h2)

    def test_single_anchor_euclidean_loss_raises_clear_error(self, tiny_cora):
        """Regression: a degenerate coreset budget (1 anchor) used to reach
        ``sample_negative_indices`` with ``num_negatives <= 0``; the trainer
        now fails up front with an actionable message."""

        def one_node_selector(graph, budget, rng):
            return np.array([0]), np.array([float(graph.num_nodes)])

        trainer = E2GCLTrainer(
            tiny_cora, fast_config(loss="euclidean"), selector=one_node_selector
        )
        with pytest.raises(ValueError, match="at least 2 coreset anchors"):
            trainer.train()

    def test_single_anchor_infonce_still_trains(self, tiny_cora):
        """The InfoNCE variant has no negative-sampling step; a 1-anchor
        coreset is degenerate but must not crash."""

        def one_node_selector(graph, budget, rng):
            return np.array([0]), np.array([float(graph.num_nodes)])

        trainer = E2GCLTrainer(
            tiny_cora, fast_config(epochs=2, loss="infonce"), selector=one_node_selector
        )
        result = trainer.train()
        assert np.isfinite(result.final_loss)

    def test_different_seeds_differ(self, tiny_cora):
        h1 = E2GCLTrainer(tiny_cora, fast_config(seed=1)).train().encoder.embed(tiny_cora)
        h2 = E2GCLTrainer(tiny_cora, fast_config(seed=2)).train().encoder.embed(tiny_cora)
        assert np.abs(h1 - h2).max() > 1e-9


class TestFacade:
    def test_fit_embed_evaluate(self, tiny_cora):
        model = E2GCL(fast_config())
        model.fit(tiny_cora)
        h = model.embed()
        assert h.shape[0] == tiny_cora.num_nodes
        result = model.evaluate(trials=2)
        assert 0.0 <= result.test_accuracy.mean <= 1.0

    def test_keyword_overrides(self, tiny_cora):
        model = E2GCL(epochs=3, num_clusters=8, sample_size=20, node_ratio=0.3)
        assert model.config.epochs == 3

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            E2GCL().embed()

    def test_timing_properties(self, tiny_cora):
        model = E2GCL(fast_config()).fit(tiny_cora)
        assert model.selection_seconds > 0
        assert model.training_seconds >= model.selection_seconds

    def test_coreset_accessible(self, tiny_cora):
        model = E2GCL(fast_config()).fit(tiny_cora)
        assert model.coreset is not None
        assert model.coreset.weights.sum() == tiny_cora.num_nodes

    def test_learned_beats_untrained_encoder(self, small_cora):
        """Pre-training should beat a random-init encoder on linear eval."""
        from repro.eval import evaluate_embeddings
        from repro.nn import GCN

        model = E2GCL(fast_config(epochs=40, node_ratio=0.4)).fit(small_cora)
        trained = model.evaluate(trials=3).test_accuracy.mean
        random_encoder = GCN(small_cora.num_features, 16, 8, seed=0)
        untrained = evaluate_embeddings(
            small_cora, random_encoder.embed(small_cora), trials=3
        ).test_accuracy.mean
        assert trained > untrained - 0.02  # must at least match; usually beats
