"""Loss functions: values against hand computations, gradients, edge cases."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional, ops


class TestMSE:
    def test_value(self):
        pred = Tensor([[1.0, 2.0]])
        loss = functional.mse_loss(pred, np.array([[0.0, 0.0]]))
        assert loss.item() == pytest.approx((1 + 4) / 2)

    def test_zero_at_target(self):
        pred = Tensor([[3.0]])
        assert functional.mse_loss(pred, np.array([[3.0]])).item() == 0.0


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((4, 3)), requires_grad=True)
        loss = functional.cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3))

    def test_confident_correct_is_near_zero(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = functional.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_label_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="disagree"):
            functional.cross_entropy(Tensor(np.zeros((3, 2))), np.array([0, 1]))

    def test_weighted_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]))
        labels = np.array([0, 0])  # second example is wrong
        w = np.array([1.0, 3.0])
        loss = functional.cross_entropy(logits, labels, weights=w)
        log_p = np.log(np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum())
        log_p2 = np.log(np.exp([0.0, 2.0]) / np.exp([0.0, 2.0]).sum())
        expected = -(1.0 * log_p[0] + 3.0 * log_p2[0]) / 4.0
        assert loss.item() == pytest.approx(expected)

    def test_gradient_shape_and_direction(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        functional.cross_entropy(logits, np.array([0, 1])).backward()
        # Gradient should be negative at the true class, positive elsewhere.
        assert logits.grad[0, 0] < 0 < logits.grad[0, 1]
        assert logits.grad[1, 1] < 0 < logits.grad[1, 0]
        np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-12)


class TestBCEWithLogits:
    def test_matches_reference(self):
        logits = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        targets = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        loss = functional.binary_cross_entropy_with_logits(Tensor(logits), targets)
        p = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss.item() == pytest.approx(expected, rel=1e-9)

    def test_stable_at_extreme_logits(self):
        logits = Tensor(np.array([-1000.0, 1000.0]), requires_grad=True)
        loss = functional.binary_cross_entropy_with_logits(logits, np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.isfinite(logits.grad).all()


class TestRegularization:
    def test_l2_value(self):
        params = [Tensor(np.array([3.0, 4.0]), requires_grad=True)]
        reg = functional.l2_regularization(params, 0.1)
        assert reg.item() == pytest.approx(2.5)

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            functional.l2_regularization([], 0.1)


class TestDistances:
    def test_rowwise_sq_euclidean(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[3.0, 4.0], [1.0, 1.0]])
        out = functional.rowwise_sq_euclidean(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(out, [25.0, 0.0])

    def test_cosine_similarity_bounds_and_self(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 4))
        sims = functional.cosine_similarity_matrix(Tensor(a), Tensor(a)).data
        assert sims.max() <= 1.0 + 1e-9
        assert sims.min() >= -1.0 - 1e-9
        np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-9)

    def test_bootstrap_cosine_loss_zero_when_aligned(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        loss = functional.bootstrap_cosine_loss(Tensor(a), Tensor(a * 5.0))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_bootstrap_cosine_loss_max_when_opposed(self):
        a = np.array([[1.0, 0.0]])
        loss = functional.bootstrap_cosine_loss(Tensor(a), Tensor(-a))
        assert loss.item() == pytest.approx(4.0)
