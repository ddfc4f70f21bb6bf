"""Optimizers: convergence on convex problems, decay semantics, schedulers."""

import numpy as np
import pytest

from repro.autograd import SGD, Adam, AdamW, Parameter, Tensor, ops


def quadratic_loss(param: Parameter, target: np.ndarray):
    diff = ops.sub(param, Tensor(target))
    return ops.sum(ops.mul(diff, diff))


def run_steps(optimizer, param, target, steps):
    for _ in range(steps):
        optimizer.zero_grad()
        quadratic_loss(param, target).backward()
        optimizer.step()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([10.0, -10.0]))
        target = np.array([1.0, 2.0])
        run_steps(SGD([p], lr=0.1), p, target, 100)
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_momentum_accelerates(self):
        target = np.array([1.0])
        plain = Parameter(np.array([10.0]))
        run_steps(SGD([plain], lr=0.01), plain, target, 30)
        momentum = Parameter(np.array([10.0]))
        run_steps(SGD([momentum], lr=0.01, momentum=0.9), momentum, target, 30)
        assert abs(momentum.data[0] - 1.0) < abs(plain.data[0] - 1.0)

    def test_weight_decay_shrinks_params(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        ops.sum(ops.mul(p, 0.0)).backward()  # zero data gradient
        opt.step()
        assert p.data[0] == pytest.approx(0.9)

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([5.0]))
        SGD([p], lr=0.1).step()  # no backward happened
        assert p.data[0] == 5.0


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([8.0, -3.0]))
        target = np.array([0.5, 0.5])
        run_steps(Adam([p], lr=0.1), p, target, 300)
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # Adam's bias correction makes the first step ≈ lr * sign(grad).
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        opt.zero_grad()
        quadratic_loss(p, np.array([0.0])).backward()
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.01, abs=1e-6)


class TestAdamW:
    def test_decoupled_decay_applies_before_update(self):
        p = Parameter(np.array([1.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        ops.sum(ops.mul(p, 0.0)).backward()
        opt.step()
        # decay: 1.0 - 0.1*0.5*1.0 = 0.95; grad is 0 so Adam adds nothing.
        assert p.data[0] == pytest.approx(0.95)

    def test_decay_restored_after_step(self):
        p = Parameter(np.array([1.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        quadratic_loss(p, np.array([0.0])).backward()
        opt.step()
        assert opt.weight_decay == 0.5


class TestValidation:
    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)
