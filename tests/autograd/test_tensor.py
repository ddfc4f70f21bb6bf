"""Tensor mechanics: construction, backward, accumulation, broadcasting."""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd.tensor import _unbroadcast, ensure_tensor


class TestConstruction:
    def test_wraps_array(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert not t.requires_grad

    def test_coerces_scalars_and_lists(self):
        assert Tensor(3.0).data.dtype == np.float64
        assert Tensor([[1, 2], [3, 4]]).shape == (2, 2)

    def test_ensure_tensor_passthrough(self):
        t = Tensor(1.0)
        assert ensure_tensor(t) is t
        assert isinstance(ensure_tensor(2.0), Tensor)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        c = ops.sum(b * 3.0)
        c.backward()
        assert a.grad is None

    def test_item_scalar(self):
        assert Tensor(5.0).item() == 5.0


class TestBackward:
    def test_scalar_backward_default_grad(self):
        a = Tensor(2.0, requires_grad=True)
        (a * a).backward()
        assert a.grad == pytest.approx(4.0)

    def test_nonscalar_requires_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (a * 2.0).backward()

    def test_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_gradient_accumulates_across_backwards(self):
        a = Tensor(1.0, requires_grad=True)
        (a * 2.0).backward()
        (a * 2.0).backward()
        assert a.grad == pytest.approx(4.0)

    def test_zero_grad(self):
        a = Tensor(1.0, requires_grad=True)
        (a * 2.0).backward()
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph_accumulation(self):
        # f = (a*2) + (a*3): grad should be 5, requiring correct topo order.
        a = Tensor(1.0, requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        (b + c).backward()
        assert a.grad == pytest.approx(5.0)

    def test_shared_subexpression(self):
        # f = (a*b) + (a*b) computed through one shared node.
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(3.0, requires_grad=True)
        prod = a * b
        (prod + prod).backward()
        assert a.grad == pytest.approx(6.0)
        assert b.grad == pytest.approx(4.0)

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(1.0, requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 1.0
        x.backward()
        assert a.grad == pytest.approx(1.0)

    def test_constant_branch_untouched(self):
        a = Tensor(1.0, requires_grad=True)
        c = Tensor(5.0)  # constant
        (a * c).backward()
        assert c.grad is None


def _two_layer_problem(seed=0):
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(8, 6)))
    return w1, w2, x


def _two_layer_loss(w1, w2, x):
    """A small graph exercising matmul/relu/mul/sum backwards."""
    out = ops.matmul(ops.relu(ops.matmul(x, w1)), w2)
    return ops.sum(ops.mul(out, out))


class TestBackwardContract:
    """Only leaves and the root keep gradients; every call adds one gradient."""

    def test_shared_intermediates_match_summed_loss(self):
        w1, w2, x = _two_layer_problem()
        h = ops.relu(ops.matmul(x, w1))
        ops.sum(ops.mul(h, h)).backward()
        ops.sum(ops.matmul(h, w2)).backward()

        v1, v2, _ = _two_layer_problem()
        g = ops.relu(ops.matmul(x, v1))
        ops.add(ops.sum(ops.mul(g, g)), ops.sum(ops.matmul(g, v2))).backward()

        np.testing.assert_allclose(w1.grad, v1.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w2.grad, v2.grad, rtol=1e-12, atol=1e-12)

    def test_same_graph_twice_adds_one_gradient(self):
        w1, w2, x = _two_layer_problem()
        loss = _two_layer_loss(w1, w2, x)
        loss.backward()
        once = w1.grad.copy()
        loss.backward()
        np.testing.assert_allclose(w1.grad, 2.0 * once, rtol=1e-12)
        assert loss.grad == pytest.approx(2.0)

    def test_only_leaves_and_root_keep_grads(self):
        w1, w2, x = _two_layer_problem()
        pre = ops.matmul(x, w1)
        h = ops.relu(pre)
        out = ops.matmul(h, w2)
        loss = ops.sum(ops.mul(out, out))
        loss.backward()
        assert all(t.grad is None for t in (pre, h, out))
        assert w1.grad is not None and w2.grad is not None
        assert loss.grad == pytest.approx(1.0)

    def test_caller_seed_and_root_grad_stay_intact(self):
        """Closures may overwrite the grad they receive; that must never
        reach the caller's seed array or the root's kept gradient."""
        x = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
        y = ops.exp(ops.sub(ops.mul(x, 2.0), 0.5))
        seed = np.arange(6.0).reshape(2, 3)
        y.backward(seed)
        np.testing.assert_array_equal(seed, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(y.grad, seed)
        np.testing.assert_allclose(x.grad, 2.0 * seed * y.data, rtol=1e-12)

    def test_earlier_root_grad_does_not_leak(self):
        w1, w2, x = _two_layer_problem()
        inner = _two_layer_loss(w1, w2, x)
        inner.backward()
        w1.zero_grad()
        (inner * 3.0).backward()

        v1, v2, _ = _two_layer_problem()
        (_two_layer_loss(v1, v2, x) * 3.0).backward()
        np.testing.assert_allclose(w1.grad, v1.grad, rtol=1e-12)

    def test_leaf_grads_never_alias(self):
        w1, w2, x = _two_layer_problem()
        _two_layer_loss(w1, w2, x).backward()
        assert w1.grad is not None and w2.grad is not None
        assert not np.shares_memory(w1.grad, w2.grad)
        assert not np.shares_memory(w1.grad, w1.data)

    def test_leaf_grads_accumulate_over_two_fresh_graphs(self):
        w1, w2, x = _two_layer_problem()
        _two_layer_loss(w1, w2, x).backward()
        once = w1.grad.copy()
        _two_layer_loss(w1, w2, x).backward()
        np.testing.assert_array_equal(w1.grad, 2.0 * once)


class TestBroadcasting:
    def test_unbroadcast_row(self):
        grad = np.ones((4, 3))
        out = _unbroadcast(grad, (3,))
        np.testing.assert_allclose(out, [4.0, 4.0, 4.0])

    def test_unbroadcast_keepdims_axis(self):
        grad = np.ones((4, 3))
        out = _unbroadcast(grad, (4, 1))
        np.testing.assert_allclose(out, np.full((4, 1), 3.0))

    def test_broadcast_add_gradients(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        ops.sum(a + b).backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_broadcast_mul_gradients(self):
        a = Tensor(np.full((2, 3), 2.0), requires_grad=True)
        b = Tensor(np.full((1, 3), 3.0), requires_grad=True)
        ops.sum(a * b).backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 3.0))
        np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        ops.sum(a * 2.0 + 1.0).backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))


class TestOperatorOverloads:
    def test_arithmetic_values(self):
        a = Tensor([4.0])
        b = Tensor([2.0])
        assert (a + b).data[0] == 6.0
        assert (a - b).data[0] == 2.0
        assert (a * b).data[0] == 8.0
        assert (a / b).data[0] == 2.0
        assert (-a).data[0] == -4.0
        assert (a ** 2).data[0] == 16.0

    def test_reflected_ops(self):
        a = Tensor([2.0])
        assert (1.0 + a).data[0] == 3.0
        assert (1.0 - a).data[0] == -1.0
        assert (3.0 * a).data[0] == 6.0
        assert (8.0 / a).data[0] == 4.0

    def test_matmul_and_transpose(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.arange(6, dtype=float).reshape(3, 2))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)
        np.testing.assert_allclose(a.T.data, a.data.T)

    def test_indexing(self):
        a = Tensor(np.arange(9, dtype=float).reshape(3, 3), requires_grad=True)
        row = a[1]
        np.testing.assert_allclose(row.data, [3.0, 4.0, 5.0])

    def test_reshape_method(self):
        a = Tensor(np.arange(6, dtype=float))
        assert a.reshape(2, 3).shape == (2, 3)
        assert a.reshape((3, 2)).shape == (3, 2)
