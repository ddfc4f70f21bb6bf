"""Gradient correctness of every op, checked against finite differences."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autograd import Tensor, ops


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_gradient(op, x: np.ndarray, atol=1e-5, **kwargs):
    """Compare autodiff gradient of sum(op(x)) with finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = ops.sum(op(t, **kwargs))
    out.backward()

    def f(arr):
        return float(op(Tensor(arr), **kwargs).data.sum())

    expected = numeric_grad(f, x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=1e-4)


RNG = np.random.default_rng(42)
X = RNG.normal(size=(4, 3))
X_POS = np.abs(X) + 0.5


UNARY_CASES = [
    (ops.neg, X),
    (ops.exp, X),
    (lambda t: ops.log(t), X_POS),
    (lambda t: ops.power(t, 3.0), X),
    (lambda t: ops.power(t, 0.5), X_POS),
    (ops.abs, X + 0.1),      # keep away from the kink
    (ops.relu, X + 0.05),
    (lambda t: ops.leaky_relu(t, 0.1), X + 0.05),
    (ops.sigmoid, X),
    (ops.tanh, X),
    (ops.elu, X + 0.05),
    (lambda t: ops.softmax(t, axis=-1), X),
    (lambda t: ops.log_softmax(t, axis=-1), X),
    (ops.transpose, X),
    (lambda t: ops.sum(t, axis=0), X),
    (lambda t: ops.sum(t, axis=1, keepdims=True), X),
    (lambda t: ops.mean(t, axis=1), X),
    (lambda t: ops.mean(t), X),
    (lambda t: ops.reshape(t, (3, 4)), X),
    (lambda t: ops.l2_normalize_rows(t), X),
]


@pytest.mark.parametrize("op,x", UNARY_CASES, ids=[f"case{i}" for i in range(len(UNARY_CASES))])
def test_unary_gradients(op, x):
    check_gradient(op, x)


class TestBinaryGradients:
    def test_add_sub_mul_div(self):
        a = RNG.normal(size=(3, 2))
        b = RNG.normal(size=(3, 2)) + 2.0
        for op in (ops.add, ops.sub, ops.mul, ops.div):
            ta = Tensor(a.copy(), requires_grad=True)
            tb = Tensor(b.copy(), requires_grad=True)
            ops.sum(op(ta, tb)).backward()
            ga = numeric_grad(lambda arr: float(op(Tensor(arr), Tensor(b)).data.sum()), a.copy())
            gb = numeric_grad(lambda arr: float(op(Tensor(a), Tensor(arr)).data.sum()), b.copy())
            np.testing.assert_allclose(ta.grad, ga, atol=1e-5)
            np.testing.assert_allclose(tb.grad, gb, atol=1e-5)

    def test_matmul_gradients(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(4, 2))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        ops.sum(ops.matmul(ta, tb)).backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T, atol=1e-10)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 2)), atol=1e-10)


class TestSparse:
    def test_spmm_forward(self):
        a = sp.random(5, 5, density=0.4, random_state=1, format="csr")
        x = RNG.normal(size=(5, 3))
        out = ops.spmm(a, Tensor(x))
        np.testing.assert_allclose(out.data, a @ x)

    def test_spmm_gradient(self):
        a = sp.random(5, 5, density=0.4, random_state=2, format="csr")
        x = RNG.normal(size=(5, 3))
        t = Tensor(x.copy(), requires_grad=True)
        ops.sum(ops.spmm(a, t)).backward()
        expected = a.T @ np.ones((5, 3))
        np.testing.assert_allclose(t.grad, np.asarray(expected), atol=1e-10)

    def test_spmm_transpose_cached_on_matrix(self):
        """The backward pass computes ``A.T`` once and pins it on the CSR
        object; repeated backwards reuse the cached transpose."""
        a = sp.random(6, 6, density=0.3, random_state=3, format="csr")
        assert not hasattr(a, "_repro_csr_transpose")
        t = Tensor(RNG.normal(size=(6, 4)), requires_grad=True)
        ops.sum(ops.spmm(a, t)).backward()
        cached = a._repro_csr_transpose
        assert sp.issparse(cached) and cached.format == "csr"
        ops.sum(ops.spmm(a, t)).backward()
        assert a._repro_csr_transpose is cached, "transpose must be computed once"

    def test_spmm_gradient_bit_identical_to_fresh_transpose(self):
        """Cached-transpose backward must equal ``A.T.tocsr() @ g`` bitwise —
        the cache is a pure memoization, not a numerical shortcut."""
        a = sp.random(8, 8, density=0.35, random_state=4, format="csr")
        x = RNG.normal(size=(8, 5))
        seed = RNG.normal(size=(8, 5))

        t = Tensor(x.copy(), requires_grad=True)
        out = ops.spmm(a, t)
        out.backward(seed)
        first = t.grad.copy()

        # Second backward goes through the now-cached transpose.
        t2 = Tensor(x.copy(), requires_grad=True)
        ops.spmm(a, t2).backward(seed)

        reference = np.asarray(a.T.tocsr() @ seed)
        np.testing.assert_array_equal(first, reference)
        np.testing.assert_array_equal(t2.grad, reference)


class TestGatherConcat:
    def test_index_duplicate_rows_accumulate(self):
        a = Tensor(np.eye(3), requires_grad=True)
        ops.sum(ops.gather_rows(a, np.array([0, 0, 2]))).backward()
        # Row 0 was gathered twice: its gradient is 2·ones(3).
        np.testing.assert_allclose(a.grad.sum(axis=1), [6.0, 0.0, 3.0])

    def test_index_tuple_fancy(self):
        a = Tensor(np.arange(9, dtype=float).reshape(3, 3), requires_grad=True)
        picked = ops.index(a, (np.array([0, 1]), np.array([2, 0])))
        np.testing.assert_allclose(picked.data, [2.0, 3.0])
        ops.sum(picked).backward()
        assert a.grad[0, 2] == 1.0 and a.grad[1, 0] == 1.0
        assert a.grad.sum() == 2.0

    def test_concat_gradients_split_correctly(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ops.concat([a, b], axis=0)
        assert out.shape == (5, 2)
        out.backward(np.arange(10, dtype=float).reshape(5, 2))
        np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])
        np.testing.assert_allclose(b.grad, [[4, 5], [6, 7], [8, 9]])


class TestDropout:
    def test_dropout_identity_when_eval(self):
        rng = np.random.default_rng(0)
        a = Tensor(np.ones((10, 10)))
        out = ops.dropout(a, 0.5, rng, training=False)
        assert out is a

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        a = Tensor(np.ones((200, 200)))
        out = ops.dropout(a, 0.3, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_invalid_rate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ops.dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_dropout_gradient_matches_mask(self):
        rng = np.random.default_rng(3)
        a = Tensor(np.ones((5, 5)), requires_grad=True)
        out = ops.dropout(a, 0.4, rng, training=True)
        ops.sum(out).backward()
        np.testing.assert_allclose(a.grad, out.data)  # input was all-ones


class TestNumericalStability:
    def test_sigmoid_extreme_values(self):
        out = ops.sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softmax_large_logits(self):
        out = ops.softmax(Tensor(np.array([[1000.0, 1000.0, 999.0]])))
        assert np.isfinite(out.data).all()
        assert out.data.sum() == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        x = RNG.normal(size=(3, 5))
        a = ops.log_softmax(Tensor(x)).data
        b = np.log(ops.softmax(Tensor(x)).data)
        np.testing.assert_allclose(a, b, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
        elements=st.floats(-3, 3, allow_nan=False),
    )
)
def test_property_tanh_gradient_matches_fd(x):
    """Hypothesis: tanh gradients match finite differences on arbitrary input."""
    check_gradient(ops.tanh, x, atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=5),
        elements=st.floats(-3, 3, allow_nan=False),
    )
)
def test_property_softmax_rows_sum_to_one(x):
    out = ops.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(x.shape[0]), atol=1e-9)
