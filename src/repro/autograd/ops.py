"""Differentiable operations for the :class:`~repro.autograd.tensor.Tensor` type.

Every function here takes tensors (or array-likes, which are promoted to
constant tensors), computes the forward value eagerly with numpy, and — when
any input requires gradients — records a backward closure that scatters the
output gradient back into the inputs.

The operation set is exactly what the reproduced models need: elementwise
arithmetic, dense and sparse matmul, activations, softmax/log-softmax,
reductions, row indexing/gathering, concatenation, row normalization, and
dropout — plus the fused hot-composition kernels (``spmm_bias_act``,
``linear_act``, ``normalize_cosine_sim_gather``/``normalize_cosine_rowwise``)
that collapse the graph-convolution, dense-layer, and contrastive-
similarity chains into one op each.  Every fused kernel computes the same
floats in the same order as its unfused composition, so adopting one is
bit-identical; the win is eliminated intermediate tensors, copies, and
graph bookkeeping (see docs/PERFORMANCE.md).

Backward closures donate freshly computed gradient arrays to
``Tensor._accumulate_grad(..., donate=True)`` so first-touch accumulation
takes ownership instead of copying.  A closure owns the ``grad`` it
receives (:meth:`Tensor.backward` drops it afterwards), so the elementwise
ops on the dense-loss path (``sub``, ``mul``, ``exp``) hand that array on,
or overwrite it in place, instead of allocating a new one.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, ensure_tensor

ArrayOrTensor = Union[Tensor, np.ndarray, float, int]

#: Attribute under which a sparse matrix caches its CSR transpose (the
#: structure ``spmm``'s backward multiplies by).  Stored on the matrix
#: object itself so the cache's lifetime is exactly the matrix's — no
#: id()-keyed registry that could alias a freed matrix's reused address.
_TRANSPOSE_ATTR = "_repro_csr_transpose"


def _csr_transpose(csr: sp.csr_matrix) -> sp.csr_matrix:
    """The cached CSR transpose of ``csr`` (derived once per matrix).

    Graph adjacencies are constants that feed thousands of backward calls
    per run; re-deriving ``csr.T.tocsr()`` (a full structure conversion)
    on every one of them dominated ``spmm``'s backward cost.  Callers must
    treat cached matrices as immutable — every adjacency in this codebase
    is built once and never mutated in place.
    """
    cached = getattr(csr, _TRANSPOSE_ATTR, None)
    if cached is None:
        cached = csr.T.tocsr()
        try:
            setattr(csr, _TRANSPOSE_ATTR, cached)
        except AttributeError:  # sparse classes with __slots__: skip caching
            pass
    return cached


def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward_fn,
) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------
def add(a: ArrayOrTensor, b: ArrayOrTensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad)
        if b.requires_grad:
            b._accumulate_grad(grad)

    return _make(out_data, (a, b), backward)


def sub(a: ArrayOrTensor, b: ArrayOrTensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad, donate=True)
        if b.requires_grad:
            b._accumulate_grad(-grad, donate=True)

    return _make(out_data, (a, b), backward)


def mul(a: ArrayOrTensor, b: ArrayOrTensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        # ``b`` first: ``a``'s gradient is then written over ``grad``.
        if b.requires_grad:
            b._accumulate_grad(grad * a.data, donate=True)
        if a.requires_grad:
            a._accumulate_grad(np.multiply(grad, b.data, out=grad), donate=True)

    return _make(out_data, (a, b), backward)


def div(a: ArrayOrTensor, b: ArrayOrTensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad / b.data, donate=True)
        if b.requires_grad:
            b._accumulate_grad(-grad * a.data / (b.data ** 2), donate=True)

    return _make(out_data, (a, b), backward)


def neg(a: ArrayOrTensor) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(-grad, donate=True)

    return _make(-a.data, (a,), backward)


def power(a: ArrayOrTensor, exponent: float) -> Tensor:
    a = ensure_tensor(a)
    out_data = a.data ** exponent

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * exponent * a.data ** (exponent - 1), donate=True)

    return _make(out_data, (a,), backward)


def exp(a: ArrayOrTensor) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(np.multiply(grad, out_data, out=grad), donate=True)

    return _make(out_data, (a,), backward)


def log(a: ArrayOrTensor, eps: float = 0.0) -> Tensor:
    """Natural log; pass ``eps`` > 0 to clamp away from zero for stability."""
    a = ensure_tensor(a)
    safe = a.data + eps if eps else a.data
    out_data = np.log(safe)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad / safe, donate=True)

    return _make(out_data, (a,), backward)


def sqrt(a: ArrayOrTensor) -> Tensor:
    return power(a, 0.5)


def abs(a: ArrayOrTensor) -> Tensor:  # noqa: A001 - mirrors numpy naming
    a = ensure_tensor(a)
    out_data = np.abs(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * np.sign(a.data), donate=True)

    return _make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def relu(a: ArrayOrTensor) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * mask, donate=True)

    return _make(out_data, (a,), backward)


def leaky_relu(a: ArrayOrTensor, negative_slope: float = 0.01) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, negative_slope * a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * np.where(mask, 1.0, negative_slope), donate=True)

    return _make(out_data, (a,), backward)


def sigmoid(a: ArrayOrTensor) -> Tensor:
    a = ensure_tensor(a)
    # Numerically stable logistic.
    out_data = np.where(
        a.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500))),
        np.exp(np.clip(a.data, -500, 500)) / (1.0 + np.exp(np.clip(a.data, -500, 500))),
    )

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * out_data * (1.0 - out_data), donate=True)

    return _make(out_data, (a,), backward)


def tanh(a: ArrayOrTensor) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * (1.0 - out_data ** 2), donate=True)

    return _make(out_data, (a,), backward)


def elu(a: ArrayOrTensor, alpha: float = 1.0) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    expm1 = alpha * np.expm1(np.minimum(a.data, 0.0))
    out_data = np.where(mask, a.data, expm1)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * np.where(mask, 1.0, expm1 + alpha), donate=True)

    return _make(out_data, (a,), backward)


def softmax(a: ArrayOrTensor, axis: int = -1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            a._accumulate_grad(out_data * (grad - dot), donate=True)

    return _make(out_data, (a,), backward)


def log_softmax(a: ArrayOrTensor, axis: int = -1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad - soft * grad.sum(axis=axis, keepdims=True), donate=True)

    return _make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------
def matmul(a: ArrayOrTensor, b: ArrayOrTensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad @ b.data.T, donate=True)
        if b.requires_grad:
            b._accumulate_grad(a.data.T @ grad, donate=True)

    return _make(out_data, (a, b), backward)


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Sparse-matrix x dense-tensor product; the sparse side is a constant.

    Used for GCN propagation ``A_n @ H`` where ``A_n`` is the normalized
    adjacency.  The gradient w.r.t. ``dense`` is ``A_n.T @ grad``.
    """
    dense = ensure_tensor(dense)
    csr = matrix.tocsr()
    out_data = csr @ dense.data

    def backward(grad: np.ndarray) -> None:
        if dense.requires_grad:
            dense._accumulate_grad(_csr_transpose(csr) @ grad, donate=True)

    return _make(np.asarray(out_data), (dense,), backward)


def transpose(a: ArrayOrTensor) -> Tensor:
    a = ensure_tensor(a)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad.T)

    return _make(a.data.T, (a,), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def sum(a: ArrayOrTensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = ensure_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accumulate_grad(np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), backward)


def mean(a: ArrayOrTensor, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    denom = a.data.size if axis is None else a.data.shape[axis]

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = grad / denom
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accumulate_grad(np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Shape / gather operations
# ----------------------------------------------------------------------
def reshape(a: ArrayOrTensor, shape: Tuple[int, ...]) -> Tensor:
    a = ensure_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def index(a: ArrayOrTensor, idx) -> Tensor:
    """Basic / fancy indexing with gradient scatter-add back into ``a``."""
    a = ensure_tensor(a)
    out_data = a.data[idx]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, grad)
            a._accumulate_grad(full, donate=True)

    return _make(out_data, (a,), backward)


def gather_rows(a: ArrayOrTensor, row_indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor; duplicate indices accumulate gradients."""
    return index(a, np.asarray(row_indices))


def concat(tensors: Sequence[ArrayOrTensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate_grad(grad[tuple(slicer)])

    return _make(out_data, tuple(tensors), backward)


# ----------------------------------------------------------------------
# Normalization / regularization
# ----------------------------------------------------------------------
def l2_normalize_rows(a: ArrayOrTensor, eps: float = 1e-12) -> Tensor:
    """Normalize each row of a 2-D tensor to unit euclidean norm."""
    a = ensure_tensor(a)
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    norms = np.maximum(norms, eps)
    out_data = a.data / norms

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            dot = (grad * out_data).sum(axis=1, keepdims=True)
            a._accumulate_grad((grad - out_data * dot) / norms, donate=True)

    return _make(out_data, (a,), backward)


def dropout(a: ArrayOrTensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    a = ensure_tensor(a)
    if not training or rate <= 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1); got {rate}")
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep) / keep
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_grad(grad * mask, donate=True)

    return _make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Fused kernels
# ----------------------------------------------------------------------
# Each fused op replaces a hot multi-op chain with a single graph node.
# The arithmetic — expression by expression, in the same order — matches
# the unfused composition exactly, so results are bit-identical; the
# saving is the intermediate Tensors, their gradient buffers, and the
# per-op closure dispatch the chain used to pay for.

_FUSED_ACTIVATIONS = (None, "relu", "leaky_relu", "elu", "tanh", "sigmoid")


def _activation_forward(pre: np.ndarray, activation, negative_slope: float, alpha: float):
    """Apply ``activation`` to ``pre``; returns ``(out, ctx)``.

    **Takes ownership of ``pre``**: the caller passes a freshly allocated
    product it will never read again, so the activation is applied in
    place (same ufunc, ``out=pre``) instead of allocating a new array —
    this is where the fused kernels beat the unfused chains.  ``ctx``
    carries exactly what :func:`_activation_backward` needs.  The
    expressions match the standalone activation ops above ufunc-for-ufunc
    so a fused chain reproduces their floats bit-for-bit.
    """
    if activation is None:
        return pre, None
    if activation == "relu":
        mask = pre > 0
        np.multiply(pre, mask, out=pre)
        return pre, ("relu", mask)
    if activation == "leaky_relu":
        mask = pre > 0
        out = negative_slope * pre
        np.copyto(out, pre, where=mask)
        return out, ("leaky_relu", mask)
    if activation == "elu":
        mask = pre > 0
        expm1 = np.minimum(pre, 0.0)
        np.expm1(expm1, out=expm1)
        np.multiply(expm1, alpha, out=expm1)
        return np.where(mask, pre, expm1), ("elu", mask, expm1)
    if activation == "tanh":
        out = np.tanh(pre, out=pre)
        return out, ("tanh", out)
    if activation == "sigmoid":
        out = np.where(
            pre >= 0,
            1.0 / (1.0 + np.exp(-np.clip(pre, -500, 500))),
            np.exp(np.clip(pre, -500, 500)) / (1.0 + np.exp(np.clip(pre, -500, 500))),
        )
        return out, ("sigmoid", out)
    raise ValueError(
        f"unsupported fused activation {activation!r}; pick one of {_FUSED_ACTIVATIONS}"
    )


def _activation_backward(grad: np.ndarray, ctx, negative_slope: float, alpha: float) -> np.ndarray:
    """Gradient through the activation recorded by :func:`_activation_forward`."""
    if ctx is None:
        return grad
    kind = ctx[0]
    if kind == "relu":
        return grad * ctx[1]
    if kind == "leaky_relu":
        return grad * np.where(ctx[1], 1.0, negative_slope)
    if kind == "elu":
        return grad * np.where(ctx[1], 1.0, ctx[2] + alpha)
    if kind == "tanh":
        return grad * (1.0 - ctx[1] ** 2)
    return grad * ctx[1] * (1.0 - ctx[1])  # sigmoid


def spmm_bias_act(
    matrix: sp.spmatrix,
    dense: ArrayOrTensor,
    bias: Optional[ArrayOrTensor] = None,
    activation: Optional[str] = None,
    negative_slope: float = 0.2,
    alpha: float = 1.0,
) -> Tensor:
    """Fused ``activation(spmm(matrix, dense) + bias)`` — the GCN propagate kernel.

    One graph node instead of three (``spmm``/``add``/activation): a full
    GCN layer's propagation allocates one output array and one gradient
    buffer per parent rather than materializing two intermediate tensors
    and their gradients per layer per step.  Bit-identical to the unfused
    chain.  ``bias`` broadcasts like :func:`add`; ``activation`` is one of
    ``None``/``relu``/``leaky_relu``/``elu``/``tanh``/``sigmoid``.
    """
    dense = ensure_tensor(dense)
    bias_t = ensure_tensor(bias) if bias is not None else None
    csr = matrix.tocsr()
    pre = np.asarray(csr @ dense.data)
    if bias_t is not None:
        # ``pre`` is a fresh product; adding in place (same ufunc as
        # ``pre + bias``) skips the intermediate the unfused chain allocates.
        np.add(pre, bias_t.data, out=pre)
    out_data, ctx = _activation_forward(pre, activation, negative_slope, alpha)

    parents = (dense,) if bias_t is None else (dense, bias_t)

    def backward(grad: np.ndarray) -> None:
        g = _activation_backward(grad, ctx, negative_slope, alpha)
        if bias_t is not None and bias_t.requires_grad:
            bias_t._accumulate_grad(g)
        if dense.requires_grad:
            dense._accumulate_grad(_csr_transpose(csr) @ g, donate=True)

    return _make(out_data, parents, backward)


def linear_act(
    x: ArrayOrTensor,
    weight: ArrayOrTensor,
    bias: Optional[ArrayOrTensor] = None,
    activation: Optional[str] = None,
    negative_slope: float = 0.2,
    alpha: float = 1.0,
) -> Tensor:
    """Fused ``activation(x @ weight + bias)`` — the dense-layer kernel.

    Collapses the ``matmul``/``add``/activation chain every MLP and
    projection-head layer issues into a single node.  Bit-identical to
    the unfused composition.
    """
    x = ensure_tensor(x)
    weight = ensure_tensor(weight)
    bias_t = ensure_tensor(bias) if bias is not None else None
    pre = x.data @ weight.data
    if bias_t is not None:
        np.add(pre, bias_t.data, out=pre)
    out_data, ctx = _activation_forward(pre, activation, negative_slope, alpha)

    parents = (x, weight) if bias_t is None else (x, weight, bias_t)

    def backward(grad: np.ndarray) -> None:
        g = _activation_backward(grad, ctx, negative_slope, alpha)
        if bias_t is not None and bias_t.requires_grad:
            bias_t._accumulate_grad(g)
        if x.requires_grad:
            x._accumulate_grad(g @ weight.data.T, donate=True)
        if weight.requires_grad:
            weight._accumulate_grad(x.data.T @ g, donate=True)

    return _make(out_data, parents, backward)


def normalize_cosine_sim_gather(
    a: ArrayOrTensor,
    b: ArrayOrTensor,
    cols: np.ndarray,
    eps: float = 1e-12,
) -> Tensor:
    """Fused row-normalize + rows-vs-sampled-columns cosine similarity.

    ``out[i, j] = cos(a[i], b[cols[i, j]])`` for an ``(m, k)`` integer
    index matrix ``cols`` — the O(n·k) kernel under every *subsampled*
    contrastive objective.  Equivalent to gathering ``k`` entries per row of
    the full ``functional.cosine_similarity_matrix(a, b)`` without ever
    materializing the O(n²) similarities: forward work and every gradient
    buffer are O(m·k·d).  Duplicate column indices accumulate gradients,
    matching :func:`gather_rows` semantics.
    """
    a, b = ensure_tensor(a), ensure_tensor(b)
    cols = np.asarray(cols)
    if cols.ndim != 2 or cols.shape[0] != a.data.shape[0]:
        raise ValueError("cols must be (num_rows_of_a, k)")
    a_norms = np.maximum(np.linalg.norm(a.data, axis=1, keepdims=True), eps)
    a_n = a.data / a_norms
    b_norms = np.maximum(np.linalg.norm(b.data, axis=1, keepdims=True), eps)
    b_n = b.data / b_norms
    gathered = b_n[cols]                             # (m, k, d)
    out_data = np.einsum("md,mkd->mk", a_n, gathered)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            g_an = np.einsum("mk,mkd->md", grad, gathered)
            dot = (g_an * a_n).sum(axis=1, keepdims=True)
            a._accumulate_grad((g_an - a_n * dot) / a_norms, donate=True)
        if b.requires_grad:
            g_bn = np.zeros_like(b.data)
            contrib = grad[:, :, None] * a_n[:, None, :]          # (m, k, d)
            np.add.at(g_bn, cols.reshape(-1), contrib.reshape(-1, a_n.shape[1]))
            dot = (g_bn * b_n).sum(axis=1, keepdims=True)
            # Finish in place so the scatter buffer is the array donated to
            # the accumulator — same ufuncs, same floats.
            np.subtract(g_bn, b_n * dot, out=g_bn)
            np.divide(g_bn, b_norms, out=g_bn)
            b._accumulate_grad(g_bn, donate=True)

    return _make(out_data, (a, b), backward)


def normalize_cosine_rowwise(a: ArrayOrTensor, b: ArrayOrTensor, eps: float = 1e-12) -> Tensor:
    """Fused row-normalize + per-row cosine similarity (1-D output).

    Replaces ``sum(mul(l2_normalize_rows(a), l2_normalize_rows(b)), axis=1)``
    — the BGRL bootstrap-loss kernel — with one node.  Bit-identical to
    the unfused chain.
    """
    a, b = ensure_tensor(a), ensure_tensor(b)
    a_norms = np.maximum(np.linalg.norm(a.data, axis=1, keepdims=True), eps)
    a_n = a.data / a_norms
    b_norms = np.maximum(np.linalg.norm(b.data, axis=1, keepdims=True), eps)
    b_n = b.data / b_norms
    out_data = (a_n * b_n).sum(axis=1)

    def backward(grad: np.ndarray) -> None:
        g = np.expand_dims(grad, axis=1)
        if a.requires_grad:
            g_an = g * b_n
            dot = (g_an * a_n).sum(axis=1, keepdims=True)
            a._accumulate_grad((g_an - a_n * dot) / a_norms, donate=True)
        if b.requires_grad:
            g_bn = g * a_n
            dot = (g_bn * b_n).sum(axis=1, keepdims=True)
            b._accumulate_grad((g_bn - b_n * dot) / b_norms, donate=True)

    return _make(out_data, (a, b), backward)
