"""Loss functions and distance helpers built from the primitive ops.

These are the training objectives shared across the reproduction:
cross-entropy for decoders, BCE for link predictors and DGI discriminators,
MSE, cosine losses for BGRL, and euclidean / cosine pairwise distances used
by the contrastive objectives.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import ops
from .tensor import Tensor, ensure_tensor


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements."""
    target = ensure_tensor(target)
    diff = ops.sub(pred, target)
    return ops.mean(ops.mul(diff, diff))


def cross_entropy(logits: Tensor, labels: np.ndarray, weights: Optional[np.ndarray] = None) -> Tensor:
    """Softmax cross-entropy with integer class labels.

    Parameters
    ----------
    logits:
        ``(n, num_classes)`` unnormalized scores.
    labels:
        ``(n,)`` integer class indices.
    weights:
        Optional per-example weights (e.g. coreset λ); normalized by their sum.
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape[0] != n:
        raise ValueError(f"labels ({labels.shape[0]}) and logits ({n}) disagree")
    log_probs = ops.log_softmax(logits, axis=-1)
    picked = ops.index(log_probs, (np.arange(n), labels))
    if weights is None:
        return ops.neg(ops.mean(picked))
    weights = np.asarray(weights, dtype=np.float64)
    weights = weights / weights.sum()
    return ops.neg(ops.sum(ops.mul(picked, weights)))


def binary_cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Numerically stable BCE on raw logits: mean over all elements."""
    targets = ensure_tensor(targets)
    # log(1 + exp(-|x|)) + max(x, 0) - x*t
    neg_abs = ops.neg(ops.abs(logits))
    softplus = ops.log(ops.add(1.0, ops.exp(neg_abs)))
    relu_part = ops.relu(logits)
    loss = ops.add(ops.sub(relu_part, ops.mul(logits, targets)), softplus)
    return ops.mean(loss)


def l2_regularization(parameters, coefficient: float) -> Tensor:
    """Sum of squared parameter entries, scaled: classic ridge penalty."""
    total = None
    for param in parameters:
        term = ops.sum(ops.mul(param, param))
        total = term if total is None else ops.add(total, term)
    if total is None:
        raise ValueError("no parameters to regularize")
    return ops.mul(total, coefficient)


def rowwise_sq_euclidean(a: Tensor, b: Tensor) -> Tensor:
    """Squared euclidean distance between corresponding rows of ``a`` and ``b``."""
    diff = ops.sub(a, b)
    return ops.sum(ops.mul(diff, diff), axis=1)


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity between rows of ``a`` and rows of ``b``."""
    return ops.matmul(ops.l2_normalize_rows(a), ops.transpose(ops.l2_normalize_rows(b)))


def rowwise_cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine similarity between corresponding rows of ``a`` and ``b``.

    Fused: one graph node instead of the normalize/mul/sum chain.
    """
    return ops.normalize_cosine_rowwise(a, b)


def bootstrap_cosine_loss(online: Tensor, target: Tensor) -> Tensor:
    """BGRL/BYOL loss: ``2 - 2 * mean(cosine(online_i, target_i))``."""
    sim = rowwise_cosine_similarity(online, target)
    return ops.sub(2.0, ops.mul(ops.mean(sim), 2.0))
