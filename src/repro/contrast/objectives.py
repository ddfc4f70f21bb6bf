"""Contrastive objectives: *how* positive and negative pairs are scored.

The first axis of the composable contrast layer (objective × mode ×
negative sampler).  Every objective implements two entry points, one per
contrasting mode:

``pair_loss(z1, z2, negatives=None, weights=None)``
    L2L (node-to-node): row ``i`` of the two views is a positive pair.
    ``negatives`` is an ``(m, k)`` index matrix from a
    :class:`~repro.contrast.negatives.NegativeSampler` (``None`` = all
    pairs); objectives that need no negatives ignore it.

``score_loss(pos_scores, neg_scores, weights=None)``
    G2L (node-to-summary, DGI/MVGRL style): a discriminator has already
    reduced each (node, summary) pair to a scalar score; the objective
    turns positive and negative score vectors into a loss.

Numerical contracts, pinned by ``tests/contrast/test_equivalence.py``:

* ``InfoNCE.pair_loss`` with ``negatives=None`` computes float-for-float
  the historical ``infonce_loss`` (two dense ``(m, 2m)``
  similarity blocks, shifted logsumexp);
* ``Euclidean.pair_loss`` is the historical Eq. 5 loss;
* ``JSD.score_loss`` with equal-length scores is the historical DGI/MVGRL
  BCE discriminator loss (JSD lower bound);
* ``BootstrapCosine.pair_loss`` is the historical BGRL/AFGRL
  ``bootstrap_cosine_loss``.

With an ``(m, k)`` ``negatives`` matrix the pair losses switch to the
O(n·k) subsampled path built on the fused
:func:`~repro.autograd.ops.normalize_cosine_sim_gather` kernel — no
O(n²) similarity matrix is ever materialized.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

import numpy as np

from ..autograd import Tensor, functional, ops

__all__ = [
    "Objective",
    "InfoNCE",
    "JSD",
    "BarlowTwins",
    "BootstrapCosine",
    "MarginMining",
    "Euclidean",
    "get_objective",
    "available_objectives",
]


def _normalize_weights(weights, count: int) -> np.ndarray:
    if weights is None:
        return np.full(count, 1.0 / count)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape[0] != count:
        raise ValueError(f"expected {count} weights, got {weights.shape[0]}")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")
    return weights / total


def _as_negatives(negatives, num_anchors: int) -> np.ndarray:
    negatives = np.asarray(negatives)
    if negatives.ndim != 2 or negatives.shape[0] != num_anchors:
        raise ValueError("negatives must be (num_anchors, num_negatives)")
    return negatives


class Objective:
    """Interface every contrastive objective implements (both modes)."""

    name = "base"
    #: Whether sampled negatives change the loss (False = negative-free).
    uses_negatives = True

    def pair_loss(
        self,
        z1: Tensor,
        z2: Tensor,
        negatives: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
    ) -> Tensor:
        """L2L loss over two aligned views (row ``i`` ↔ row ``i``)."""
        raise NotImplementedError

    def score_loss(
        self,
        pos_scores: Tensor,
        neg_scores: Tensor,
        weights: Optional[np.ndarray] = None,
    ) -> Tensor:
        """G2L loss over discriminator scores (higher = more similar)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class InfoNCE(Objective):
    """NT-Xent: positives attract, the log-sum-exp denominator repels.

    All-pairs (``negatives=None``) reproduces the historical GRACE-style
    loss exactly; an ``(m, k)`` index matrix switches to the subsampled
    O(n·k) denominator (positive + ``k`` cross-view + ``k`` intra-view
    terms per anchor) on the fused gather-similarity kernel.
    """

    name = "infonce"

    def __init__(self, temperature: float = 0.5, symmetric: bool = True) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature
        self.symmetric = symmetric

    # -- dense path: float-identical to the pre-refactor infonce_loss ----
    def _one_direction_dense(self, a: Tensor, b: Tensor, m: int) -> Tensor:
        t = self.temperature
        cross = ops.mul(ops.matmul(a, ops.transpose(b)), 1.0 / t)  # (m, m)
        intra = ops.mul(ops.matmul(a, ops.transpose(a)), 1.0 / t)  # (m, m)
        diag = np.arange(m)
        pos = ops.index(cross, (diag, diag))                        # (m,)
        # Denominator: all cross-view pairs plus intra-view non-self pairs.
        # logsumexp over the concatenation of [cross_row, intra_row \ self].
        both = ops.concat([cross, intra], axis=1)                   # (m, 2m)
        max_row = both.data.max(axis=1, keepdims=True)
        shifted = ops.sub(both, max_row)
        exp_row = ops.exp(shifted)
        # Remove the intra-view self term exp(1/t - max) from the sum.
        self_term = np.exp(intra.data[diag, diag][:, None] - max_row)
        total = ops.sub(exp_row.sum(axis=1, keepdims=True), self_term)
        log_denominator = ops.add(ops.log(ops.reshape(total, (m,)), eps=1e-12),
                                  max_row.ravel())
        return ops.sub(log_denominator, pos)                        # (m,)

    # -- subsampled path: O(n·k) via the fused gather kernel -------------
    def _one_direction_sampled(
        self, a: Tensor, b: Tensor, m: int, negatives: np.ndarray
    ) -> Tensor:
        t = self.temperature
        pos = ops.mul(ops.normalize_cosine_rowwise(a, b), 1.0 / t)              # (m,)
        cross = ops.mul(ops.normalize_cosine_sim_gather(a, b, negatives), 1.0 / t)
        intra = ops.mul(ops.normalize_cosine_sim_gather(a, a, negatives), 1.0 / t)
        # Denominator mirrors the dense loss's structure — the positive term
        # plus cross-view and intra-view negatives — over the sampled columns.
        both = ops.concat([ops.reshape(pos, (m, 1)), cross, intra], axis=1)     # (m, 2k+1)
        max_row = both.data.max(axis=1, keepdims=True)
        shifted = ops.sub(both, max_row)
        total = ops.exp(shifted).sum(axis=1, keepdims=True)
        log_denominator = ops.add(ops.log(ops.reshape(total, (m,)), eps=1e-12),
                                  max_row.ravel())
        return ops.sub(log_denominator, pos)

    def pair_loss(self, z1, z2, negatives=None, weights=None) -> Tensor:
        m = z1.shape[0]
        w = _normalize_weights(weights, m)
        if negatives is None:
            a = ops.l2_normalize_rows(z1)
            b = ops.l2_normalize_rows(z2)
            direction = lambda x, y: self._one_direction_dense(x, y, m)  # noqa: E731
        else:
            negatives = _as_negatives(negatives, m)
            a, b = z1, z2
            direction = lambda x, y: self._one_direction_sampled(x, y, m, negatives)  # noqa: E731
        loss12 = direction(a, b)
        if not self.symmetric:
            return ops.sum(ops.mul(loss12, w))
        loss21 = direction(b, a)
        return ops.mul(
            ops.add(ops.sum(ops.mul(loss12, w)), ops.sum(ops.mul(loss21, w))), 0.5
        )

    def score_loss(self, pos_scores, neg_scores, weights=None) -> Tensor:
        """Each positive against the whole negative score set:
        ``-log exp(p_i/t) / (exp(p_i/t) + Σ_j exp(n_j/t))``."""
        t = self.temperature
        p = ops.mul(pos_scores, 1.0 / t)                       # (m,)
        n = ops.mul(neg_scores, 1.0 / t)                       # (q,)
        m = p.shape[0]
        w = _normalize_weights(weights, m)
        shift = float(max(p.data.max(), n.data.max()))
        neg_total = ops.sum(ops.exp(ops.sub(n, shift)))        # scalar
        pos_shift = ops.exp(ops.sub(p, shift))                 # (m,)
        log_denominator = ops.add(
            ops.log(ops.add(pos_shift, neg_total), eps=1e-12), shift
        )
        return ops.sum(ops.mul(ops.sub(log_denominator, p), w))


class JSD(Objective):
    """Jensen-Shannon MI lower bound — the DGI/MVGRL discriminator loss.

    On scores this is exactly BCE-with-logits over the positive (target 1)
    and negative (target 0) pairs, which is the historical DGI objective
    float-for-float.  On embedding pairs the logits are cosine
    similarities: the positive diagonal vs sampled (or all) cross-view
    pairs.
    """

    name = "jsd"

    def pair_loss(self, z1, z2, negatives=None, weights=None) -> Tensor:
        m = z1.shape[0]
        pos = ops.normalize_cosine_rowwise(z1, z2)                      # (m,)
        if negatives is None:
            sims = functional.cosine_similarity_matrix(z1, z2)          # (m, m)
            mask = ~np.eye(m, dtype=bool)
            neg = ops.index(sims, np.where(mask))                       # (m·(m−1),)
        else:
            negatives = _as_negatives(negatives, m)
            neg = ops.reshape(
                ops.normalize_cosine_sim_gather(z1, z2, negatives), (-1,)
            )
        return self.score_loss(pos, neg, weights=weights)

    def score_loss(self, pos_scores, neg_scores, weights=None) -> Tensor:
        logits = ops.concat([pos_scores, neg_scores], axis=0)
        targets = np.concatenate(
            [np.ones(pos_scores.shape[0]), np.zeros(neg_scores.shape[0])]
        )
        if weights is None:
            return functional.binary_cross_entropy_with_logits(logits, targets)
        # Per-anchor weights apply to the positive terms; negatives keep
        # uniform weight (they are shared across anchors).
        w = _normalize_weights(weights, pos_scores.shape[0])
        pos_bce = _bce_elementwise(pos_scores, 1.0)
        neg_bce = _bce_elementwise(neg_scores, 0.0)
        return ops.add(ops.sum(ops.mul(pos_bce, w)), ops.mean(neg_bce))


def _bce_elementwise(logits: Tensor, target: float) -> Tensor:
    """Stable per-element BCE-with-logits against a constant target."""
    neg_abs = ops.neg(ops.abs(logits))
    softplus = ops.log(ops.add(1.0, ops.exp(neg_abs)))
    return ops.add(ops.sub(ops.relu(logits), ops.mul(logits, target)), softplus)


class BarlowTwins(Objective):
    """Redundancy reduction: cross-correlation of the two views' (batch-
    standardized) embeddings driven to identity.  Negative-free — the
    off-diagonal decorrelation term plays the repulsion role.

    ``score_loss`` is the VICReg-style scalar form: positive scores pulled
    to 1, negative scores (when present) decorrelated toward 0.
    """

    name = "barlow"
    uses_negatives = False

    def __init__(self, lambda_offdiag: float = 5e-3, eps: float = 1e-9) -> None:
        if lambda_offdiag < 0:
            raise ValueError("lambda_offdiag must be non-negative")
        self.lambda_offdiag = lambda_offdiag
        self.eps = eps

    def _standardize(self, z: Tensor) -> Tensor:
        # Fully differentiable (batch-norm style): gradients flow through
        # the per-dimension mean and variance, not just the centering.
        mean = ops.mean(z, axis=0, keepdims=True)
        centered = ops.sub(z, mean)
        var = ops.mean(ops.power(centered, 2.0), axis=0, keepdims=True)
        std = ops.sqrt(ops.add(var, self.eps))
        return ops.div(centered, std)

    def pair_loss(self, z1, z2, negatives=None, weights=None) -> Tensor:
        m, d = z1.shape
        a = self._standardize(z1)
        b = self._standardize(z2)
        corr = ops.mul(ops.matmul(ops.transpose(a), b), 1.0 / m)   # (d, d)
        diag_mask = np.eye(d)
        on_diag = ops.sum(ops.power(ops.sub(ops.mul(corr, diag_mask), diag_mask), 2.0))
        off_diag = ops.sum(ops.power(ops.mul(corr, 1.0 - diag_mask), 2.0))
        return ops.add(on_diag, ops.mul(off_diag, self.lambda_offdiag))

    def score_loss(self, pos_scores, neg_scores, weights=None) -> Tensor:
        w = _normalize_weights(weights, pos_scores.shape[0])
        invariance = ops.sum(ops.mul(ops.power(ops.sub(pos_scores, 1.0), 2.0), w))
        redundancy = ops.mean(ops.power(neg_scores, 2.0))
        return ops.add(invariance, ops.mul(redundancy, self.lambda_offdiag))


class BootstrapCosine(Objective):
    """BYOL/BGRL bootstrap loss: ``2 − 2·cos(online_i, target_i)``.

    Negative-free; ``z2``/``pos_scores`` come from a stop-gradient target
    network.  Float-identical to the historical ``bootstrap_cosine_loss``
    when unweighted.
    """

    name = "bootstrap"
    uses_negatives = False

    def pair_loss(self, z1, z2, negatives=None, weights=None) -> Tensor:
        if weights is None:
            return functional.bootstrap_cosine_loss(z1, z2)
        sim = functional.rowwise_cosine_similarity(z1, z2)
        w = _normalize_weights(weights, z1.shape[0])
        return ops.sub(2.0, ops.mul(ops.sum(ops.mul(sim, w)), 2.0))

    def score_loss(self, pos_scores, neg_scores, weights=None) -> Tensor:
        w = _normalize_weights(weights, pos_scores.shape[0])
        return ops.sub(2.0, ops.mul(ops.sum(ops.mul(pos_scores, w)), 2.0))


class MarginMining(Objective):
    """Triplet-margin objective, the hard-negative-mining workhorse:
    ``mean relu(margin − cos(z1_i, z2_i) + cos(z1_i, z2_neg))``.

    Pairs naturally with the ``hard`` sampler (the historical margin-mining
    recipe); with ``negatives=None`` every non-diagonal pair contributes.
    """

    name = "margin"

    def __init__(self, margin: float = 0.5) -> None:
        if margin <= 0:
            raise ValueError("margin must be positive")
        self.margin = margin

    def pair_loss(self, z1, z2, negatives=None, weights=None) -> Tensor:
        m = z1.shape[0]
        w = _normalize_weights(weights, m)
        pos = ops.normalize_cosine_rowwise(z1, z2)                      # (m,)
        if negatives is None:
            sims = functional.cosine_similarity_matrix(z1, z2)          # (m, m)
            mask = ~np.eye(m, dtype=bool)
            hinge = ops.relu(
                ops.add(ops.sub(sims, ops.reshape(pos, (m, 1))), self.margin)
            )
            per_anchor = ops.mul(
                ops.sum(ops.mul(hinge, mask), axis=1), 1.0 / (m - 1)
            )
        else:
            negatives = _as_negatives(negatives, m)
            neg = ops.normalize_cosine_sim_gather(z1, z2, negatives)    # (m, k)
            hinge = ops.relu(
                ops.add(ops.sub(neg, ops.reshape(pos, (m, 1))), self.margin)
            )
            per_anchor = ops.mean(hinge, axis=1)
        return ops.sum(ops.mul(per_anchor, w))

    def score_loss(self, pos_scores, neg_scores, weights=None) -> Tensor:
        m = pos_scores.shape[0]
        w = _normalize_weights(weights, m)
        # All (positive, negative) score combinations via broadcasting.
        diff = ops.sub(
            ops.reshape(neg_scores, (1, -1)), ops.reshape(pos_scores, (-1, 1))
        )
        hinge = ops.relu(ops.add(diff, self.margin))                    # (m, q)
        return ops.sum(ops.mul(ops.mean(hinge, axis=1), w))


class Euclidean(Objective):
    """E2GCL's Eq. 5 loss (Hadsell-style, l2-normalized inside).

    Per anchor ``v``::

        l(v) = ||ĥ_v − h̃_v||² − (1 / 2|Neg_v|) Σ_{h' ∈ {ĥ_v, h̃_v}} Σ_{u ∈ Neg_v} ||h'_v − h_u||²

    Requires sampled negatives (the all-pairs form is O(n²) in *distance*
    buffers and was never the trained configuration).  Float-identical to
    the historical ``euclidean_contrastive_loss``.
    """

    name = "euclidean"

    def pair_loss(self, z1, z2, negatives=None, weights=None) -> Tensor:
        if negatives is None:
            raise ValueError(
                "the euclidean objective needs sampled negatives; compose it "
                "with the 'uniform' or 'hard' sampler"
            )
        m = z1.shape[0]
        negatives = _as_negatives(negatives, m)
        q = negatives.shape[1]
        w = _normalize_weights(weights, m)

        z_hat = ops.l2_normalize_rows(z1)
        z_tilde = ops.l2_normalize_rows(z2)

        positive = functional.rowwise_sq_euclidean(z_hat, z_tilde)      # (m,)

        flat = negatives.reshape(-1)
        anchor_rows = np.repeat(np.arange(m), q)
        # Negatives for the hat view come from the tilde view and vice versa
        # (cross-view negatives, the standard instantiation of Neg_v).
        hat_anchor = ops.index(z_hat, anchor_rows)
        tilde_neg = ops.index(z_tilde, flat)
        term_hat = functional.rowwise_sq_euclidean(hat_anchor, tilde_neg)
        tilde_anchor = ops.index(z_tilde, anchor_rows)
        hat_neg = ops.index(z_hat, flat)
        term_tilde = functional.rowwise_sq_euclidean(tilde_anchor, hat_neg)

        neg_sum = ops.add(
            ops.reshape(term_hat, (m, q)).sum(axis=1),
            ops.reshape(term_tilde, (m, q)).sum(axis=1),
        )
        per_anchor = ops.sub(positive, ops.mul(neg_sum, 1.0 / (2.0 * q)))
        return ops.sum(ops.mul(per_anchor, w))

    def score_loss(self, pos_scores, neg_scores, weights=None) -> Tensor:
        """Contrastive energy on scores: pull positives up, negatives down
        (``mean(neg) − Σ w_i pos_i`` — the score-space analogue of Eq. 5's
        attract/repel structure)."""
        w = _normalize_weights(weights, pos_scores.shape[0])
        return ops.sub(ops.mean(neg_scores), ops.sum(ops.mul(pos_scores, w)))


# ----------------------------------------------------------------------
_OBJECTIVES: Dict[str, Type[Objective]] = {
    InfoNCE.name: InfoNCE,
    JSD.name: JSD,
    BarlowTwins.name: BarlowTwins,
    BootstrapCosine.name: BootstrapCosine,
    MarginMining.name: MarginMining,
    Euclidean.name: Euclidean,
}


def get_objective(name: str, **kwargs) -> Objective:
    """Instantiate an objective by registry name.

    Constructor kwargs are filtered to the ones the objective accepts, so
    callers can pass a shared hyperparameter bag (``temperature``,
    ``margin``, ...) without per-objective dispatch.
    """
    key = name.lower()
    if key not in _OBJECTIVES:
        raise KeyError(
            f"unknown objective {name!r}; available: {available_objectives()}"
        )
    cls = _OBJECTIVES[key]
    import inspect

    accepted = set(inspect.signature(cls.__init__).parameters) - {"self"}
    return cls(**{k: v for k, v in kwargs.items() if k in accepted})


def available_objectives():
    """Registered objective names, sorted."""
    return sorted(_OBJECTIVES)
