"""Graph Attention Network encoder (Veličković et al. 2018).

The paper fixes a GCN encoder for all experiments but cites GAT as the
canonical attention-based alternative; the view-generator's *Remarks*
(Sec. IV-C) stress that E2GCL's scores are encoder-agnostic.  This module
provides a GAT so that claim is exercised end-to-end (see
``tests/nn/test_gat.py`` and the encoder-swap test in the core suite).

Implementation notes: single-head additive attention per layer, computed
edge-wise over the (self-looped) sparse structure with a segment-softmax —
everything stays on the autodiff engine, no dense n x n attention matrix.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..autograd import Module, Parameter, Tensor, init, ops
from ..graphs import Graph


def _segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over groups of a 1-D tensor (edges grouped by target node)."""
    # Shift by per-segment max for stability (constant w.r.t. gradients).
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segment_ids, scores.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = ops.sub(scores, seg_max[segment_ids])
    exp = ops.exp(shifted)

    # Segment sums via a sparse one-hot matmul keeps everything differentiable.
    ones = sp.csr_matrix(
        (np.ones(segment_ids.shape[0]), (segment_ids, np.arange(segment_ids.shape[0]))),
        shape=(num_segments, segment_ids.shape[0]),
    )
    seg_sum = ops.spmm(ones, ops.reshape(exp, (segment_ids.shape[0], 1)))
    denom = ops.index(ops.reshape(seg_sum, (num_segments,)), segment_ids)
    return ops.div(exp, ops.add(denom, 1e-12))


class GATLayer(Module):
    """One attention layer: ``h'_i = σ( Σ_j α_ij W h_j )`` over j ∈ N(i) ∪ {i}."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: Optional[str] = "elu",
        negative_slope: float = 0.2,
    ) -> None:
        super().__init__()
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng), name="W")
        self.attn_src = Parameter(init.glorot_uniform((out_features, 1), rng), name="a_src")
        self.attn_dst = Parameter(init.glorot_uniform((out_features, 1), rng), name="a_dst")
        self.negative_slope = negative_slope
        self.activation = activation

    def forward(self, edges: np.ndarray, num_nodes: int, h: Tensor) -> Tensor:
        """``edges`` is a directed (src, dst) array that already includes
        self-loops; messages flow src → dst."""
        wh = ops.matmul(h, self.weight)                               # (n, d)
        src, dst = edges[:, 0], edges[:, 1]
        score_src = ops.index(ops.reshape(ops.matmul(wh, self.attn_src), (num_nodes,)), src)
        score_dst = ops.index(ops.reshape(ops.matmul(wh, self.attn_dst), (num_nodes,)), dst)
        raw = ops.leaky_relu(ops.add(score_src, score_dst), self.negative_slope)
        alpha = _segment_softmax(raw, dst, num_nodes)                  # (m,)

        messages = ops.mul(ops.index(wh, src), ops.reshape(alpha, (alpha.shape[0], 1)))
        scatter = sp.csr_matrix(
            (np.ones(dst.shape[0]), (dst, np.arange(dst.shape[0]))),
            shape=(num_nodes, dst.shape[0]),
        )
        act = self.activation if self.activation in ("elu", "relu") else None
        return ops.spmm_bias_act(scatter, messages, activation=act)


class GAT(Module):
    """Multi-layer GAT encoder with the same interface as :class:`~repro.nn.GCN`."""

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        num_layers: int = 2,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [out_features]
        self.layers: List[GATLayer] = []
        for i in range(num_layers):
            act = "elu" if i < num_layers - 1 else None
            layer = GATLayer(dims[i], dims[i + 1], rng, activation=act)
            self.layers.append(layer)
            setattr(self, f"att_{i}", layer)

    def forward(self, a_n: sp.spmatrix, x: Union[np.ndarray, Tensor]) -> Tensor:
        """Node representations over the sparsity pattern of ``a_n``.

        Attention replaces ``Â``'s values, so only its pattern is read:
        ``A + I`` in CSR order, i.e. every edge plus each node's self-loop.
        """
        coo = a_n.tocoo()
        edges = np.stack([coo.row, coo.col], axis=1)
        h = x if isinstance(x, Tensor) else Tensor(x)
        for layer in self.layers:
            h = layer(edges, a_n.shape[0], h)
        return h

    def embed(self, graph: Graph) -> np.ndarray:
        """Inference-mode node representations of ``graph`` as a plain array."""
        was_training = self.training
        self.eval()
        try:
            return self.forward(graph.a_n, graph.features).data
        finally:
            self.train(was_training)
