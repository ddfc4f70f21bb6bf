"""Graph Convolutional Network encoder (Kipf & Welling), Eq. (1) of the paper.

``H^{l+1} = σ(A_n H^l W^l)`` with the symmetric renormalized adjacency.
This is the encoder ``f_θ`` every method in the reproduction shares (the
paper fixes a 2-layer GCN in Sec. V-A4).

The operator ``A_n`` is prepared by the caller — ``Graph.a_n`` for a whole
graph, a degree-corrected block for sampled training and serving — and
:class:`GCN` runs the one layer loop over it; the encoder holds no
per-graph cache.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..autograd import Module, Parameter, Tensor, get_default_dtype, init, ops
from ..graphs import Graph


class GCNLayer(Module):
    """One graph convolution: ``σ(A_n X W + b)``.

    Parameters
    ----------
    in_features, out_features:
        Weight shape.
    activation:
        ``"relu"``, ``"prelu"``-style leaky relu, ``"tanh"`` or ``None``
        (linear — used for final layers and the relaxed GCN of Theorem 1).
    bias:
        Include an additive bias term.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: Optional[str] = "relu",
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng), name="W")
        self.bias = Parameter(np.zeros(out_features), name="b") if bias else None
        if activation not in (None, "relu", "leaky_relu", "tanh", "elu"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.activation = activation

    def forward(self, a_n: sp.spmatrix, h: Tensor) -> Tensor:
        return self.propagate(a_n, ops.matmul(h, self.weight))

    def propagate(self, a_n: sp.spmatrix, transformed: Tensor) -> Tensor:
        """Aggregation half of the convolution: ``σ(A_n (XW) + b)``.

        Split out so serving can feed a precomputed feature transform
        (``XW`` is input-independent, hence cacheable per graph) and pay
        only the aggregation per request.  The whole aggregation runs as
        one fused kernel (bit-identical to the spmm/add/activation chain
        it replaces).
        """
        return ops.spmm_bias_act(
            a_n,
            transformed,
            bias=self.bias,
            activation=self.activation,
            negative_slope=0.2,
        )


class GCN(Module):
    """Multi-layer GCN encoder ``f_θ``; hidden layers activated, output linear.

    ``forward(a_n, x)`` is a pure function of the prepared operator
    ``Â = D̃^{-1/2}(A+I)D̃^{-1/2}`` and the node features — the encoder keeps
    no per-graph state.  Callers pass ``graph.a_n`` (derived once per
    :class:`~repro.graphs.graph.Graph`), a degree-corrected block, or any
    other prepared operator; ``embed(graph)`` is the inference convenience.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        num_layers: int = 2,
        seed: int = 0,
        activation: str = "relu",
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [out_features]
        self.layers: List[GCNLayer] = []
        for i in range(num_layers):
            act = activation if i < num_layers - 1 else None
            layer = GCNLayer(dims[i], dims[i + 1], rng, activation=act)
            self.layers.append(layer)
            setattr(self, f"conv_{i}", layer)
        self.num_layers = num_layers
        self.dropout = dropout
        self._dropout_rng = np.random.default_rng(seed + 1)

    def forward(self, a_n: sp.spmatrix, x: Union[np.ndarray, Tensor]) -> Tensor:
        """Node representations ``H = f_θ(Â, X)`` (Eq. (1) per layer)."""
        return self._convolve(a_n, x, transformed=False)

    def propagate(self, a_n: sp.spmatrix, h0: Union[np.ndarray, Tensor]) -> Tensor:
        """The forward from the first layer's pre-transformed input ``X W_0``.

        ``X W_0`` depends on no operator, so serving computes it once per
        graph and feeds row slices here; the result equals :meth:`forward`
        on the same rows of ``X``.
        """
        return self._convolve(a_n, h0, transformed=True)

    def _convolve(self, a_n: sp.spmatrix, h, transformed: bool) -> Tensor:
        # Match the process precision at the boundary; otherwise a float64
        # operator would silently promote every float32 propagation.
        dtype = get_default_dtype()
        if a_n.dtype != dtype:
            a_n = a_n.astype(dtype)
        if not isinstance(h, Tensor):
            h = Tensor(h)
        for i, layer in enumerate(self.layers):
            if i == 0 and transformed:
                h = layer.propagate(a_n, h)
                continue
            if self.dropout and self.training:
                h = ops.dropout(h, self.dropout, self._dropout_rng, training=True)
            h = layer(a_n, h)
        return h

    def embed(self, graph: Graph) -> np.ndarray:
        """Inference-mode node representations of ``graph`` as a plain array."""
        was_training = self.training
        self.eval()
        try:
            return self.forward(graph.a_n, graph.features).data
        finally:
            self.train(was_training)


class LinearGCN(Module):
    """The relaxed (linear) GCN ``H = A_n^L X θ`` used in Theorem 1's analysis.

    Kept as a real model (SGC, Wu et al. 2019) so tests can check that the
    theory's simplification matches an actual trainable encoder.
    """

    def __init__(self, in_features: int, out_features: int, hops: int = 2, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng), name="theta")
        self.hops = hops

    def forward(self, graph: Graph) -> Tensor:
        a_n = graph.a_n
        h = Tensor(graph.features)
        for _ in range(self.hops):
            h = ops.spmm(a_n, h)
        return ops.matmul(h, self.weight)
