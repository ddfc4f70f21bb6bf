"""GAE and VGAE — (Variational) Graph Auto-Encoders (Kipf & Welling 2016).

Reconstruction-based unsupervised baselines: encode with a GCN, decode
edges with the inner product ``σ(h_u · h_v)``, and minimize BCE over
positive edges plus an equal number of sampled non-edges (the standard
negative-sampled approximation of the dense reconstruction loss).  VGAE
adds a reparameterized gaussian latent with a KL prior term.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..autograd import Tensor, functional, ops
from ..graphs import Graph, sample_negative_edges
from ..nn import GCN
from .base import ContrastiveMethod, register


def _require_edges(graph: Graph, pos: np.ndarray) -> None:
    """Edge reconstruction is undefined on an edgeless graph — the BCE
    would be a mean over zero terms (NaN); fail loudly instead."""
    if pos.shape[0] == 0:
        raise ValueError(
            f"graph {graph.name!r} has no edges; (V)GAE's edge-reconstruction "
            "loss is undefined without positive examples"
        )


def _edge_logits(h: Tensor, pairs: np.ndarray) -> Tensor:
    """Inner-product decoder logits for each (u, v) pair."""
    h_u = ops.index(h, pairs[:, 0])
    h_v = ops.index(h, pairs[:, 1])
    return ops.sum(ops.mul(h_u, h_v), axis=1)


@register
class GAE(ContrastiveMethod):
    """Plain graph auto-encoder."""

    name = "gae"

    def _reconstruction_loss(self, h: Tensor, graph: Graph) -> Tensor:
        pos = graph.edge_array()
        _require_edges(graph, pos)
        neg = sample_negative_edges(graph, pos.shape[0], self._rng)
        logits = ops.concat([_edge_logits(h, pos), _edge_logits(h, neg)], axis=0)
        targets = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
        return functional.binary_cross_entropy_with_logits(logits, targets)

    def compute_loss(self, loop, epoch: int) -> Tensor:
        """Negative-sampled edge reconstruction."""
        return self._reconstruction_loss(self.encoder(self._graph.a_n, self._graph.features), self._graph)


@register
class VGAE(ContrastiveMethod):
    """Variational graph auto-encoder: shared GCN trunk, μ and log σ² heads."""

    name = "vgae"

    def __init__(self, kl_weight: Optional[float] = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.kl_weight = kl_weight
        self.logvar_encoder: Optional[GCN] = None
        self._pos: Optional[np.ndarray] = None
        self._kl_weight = 0.0

    # ------------------------------------------------------------------
    # TrainStep plugin surface
    # ------------------------------------------------------------------
    def _materialize_impl(self, graph: Graph) -> None:
        self.logvar_encoder = GCN(
            in_features=graph.num_features,
            hidden_features=self.hidden_dim,
            out_features=self.embedding_dim,
            num_layers=self.num_layers,
            seed=self.seed + 13,
        )

    def _prepare_impl(self, graph: Graph) -> None:
        # The reconstruction term is a *mean* over sampled edges, so the KL
        # must be a per-node mean too (a raw sum overwhelms reconstruction
        # and collapses the posterior to the prior).
        self._kl_weight = (
            self.kl_weight if self.kl_weight is not None else 0.05 / graph.num_nodes
        )
        self._pos = graph.edge_array()
        _require_edges(graph, self._pos)

    def trainable_parameters(self):
        """μ and log σ² encoders."""
        return self.encoder.parameters() + self.logvar_encoder.parameters()

    def checkpoint_components(self) -> Dict[str, object]:
        """μ and log σ² encoders."""
        return {"encoder": self.encoder, "logvar_encoder": self.logvar_encoder}

    def compute_loss(self, loop, epoch: int) -> Tensor:
        """Reparameterized reconstruction plus weighted KL prior."""
        graph = self._graph
        pos = self._pos
        mu = self.encoder(graph.a_n, graph.features)
        logvar = self.logvar_encoder(graph.a_n, graph.features)
        noise = self._rng.normal(size=mu.shape)
        z = ops.add(mu, ops.mul(ops.exp(ops.mul(logvar, 0.5)), noise))

        neg = sample_negative_edges(graph, pos.shape[0], self._rng)
        logits = ops.concat([_edge_logits(z, pos), _edge_logits(z, neg)], axis=0)
        targets = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
        recon = functional.binary_cross_entropy_with_logits(logits, targets)

        # KL(q || N(0, I)) = -0.5 Σ (1 + logσ² − μ² − σ²)
        kl = ops.mul(
            ops.sum(
                ops.sub(
                    ops.add(ops.mul(mu, mu), ops.exp(logvar)),
                    ops.add(logvar, 1.0),
                )
            ),
            0.5 * self._kl_weight,
        )
        return ops.add(recon, kl)

    def embed(self, graph: Graph) -> np.ndarray:
        """The posterior mean μ (standard VGAE inference)."""
        if self.encoder is None:
            raise RuntimeError("call fit() before embed()")
        return self.encoder.embed(graph)
