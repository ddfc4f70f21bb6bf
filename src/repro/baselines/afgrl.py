"""AFGRL — Augmentation-Free Graph Representation Learning (Lee et al. 2022).

The similarity-based baseline of Tab. I: *no* augmentation operations.
Positives for each node are discovered, not generated — the k-nearest
neighbors in the (target-encoder) embedding space, filtered to local
neighbors (and, in the original, cluster co-members).  An online encoder +
predictor regresses onto the mean target representation of those positives,
BYOL-style with an EMA target.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..autograd import Tensor
from ..graphs import Graph
from ..nn import GCN, MLP
from .base import ContrastiveMethod, register


@register
class AFGRL(ContrastiveMethod):
    """Augmentation-free BYOL on graphs with kNN∩neighborhood positives.

    L2L contrast under the negative-free ``bootstrap`` objective: the
    online view regresses onto discovered positive targets.
    """

    name = "afgrl"
    default_objective = "bootstrap"

    def __init__(
        self,
        num_neighbors: int = 8,
        ema_decay: float = 0.99,
        refresh_positives_every: int = 5,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.num_neighbors = num_neighbors
        self.ema_decay = ema_decay
        self.refresh_positives_every = max(1, refresh_positives_every)
        self.target_encoder: Optional[GCN] = None
        self.predictor: Optional[MLP] = None
        self._positive_targets: Optional[np.ndarray] = None
        self._contrast = self._build_contrast()

    # ------------------------------------------------------------------
    def _ema_update(self) -> None:
        online = dict(self.encoder.named_parameters())
        for name, param in self.target_encoder.named_parameters():
            param.data *= self.ema_decay
            param.data += (1.0 - self.ema_decay) * online[name].data

    def _discover_positives(self, graph: Graph) -> np.ndarray:
        """Mean target embedding of each node's kNN ∩ (1-hop ∪ self) set.

        kNN candidates outside the neighborhood are kept with reduced weight
        when the intersection is empty, mirroring AFGRL's fallback to pure
        kNN positives.
        """
        h = self.target_encoder.embed(graph)
        norms = np.linalg.norm(h, axis=1, keepdims=True) + 1e-12
        z = h / norms
        sims = z @ z.T
        np.fill_diagonal(sims, -np.inf)
        k = min(self.num_neighbors, graph.num_nodes - 1)
        knn = np.argpartition(sims, -k, axis=1)[:, -k:]
        targets = np.empty_like(h)
        for v in range(graph.num_nodes):
            neighborhood = set(graph.neighbors(v).tolist())
            local = [int(u) for u in knn[v] if int(u) in neighborhood]
            chosen = local if local else knn[v].tolist()
            targets[v] = h[chosen].mean(axis=0)
        return targets

    # ------------------------------------------------------------------
    # TrainStep plugin surface
    # ------------------------------------------------------------------
    def _materialize_impl(self, graph: Graph) -> None:
        self.target_encoder = self._build_encoder(graph)
        self.target_encoder.load_state_dict(self.encoder.state_dict())
        self.predictor = MLP(
            self.embedding_dim, self.hidden_dim, self.embedding_dim,
            num_layers=2, seed=self.seed + 7,
        )

    def trainable_parameters(self):
        """Online encoder plus predictor (the target gets no gradients)."""
        return self.encoder.parameters() + self.predictor.parameters()

    def checkpoint_components(self) -> Dict[str, object]:
        """Networks plus the currently discovered positive targets."""
        return {
            "encoder": self.encoder,
            "predictor": self.predictor,
            "target_encoder": self.target_encoder,
            "positive_targets": self._positive_targets,
        }

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        super().load_state_arrays(arrays)
        if "positive_targets" in arrays:
            self._positive_targets = np.array(arrays["positive_targets"])

    def compute_loss(self, loop, epoch: int) -> Tensor:
        """Regress the online view onto the discovered positives."""
        graph = self._graph
        if epoch % self.refresh_positives_every == 0:
            self._positive_targets = self._discover_positives(graph)
        online = self.predictor(self.encoder(graph.a_n, graph.features))
        return self._contrast.loss(online, Tensor(self._positive_targets), rng=self._neg_rng)

    def finish_epoch(self, loop, epoch: int) -> None:
        """EMA update after the optimizer step."""
        self._ema_update()
