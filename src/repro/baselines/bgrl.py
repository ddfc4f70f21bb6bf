"""BGRL — Bootstrapped Graph Latents (Thakoor et al. 2021).

Negative-free bootstrapping: an online encoder + predictor chases an EMA
*target* encoder across two uniformly augmented views ({FM, ED}), with the
symmetric cosine loss.  The target network is updated by exponential moving
average and never receives gradients.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..autograd import Tensor, ops
from ..core.augmentations import drop_edges, mask_features
from ..graphs import Graph
from ..nn import GCN, MLP
from .base import ContrastiveMethod, register


@register
class BGRL(ContrastiveMethod):
    """Bootstrapped representation learning on graphs.

    L2L contrast under the negative-free ``bootstrap`` objective — no
    sampler draws, so the RNG stream matches the historical inline loss.
    """

    name = "bgrl"
    default_objective = "bootstrap"

    def __init__(
        self,
        ema_decay: float = 0.99,
        edge_drop_rates=(0.25, 0.4),
        feature_mask_rates=(0.25, 0.4),
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0.0 <= ema_decay < 1.0:
            raise ValueError("ema_decay must be in [0, 1)")
        self.ema_decay = ema_decay
        self.edge_drop_rates = edge_drop_rates
        self.feature_mask_rates = feature_mask_rates
        self.target_encoder: Optional[GCN] = None
        self.predictor: Optional[MLP] = None
        self._contrast = self._build_contrast()

    # ------------------------------------------------------------------
    def _augment(self, graph: Graph, edge_rate: float, mask_rate: float) -> Graph:
        view = drop_edges(graph, edge_rate, self._rng)
        return mask_features(view, mask_rate, self._rng)

    def _ema_update(self) -> None:
        """target ← decay·target + (1−decay)·online, parameter-wise."""
        online = dict(self.encoder.named_parameters())
        target = dict(self.target_encoder.named_parameters())
        for name, param in target.items():
            param.data *= self.ema_decay
            param.data += (1.0 - self.ema_decay) * online[name].data

    # ------------------------------------------------------------------
    # TrainStep plugin surface
    # ------------------------------------------------------------------
    def _materialize_impl(self, graph: Graph) -> None:
        self.target_encoder = self._build_encoder(graph)
        self.target_encoder.load_state_dict(self.encoder.state_dict())
        self.predictor = MLP(
            self.embedding_dim, self.hidden_dim, self.embedding_dim,
            num_layers=2, seed=self.seed + 3,
        )

    def trainable_parameters(self):
        """Online encoder plus predictor (the target gets no gradients)."""
        return self.encoder.parameters() + self.predictor.parameters()

    def checkpoint_components(self) -> Dict[str, object]:
        """Online encoder, predictor, and the EMA target encoder."""
        return {
            "encoder": self.encoder,
            "predictor": self.predictor,
            "target_encoder": self.target_encoder,
        }

    def compute_loss(self, loop, epoch: int) -> Tensor:
        """Symmetric bootstrap cosine loss across two augmented views."""
        graph = self._graph
        view1 = self._augment(graph, self.edge_drop_rates[0], self.feature_mask_rates[0])
        view2 = self._augment(graph, self.edge_drop_rates[1], self.feature_mask_rates[1])
        online1 = self.predictor(self.encoder(view1.a_n, view1.features))
        online2 = self.predictor(self.encoder(view2.a_n, view2.features))
        # Target representations are constants (stop-gradient).
        target1 = Tensor(self.target_encoder.embed(view1))
        target2 = Tensor(self.target_encoder.embed(view2))
        return ops.mul(
            ops.add(
                self._contrast.loss(online1, target2, rng=self._neg_rng),
                self._contrast.loss(online2, target1, rng=self._neg_rng),
            ),
            0.5,
        )

    def finish_epoch(self, loop, epoch: int) -> None:
        """EMA update after the optimizer step."""
        self._ema_update()
