"""GraphCL and ADGCL — the remaining perturbation baselines of Tab. I.

GraphCL (You et al. 2020) samples an augmentation *type* per view from its
pool (node dropping, edge perturbation, subgraph sampling, feature masking)
and contrasts with NT-Xent.  For node-level tasks the node-set-changing
operations are applied as their edge/feature equivalents on the full graph
(the standard adaptation when anchors must persist across views).

ADGCL (Suresh et al. 2021) learns an adversarial edge-dropping distribution
({ED} only in Tab. I).  We reproduce the adversarial principle with a
two-timescale approximation: per epoch the *most damaging* drop rate from a
small grid (the one maximizing the current contrastive loss) is selected
for the second view, while the encoder minimizes the same loss.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..autograd import Tensor
from ..core.augmentations import add_edges, drop_edges, drop_features, mask_features, perturb_features
from ..graphs import Graph
from .base import EA, ED, FM, FP, TwoViewContrastiveMethod, register


@register
class GraphCL(TwoViewContrastiveMethod):
    """GraphCL with a per-view random choice among its operation pool."""

    name = "graphcl"
    default_operations = (ED, FM)
    upgraded_operations = (ED, FM, EA, FP)

    def _augment(self, graph: Graph, rates) -> Graph:
        op = self.operations[self._rng.integers(len(self.operations))]
        rate = rates[op]
        if op == ED:
            return drop_edges(graph, rate, self._rng)
        if op == EA:
            return add_edges(graph, rate, self._rng)
        if op == FM:
            return mask_features(graph, rate, self._rng)
        if op == FP:
            return perturb_features(graph, rate, self._rng)
        return drop_features(graph, rate, self._rng)


@register
class ADGCL(TwoViewContrastiveMethod):
    """ADGCL with grid-adversarial edge dropping."""

    name = "adgcl"
    default_operations = (ED,)
    upgraded_operations = (ED, FP, EA)

    def __init__(
        self,
        adversarial_rates: Sequence[float] = (0.1, 0.3, 0.5, 0.7),
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.adversarial_rates = tuple(adversarial_rates)
        if not self.adversarial_rates:
            raise ValueError("need at least one adversarial rate")
        self.current_rate = self.adversarial_rates[0]

    def _apply_upgrades(self, graph: Graph) -> Graph:
        """Fig. 2 upgrade ops (FP, EA) applied uniformly when enabled."""
        view = graph
        if FP in self.operations:
            view = perturb_features(view, self.view2_rates[FP], self._rng)
        if EA in self.operations:
            view = add_edges(view, self.view2_rates[EA], self._rng)
        return view

    def _views(self, graph: Graph) -> Tuple[Graph, Graph]:
        view1 = self._apply_upgrades(graph)
        view2 = self._apply_upgrades(drop_edges(graph, self.current_rate, self._rng))
        return view1, view2

    def compute_loss(self, loop, epoch: int) -> Tensor:
        """Adversary step (rate grid) every 5 epochs, then the composed
        contrast loss (paper default: NT-Xent, all pairs)."""
        graph = self._graph
        # Adversary step: pick the drop rate the encoder currently finds
        # hardest (max loss), evaluated without gradients.  The probe uses
        # the same objective but always the dense path: the grid argmax
        # must compare rates under one deterministic loss surface.
        if epoch % 5 == 0:
            worst_rate, worst_loss = self.current_rate, -np.inf
            base = self.encoder.embed(self._apply_upgrades(graph))
            for rate in self.adversarial_rates:
                probe_view = drop_edges(graph, rate, self._rng)
                probe = self.encoder.embed(probe_view)
                loss_val = float(
                    self._contrast.objective.pair_loss(Tensor(base), Tensor(probe)).item()
                )
                if loss_val > worst_loss:
                    worst_loss, worst_rate = loss_val, rate
            self.current_rate = worst_rate

        view1, view2 = self._views(graph)
        z1 = self._project(self.encoder(view1.a_n, view1.features))
        z2 = self._project(self.encoder(view2.a_n, view2.features))
        return self._contrast.loss(z1, z2, rng=self._neg_rng)

    def state_json(self) -> dict:
        """The adversary's currently selected drop rate."""
        return {"current_rate": self.current_rate}

    def load_state_json(self, payload: dict) -> None:
        self.current_rate = float(payload.get("current_rate", self.adversarial_rates[0]))
