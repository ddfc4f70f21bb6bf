"""MVGRL — Contrastive Multi-View Representation Learning on Graphs
(Hassani & Khasahmadi 2020).

The diffusion-based baseline of Tab. I ({EA, ED}): one view is the raw
adjacency, the other the top-k sparsified PPR diffusion graph (PPR both
adds and removes edges relative to A — hence the EA+ED classification).
Two encoders (one per view) are trained with a DGI-style cross-view
discriminator: node representations from one view are scored against the
*other* view's graph summary.

Fig. 2's upgrade adds uniform feature perturbation (FP) on both views.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Parameter, Tensor, init, ops
from ..contrast import G2LContrast, bilinear_scores, get_objective, graph_summary
from ..core.augmentations import perturb_features
from ..graphs import Graph, ppr_diffusion_graph
from ..nn import GCN
from .base import ContrastiveMethod, FP, register


@register
class MVGRL(ContrastiveMethod):
    """MVGRL with PPR diffusion as the second view.

    Cross-view G2L contrast under the ``jsd`` objective (= the DGI-style
    BCE discriminator of the paper).
    """

    name = "mvgrl"
    default_operations: Tuple[str, ...] = ()
    upgraded_operations: Tuple[str, ...] = (FP,)
    default_objective = "jsd"

    def __init__(
        self,
        ppr_alpha: float = 0.15,
        ppr_top_k: int = 16,
        operations: Optional[Sequence[str]] = None,
        feature_perturb_rate: float = 0.08,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.ppr_alpha = ppr_alpha
        self.ppr_top_k = ppr_top_k
        self.operations = tuple(operations) if operations is not None else self.default_operations
        self.feature_perturb_rate = feature_perturb_rate
        self.diffusion_encoder: Optional[GCN] = None
        self.discriminator_weight: Optional[Parameter] = None
        self._diffusion_graph: Optional[Graph] = None
        self._contrast = G2LContrast(
            get_objective(self.objective or self.default_objective)
        )

    # ------------------------------------------------------------------
    def _maybe_perturb(self, graph: Graph) -> Graph:
        if FP in self.operations and self.feature_perturb_rate > 0:
            return perturb_features(graph, self.feature_perturb_rate, self._rng)
        return graph

    # ------------------------------------------------------------------
    # TrainStep plugin surface
    # ------------------------------------------------------------------
    def _materialize_impl(self, graph: Graph) -> None:
        rng = np.random.default_rng(self.seed + 23)
        self.diffusion_encoder = GCN(
            in_features=graph.num_features,
            hidden_features=self.hidden_dim,
            out_features=self.embedding_dim,
            num_layers=self.num_layers,
            seed=self.seed + 1,
        )
        self.discriminator_weight = Parameter(
            init.glorot_uniform((self.embedding_dim, self.embedding_dim), rng), name="disc"
        )

    def _prepare_impl(self, graph: Graph) -> None:
        self._diffusion_graph = ppr_diffusion_graph(
            graph, alpha=self.ppr_alpha, top_k=self.ppr_top_k
        )

    def trainable_parameters(self):
        """Both encoders plus the bilinear discriminator."""
        return (
            self.encoder.parameters()
            + self.diffusion_encoder.parameters()
            + [self.discriminator_weight]
        )

    def checkpoint_components(self) -> Dict[str, object]:
        """Both encoders plus the discriminator weight."""
        return {
            "encoder": self.encoder,
            "diffusion_encoder": self.diffusion_encoder,
            "discriminator_weight": self.discriminator_weight,
        }

    def compute_loss(self, loop, epoch: int) -> Tensor:
        """Cross-view G2L contrast: adjacency nodes vs diffusion summary
        (and vice versa), against row-shuffled corruptions."""
        graph = self._graph
        n = graph.num_nodes
        adj_view = self._maybe_perturb(graph)
        diff_view = self._maybe_perturb(self._diffusion_graph)
        perm = self._rng.permutation(n)
        adj_corrupt = adj_view.with_features(adj_view.features[perm])
        diff_corrupt = diff_view.with_features(diff_view.features[perm])

        h_adj = self.encoder(adj_view.a_n, adj_view.features)
        h_diff = self.diffusion_encoder(diff_view.a_n, diff_view.features)
        h_adj_neg = self.encoder(adj_corrupt.a_n, adj_corrupt.features)
        h_diff_neg = self.diffusion_encoder(diff_corrupt.a_n, diff_corrupt.features)
        s_adj = graph_summary(h_adj)
        s_diff = graph_summary(h_diff)
        weight = self.discriminator_weight
        pos = ops.concat([
            bilinear_scores(h_adj, weight, s_diff),
            bilinear_scores(h_diff, weight, s_adj),
        ], axis=0)
        neg = ops.concat([
            bilinear_scores(h_adj_neg, weight, s_diff),
            bilinear_scores(h_diff_neg, weight, s_adj),
        ], axis=0)
        return self._contrast.loss(pos, neg)

    def embed(self, graph: Graph) -> np.ndarray:
        """MVGRL's final representation: sum of both views' encoders."""
        if self.encoder is None or self.diffusion_encoder is None:
            raise RuntimeError("call fit() before embed()")
        h_adj = self.encoder.embed(graph)
        diffusion = self._diffusion_graph
        if diffusion is None or diffusion.num_nodes != graph.num_nodes:
            diffusion = ppr_diffusion_graph(graph, alpha=self.ppr_alpha, top_k=self.ppr_top_k)
        h_diff = self.diffusion_encoder.embed(diffusion)
        return h_adj + h_diff
