"""DGI — Deep Graph Infomax (Veličković et al. 2019).

Maximizes mutual information between node representations and a graph-level
summary: positives are the real graph's nodes, negatives come from a
corrupted graph (row-shuffled features), and a bilinear discriminator
scores (node, summary) pairs with a BCE objective.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..autograd import Parameter, Tensor, init
from ..contrast import G2LContrast, bilinear_scores, get_objective, graph_summary
from ..graphs import Graph
from .base import ContrastiveMethod, register


@register
class DGI(ContrastiveMethod):
    """Deep Graph Infomax with feature-shuffling corruption.

    G2L contrast: real/corrupted node scores against the graph summary,
    under the ``jsd`` objective (= BCE discriminator, the paper's loss).
    """

    name = "dgi"
    default_objective = "jsd"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.discriminator_weight: Optional[Parameter] = None
        self._contrast = G2LContrast(
            get_objective(self.objective or self.default_objective)
        )

    def _corrupt(self, graph: Graph) -> Graph:
        """The canonical DGI corruption: permute feature rows, keep edges."""
        perm = self._rng.permutation(graph.num_nodes)
        return graph.with_features(graph.features[perm])

    # ------------------------------------------------------------------
    # TrainStep plugin surface
    # ------------------------------------------------------------------
    def _materialize_impl(self, graph: Graph) -> None:
        rng = np.random.default_rng(self.seed + 11)
        self.discriminator_weight = Parameter(
            init.glorot_uniform((self.embedding_dim, self.embedding_dim), rng), name="disc"
        )

    def trainable_parameters(self):
        """Encoder plus the bilinear discriminator."""
        return self.encoder.parameters() + [self.discriminator_weight]

    def checkpoint_components(self) -> Dict[str, object]:
        """Encoder plus the discriminator weight."""
        return {"encoder": self.encoder, "discriminator_weight": self.discriminator_weight}

    def compute_loss(self, loop, epoch: int) -> Tensor:
        """Real vs corrupted (node, summary) pairs through the G2L mode."""
        graph = self._graph
        corrupted = self._corrupt(graph)
        h_real = self.encoder(graph.a_n, graph.features)
        h_fake = self.encoder(corrupted.a_n, corrupted.features)
        summary = graph_summary(h_real)
        pos = bilinear_scores(h_real, self.discriminator_weight, summary)
        neg = bilinear_scores(h_fake, self.discriminator_weight, summary)
        return self._contrast.loss(pos, neg)
