"""Node-classification linear evaluation (Sec. V-A2).

Protocol: freeze the pre-trained encoder's embeddings, draw a random
10%/10%/80% node split, fit the l2-regularized linear decoder on the
training nodes, report test accuracy; repeat over several splits and
aggregate mean ± std — exactly the paper's procedure for Tab. IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..graphs import Graph, split_nodes
from ..nn import LogisticRegressionDecoder
from ..obs.tracer import span
from .metrics import MeanStd, accuracy


@dataclass
class NodeClassificationResult:
    """Aggregated linear-eval outcome."""

    test_accuracy: MeanStd
    val_accuracy: MeanStd

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"test={self.test_accuracy} val={self.val_accuracy}"


def evaluate_embeddings(
    graph: Graph,
    embeddings: np.ndarray,
    seed: int = 0,
    trials: int = 10,
    train_frac: float = 0.1,
    val_frac: float = 0.1,
    l2: float = 1e-3,
    decoder_epochs: int = 200,
) -> NodeClassificationResult:
    """Linear-eval ``embeddings`` against ``graph.labels`` over random splits."""
    if graph.labels is None:
        raise ValueError("node classification needs labels")
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.shape[0] != graph.num_nodes:
        raise ValueError("one embedding row per node required")

    test_scores: List[float] = []
    val_scores: List[float] = []
    with span("eval.linear_probe"):
        for trial in range(trials):
            rng = np.random.default_rng(seed + 1000 * trial)
            split = split_nodes(
                graph.num_nodes, rng, train_frac=train_frac, val_frac=val_frac,
                labels=graph.labels, stratified=True,
            )
            decoder = LogisticRegressionDecoder(
                num_features=embeddings.shape[1],
                num_classes=graph.num_classes,
                l2=l2,
                epochs=decoder_epochs,
                seed=seed + trial,
            )
            decoder.fit(embeddings[split.train], graph.labels[split.train])
            test_scores.append(accuracy(decoder.predict(embeddings[split.test]), graph.labels[split.test]))
            if split.val.size:
                val_scores.append(accuracy(decoder.predict(embeddings[split.val]), graph.labels[split.val]))
            else:
                val_scores.append(test_scores[-1])

    return NodeClassificationResult(
        test_accuracy=MeanStd.from_values(test_scores),
        val_accuracy=MeanStd.from_values(val_scores),
    )
