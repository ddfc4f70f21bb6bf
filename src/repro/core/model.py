"""The :class:`E2GCL` facade — the library's primary public entry point.

Quickstart::

    from repro import E2GCL, load_dataset

    graph = load_dataset("cora", seed=0)
    model = E2GCL().fit(graph)
    embeddings = model.embed()            # (n, d) node representations
    result = model.evaluate(seed=0)       # linear-eval node classification
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graphs import Graph
from .config import E2GCLConfig
from .node_selector import CoresetResult
from .trainer import E2GCLTrainer, TrainResult


class E2GCL:
    """Efficient and Expressive Graph Contrastive Learning.

    Wraps the selector + generator + trainer pipeline behind a
    scikit-learn-style ``fit`` / ``embed`` interface.

    Parameters
    ----------
    config:
        Optional :class:`E2GCLConfig`; keyword overrides may be passed
        directly (``E2GCL(epochs=100, node_ratio=0.25)``).
    """

    def __init__(self, config: Optional[E2GCLConfig] = None, **overrides) -> None:
        base = config or E2GCLConfig()
        self.config = base.with_overrides(**overrides) if overrides else base
        self.trainer: Optional[E2GCLTrainer] = None
        self.result: Optional[TrainResult] = None
        self._graph: Optional[Graph] = None

    # ------------------------------------------------------------------
    def fit(self, graph: Graph) -> "E2GCL":
        """Pre-train the encoder on ``graph`` (no labels consumed)."""
        self._graph = graph
        self.trainer = E2GCLTrainer(graph, self.config)
        self.result = self.trainer.train()
        return self

    def _require_fitted(self) -> TrainResult:
        if self.result is None:
            raise RuntimeError("call fit() (or load a checkpoint) before using the model")
        return self.result

    def embed(self, graph: Optional[Graph] = None) -> np.ndarray:
        """Node representations from the frozen pre-trained encoder.

        ``graph`` defaults to the graph passed to :meth:`fit`; models
        restored from a checkpoint must pass one explicitly.
        """
        result = self._require_fitted()
        target = graph if graph is not None else self._graph
        if target is None:
            raise ValueError("no graph available; pass one to embed()")
        return result.encoder.embed(target)

    @property
    def coreset(self) -> Optional[CoresetResult]:
        """The selected representative nodes (``None`` when disabled)."""
        self._require_fitted()
        return self.result.coreset

    @property
    def selection_seconds(self) -> float:
        """Tab. V's ST — wall-clock cost of Alg. 2."""
        self._require_fitted()
        return self.result.selection_seconds

    @property
    def training_seconds(self) -> float:
        """Tab. V's TT — total pre-training wall clock."""
        self._require_fitted()
        return self.result.total_seconds

    # ------------------------------------------------------------------
    def evaluate(self, seed: int = 0, trials: int = 1):
        """Node-classification linear evaluation on the training graph.

        Convenience wrapper around
        :func:`repro.eval.node_classification.evaluate_embeddings`.
        """
        from ..eval.node_classification import evaluate_embeddings

        self._require_fitted()
        return evaluate_embeddings(self._graph, self.embed(), seed=seed, trials=trials)
