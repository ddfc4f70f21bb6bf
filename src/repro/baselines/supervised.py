"""Supervised / semi-supervised baselines: end-to-end GCN and MLP (Tab. IV).

Unlike the contrastive methods these consume labels directly: they train on
the 10% labeled nodes of each split and predict on the rest — the paper's
reference point for how far label-free pre-training closes the gap.

Both train through the shared :class:`repro.engine.TrainLoop` via a tiny
cross-entropy :class:`~repro.engine.TrainStep`, so no optimizer loop is
hand-rolled here either.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..autograd import Tensor, functional, ops
from ..engine import TrainLoop, TrainStep
from ..graphs import Graph
from ..nn import GCN, MLP


class _CrossEntropyStep(TrainStep):
    """Minimize cross-entropy of ``logits_fn()`` against fixed labels."""

    def __init__(self, model, logits_fn: Callable[[], Tensor], labels: np.ndarray) -> None:
        self.model = model
        self._logits_fn = logits_fn
        self._labels = labels

    def trainable_parameters(self) -> List:
        return self.model.parameters()

    def compute_loss(self, loop, epoch: int) -> Tensor:
        return functional.cross_entropy(self._logits_fn(), self._labels)


class SupervisedGCN:
    """2-layer GCN trained end-to-end with cross-entropy on labeled nodes."""

    name = "gcn-supervised"

    def __init__(
        self,
        hidden_dim: int = 64,
        epochs: int = 150,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        dropout: float = 0.3,
        num_layers: int = 2,
        seed: int = 0,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.weight_decay = weight_decay
        self.dropout = dropout
        self.num_layers = num_layers
        self.seed = seed
        self.model: Optional[GCN] = None

    def fit(self, graph: Graph, train_idx: np.ndarray) -> "SupervisedGCN":
        if graph.labels is None:
            raise ValueError("supervised training needs labels")
        self.model = GCN(
            in_features=graph.num_features,
            hidden_features=self.hidden_dim,
            out_features=graph.num_classes,
            num_layers=self.num_layers,
            seed=self.seed,
            dropout=self.dropout,
        )
        train_idx = np.asarray(train_idx)
        step = _CrossEntropyStep(
            self.model,
            lambda: ops.gather_rows(self.model(graph.a_n, graph.features), train_idx),
            graph.labels[train_idx],
        )
        TrainLoop(
            step,
            epochs=self.epochs,
            lr=self.lr,
            weight_decay=self.weight_decay,
            seed=self.seed,
            scope=f"supervised.{self.name}",
        ).run()
        return self

    def predict(self, graph: Graph) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("call fit() first")
        return self.model.embed(graph).argmax(axis=1)

    def score(self, graph: Graph, idx: np.ndarray) -> float:
        predictions = self.predict(graph)[np.asarray(idx)]
        return float((predictions == graph.labels[np.asarray(idx)]).mean())


class SupervisedMLP:
    """Feature-only MLP (structure-blind reference point of Tab. IV)."""

    name = "mlp-supervised"

    def __init__(
        self,
        hidden_dim: int = 64,
        epochs: int = 200,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        num_layers: int = 2,
        seed: int = 0,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.lr = lr
        self.weight_decay = weight_decay
        self.num_layers = num_layers
        self.seed = seed
        self.model: Optional[MLP] = None

    def fit(self, graph: Graph, train_idx: np.ndarray) -> "SupervisedMLP":
        if graph.labels is None:
            raise ValueError("supervised training needs labels")
        self.model = MLP(
            in_features=graph.num_features,
            hidden_features=self.hidden_dim,
            out_features=graph.num_classes,
            num_layers=self.num_layers,
            seed=self.seed,
        )
        train_idx = np.asarray(train_idx)
        x_train = Tensor(graph.features[train_idx])
        step = _CrossEntropyStep(
            self.model, lambda: self.model(x_train), graph.labels[train_idx]
        )
        TrainLoop(
            step,
            epochs=self.epochs,
            lr=self.lr,
            weight_decay=self.weight_decay,
            seed=self.seed,
            scope=f"supervised.{self.name}",
        ).run()
        return self

    def predict(self, graph: Graph) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("call fit() first")
        self.model.eval()
        return self.model(Tensor(graph.features)).data.argmax(axis=1)

    def score(self, graph: Graph, idx: np.ndarray) -> float:
        predictions = self.predict(graph)[np.asarray(idx)]
        return float((predictions == graph.labels[np.asarray(idx)]).mean())
