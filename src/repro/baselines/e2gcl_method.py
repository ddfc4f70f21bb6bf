"""E2GCL wrapped in the baseline :class:`ContrastiveMethod` interface.

Lets the benchmark harness iterate E2GCL and the baselines uniformly (same
``fit``/``embed``/timing surface), and exposes the selector hook for the
Tab. VII comparison.  The heavy lifting happens in
:class:`repro.core.E2GCLTrainer`, itself a :class:`repro.engine.TrainStep`
plugin — this wrapper forwards hooks / resume straight to it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from ..core import E2GCLConfig, E2GCLTrainer
from ..engine import load_step_state
from ..graphs import Graph
from .base import ContrastiveMethod, FitInfo, register


@register
class E2GCLMethod(ContrastiveMethod):
    """E2GCL behind the shared baseline interface."""

    name = "e2gcl"

    #: kwargs routed into :class:`repro.scale.ScaleConfig` when sampled.
    _SCALE_KEYS = (
        "batch_size", "fanouts", "view_mode", "anchor_mode", "anchor_budget",
        "partition_parts", "local_edge_drop", "local_feature_mask",
        "chunk_budget_bytes", "feature_dir",
    )

    def __init__(self, config: Optional[E2GCLConfig] = None, selector=None, **kwargs) -> None:
        cfg = config or E2GCLConfig()
        # The sampled mini-batch engine (repro.scale) is opted into with
        # sampled=True; its knobs ride along as ScaleConfig fields.
        self.sampled = bool(kwargs.pop("sampled", False))
        self._scale_kwargs = {
            key: kwargs.pop(key) for key in self._SCALE_KEYS if key in kwargs
        }
        if self._scale_kwargs and not self.sampled:
            raise ValueError(
                f"scale kwargs {sorted(self._scale_kwargs)} need sampled=True")
        mapped = {}
        # Route the shared ContrastiveMethod kwargs into the config (the
        # shared "objective" selection is E2GCL's "loss" field).
        for shared, conf in (
            ("embedding_dim", "embedding_dim"),
            ("hidden_dim", "hidden_dim"),
            ("num_layers", "num_layers"),
            ("epochs", "epochs"),
            ("lr", "lr"),
            ("weight_decay", "weight_decay"),
            ("seed", "seed"),
            ("objective", "loss"),
            ("negatives", "negatives"),
            ("neg_k", "neg_k"),
        ):
            if shared in kwargs:
                mapped[conf] = kwargs.pop(shared)
        # Any remaining kwargs are E2GCLConfig fields (node_ratio, tau_hat, ...).
        mapped.update(kwargs)
        cfg = cfg.with_overrides(**mapped) if mapped else cfg
        super().__init__(
            embedding_dim=cfg.embedding_dim,
            hidden_dim=cfg.hidden_dim,
            num_layers=cfg.num_layers,
            epochs=cfg.epochs,
            lr=cfg.lr,
            weight_decay=cfg.weight_decay,
            seed=cfg.seed,
            objective=cfg.loss,
            negatives=cfg.negatives,
            neg_k=cfg.neg_k,
        )
        self.config = cfg
        self.selector = selector
        self.trainer: Optional[E2GCLTrainer] = None
        self.train_result = None

    def _build_encoder(self, graph: Graph):
        return None  # the trainer owns encoder construction

    def _build_trainer(self, graph: Graph) -> E2GCLTrainer:
        """Dense :class:`E2GCLTrainer`, or the mini-batched
        :class:`repro.scale.SampledTrainStep` when ``sampled=True`` (the
        checkpoint ``step_class`` then differs, so dense and sampled runs
        never resume into each other)."""
        if not self.sampled:
            return E2GCLTrainer(graph, self.config, selector=self.selector)
        from ..scale import SampledTrainStep, ScaleConfig

        return SampledTrainStep(
            graph, self.config, selector=self.selector,
            scale=ScaleConfig(**self._scale_kwargs))

    def fit(
        self,
        graph: Graph,
        *,
        hooks: Sequence = (),
        resume_from: Optional[Union[str, Path]] = None,
    ) -> "E2GCLMethod":
        """Delegate to the E2GCL trainer (itself an engine plugin)."""
        self._graph = graph
        self.trainer = self._build_trainer(graph)
        # Expose the encoder before training so per-epoch hooks (e.g. the
        # Fig. 3 timed evaluator) can embed mid-run.
        self.encoder = self.trainer.encoder
        self.train_result = self.trainer.train(
            hooks=hooks, resume_from=resume_from,
        )
        self.encoder = self.train_result.encoder
        self.info = FitInfo(self.train_result.run_history)
        self.last_loop = self.trainer.last_loop
        return self

    def load_checkpoint(self, path: Union[str, Path], graph: Graph) -> "E2GCLMethod":
        """Rehydrate from an engine checkpoint written during ``fit``.

        The checkpoint's step class is :class:`E2GCLTrainer` (or
        :class:`~repro.scale.SampledTrainStep` for sampled runs — the
        engine validates the class name), so a matching fresh trainer is
        built and its arrays restored.
        """
        self._graph = graph
        self.trainer = self._build_trainer(graph)
        load_step_state(self.trainer, path)
        self.encoder = self.trainer.encoder
        return self

    @property
    def selection_seconds(self) -> float:
        if self.train_result is None:
            raise RuntimeError("call fit() first")
        return self.train_result.selection_seconds

    @property
    def total_seconds(self) -> float:
        if self.train_result is None:
            raise RuntimeError("call fit() first")
        return self.train_result.total_seconds
