"""Shared infrastructure for the baseline GCL methods.

Every baseline implements the same two-phase protocol as E2GCL (Alg. 1):
``fit(graph)`` pre-trains an encoder without labels, ``embed(graph)``
returns frozen representations for the linear-eval decoders.  A registry
maps paper names ("GRACE", "GCA", ...) to constructors so benchmarks can
enumerate Tab. IV's model column directly.

Since the engine refactor, no method hand-rolls an epoch loop: a
:class:`ContrastiveMethod` *is* a :class:`repro.engine.TrainStep` plugin
(build views → forward → loss) and ``fit`` drives it through one shared
:class:`repro.engine.TrainLoop`, which owns the optimizer, the canonical
wall-clock origin (started before encoder construction, so timings are
comparable across methods), hooks (early stopping, checkpointing, timed
eval), and checkpoint save/resume.

The perturbation-based baselines share :class:`TwoViewContrastiveMethod`:
two augmented views per epoch → shared GCN encoder → InfoNCE.  Their
*operation sets* are explicit constructor arguments, which is what the
Fig. 2 "operation upgrade" experiment varies (e.g. GRACE's original
{FM, ED} vs. upgraded {FM, ED, EA, FP}).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..autograd import Tensor
from ..contrast import (
    L2LContrast,
    available_negative_samplers,
    get_negative_sampler,
    get_objective,
)
from ..core.augmentations import (
    add_edges,
    drop_edges,
    drop_features,
    mask_features,
    perturb_features,
)
from ..engine import (
    RngStreams,
    RunHistory,
    TrainLoop,
    TrainStep,
    load_step_state,
)
from ..graphs import Graph
from ..nn import GCN, ProjectionHead

# Operation codes used across the paper (Tab. I).
ED = "ED"  # edge deletion
EA = "EA"  # edge addition
FM = "FM"  # feature masking
FP = "FP"  # feature perturbation
FD = "FD"  # feature dropping

_OPERATION_NAMES = (ED, EA, FM, FP, FD)


@dataclass
class MethodConfig:
    """Shared hyperparameters every :class:`ContrastiveMethod` accepts.

    Bundles the common constructor kwargs (encoder shape, schedule, seed)
    with the contrast-layer selection (``objective`` × ``negatives`` ×
    ``neg_k``) so callers — the CLI in particular — can build one config
    and fan it out to any registered method via :meth:`method_kwargs`.

    ``objective=None`` keeps each method's paper default (InfoNCE for the
    GRACE family, JSD for DGI/MVGRL, bootstrap for BGRL/AFGRL).
    """

    embedding_dim: int = 32
    hidden_dim: int = 64
    num_layers: int = 2
    epochs: int = 60
    lr: float = 0.01
    weight_decay: float = 1e-5
    seed: int = 0
    objective: Optional[str] = None
    negatives: str = "all"
    neg_k: int = 64

    def method_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for ``get_method``; ``objective=None`` is
        omitted so methods fall back to their paper default."""
        kwargs = {f.name: getattr(self, f.name) for f in dataclass_fields(self)}
        if kwargs["objective"] is None:
            del kwargs["objective"]
        return kwargs


class FitInfo:
    """Bookkeeping every baseline exposes after ``fit`` — a read-only view
    over the engine's :class:`~repro.engine.RunHistory`, so losses and
    wall-clock come from the loop's single timing origin."""

    def __init__(self, history: Optional[RunHistory] = None) -> None:
        self.history = history if history is not None else RunHistory()

    @property
    def losses(self) -> List[float]:
        """Per-epoch losses."""
        return self.history.losses

    @property
    def epoch_seconds(self) -> List[float]:
        """Cumulative wall-clock at each epoch end (engine origin)."""
        return self.history.elapsed

    @property
    def seconds(self) -> float:
        """Total run wall-clock, setup/selection included."""
        return self.history.total_seconds


class ContrastiveMethod(TrainStep):
    """Interface all pre-training methods share (a ``TrainStep`` plugin).

    Every method's loss is composed from the contrast layer
    (:mod:`repro.contrast`): ``objective`` overrides the method's paper
    default (``default_objective``), and ``negatives``/``neg_k`` select
    the negative sampler for node-to-node losses (``all`` keeps the dense
    historical behavior; ``uniform``/``hard`` make the loss O(n·k)).
    """

    name = "base"
    #: The objective composed when ``objective`` is not given.
    default_objective: str = "infonce"

    def __init__(
        self,
        embedding_dim: int = 32,
        hidden_dim: int = 64,
        num_layers: int = 2,
        epochs: int = 60,
        lr: float = 0.01,
        weight_decay: float = 1e-5,
        seed: int = 0,
        objective: Optional[str] = None,
        negatives: str = "all",
        neg_k: int = 64,
    ) -> None:
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.lr = lr
        self.weight_decay = weight_decay
        self.seed = seed
        self.objective = objective
        if negatives not in available_negative_samplers():
            raise ValueError(
                f"unknown negative sampler {negatives!r}; "
                f"available: {available_negative_samplers()}"
            )
        self.negatives = negatives
        self.neg_k = neg_k
        self.encoder: Optional[GCN] = None
        self.info = FitInfo()
        self.rngs = RngStreams(seed)
        self._rng = self.rngs.main
        # Negative subsampling draws from its own engine stream so that a
        # sampled run consumes the *same* augmentation randomness as the
        # dense run (common random numbers): embeddings stay comparable
        # across k, and the estimator noise is the only difference.
        self._neg_rng = self.rngs.stream("negatives", offset=104729)
        self._graph: Optional[Graph] = None
        self.last_loop: Optional[TrainLoop] = None

    # ------------------------------------------------------------------
    def _objective_kwargs(self) -> Dict[str, object]:
        """Hyperparameters forwarded to the objective constructor."""
        return {}

    def _build_contrast(self) -> L2LContrast:
        """Compose the method's objective with its negative sampler."""
        objective = get_objective(
            self.objective or self.default_objective, **self._objective_kwargs()
        )
        sampler = get_negative_sampler(self.negatives, k=self.neg_k)
        return L2LContrast(objective, sampler)

    # ------------------------------------------------------------------
    def _build_encoder(self, graph: Graph) -> GCN:
        return GCN(
            in_features=graph.num_features,
            hidden_features=self.hidden_dim,
            out_features=self.embedding_dim,
            num_layers=self.num_layers,
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    # TrainStep plugin surface
    # ------------------------------------------------------------------
    def materialize(self, graph: Graph) -> "ContrastiveMethod":
        """Construct all modules deterministically (no training, no heavy
        precompute) — enough to load checkpointed arrays and ``embed``."""
        self._graph = graph
        self.encoder = self._build_encoder(graph)
        self._materialize_impl(graph)
        return self

    def _materialize_impl(self, graph: Graph) -> None:
        """Subclass hook: build projectors / targets / discriminators."""

    def prepare(self, loop) -> None:
        """Engine setup phase: materialize modules + heavy precompute."""
        self.materialize(self._graph)
        self._prepare_impl(self._graph)

    def _prepare_impl(self, graph: Graph) -> None:
        """Subclass hook: one-off precompute (diffusion graphs, targets)."""

    def trainable_parameters(self):
        """Parameters the engine's optimizer updates."""
        return self.encoder.parameters()

    def checkpoint_components(self) -> Dict[str, object]:
        """Named modules/parameters a checkpoint captures."""
        return {"encoder": self.encoder}

    # ------------------------------------------------------------------
    def fit(
        self,
        graph: Graph,
        *,
        hooks: Sequence = (),
        resume_from: Optional[Union[str, Path]] = None,
    ) -> "ContrastiveMethod":
        """Pre-train on ``graph`` through the shared engine; labels are
        never read.

        ``hooks`` extends the engine's hook pipeline (early stopping,
        periodic checkpoints, timed eval); ``resume_from`` continues a run
        from a v2 checkpoint bit-identically.
        """
        self._graph = graph
        loop = TrainLoop(
            self,
            epochs=self.epochs,
            lr=self.lr,
            weight_decay=self.weight_decay,
            hooks=list(hooks),
            rngs=self.rngs,
            scope=f"method.{self.name}",
            resume_from=resume_from,
        )
        self.last_loop = loop
        self.info = FitInfo(loop.run())
        return self

    def load_checkpoint(self, path: Union[str, Path], graph: Graph) -> "ContrastiveMethod":
        """Rehydrate a trained method from an engine (v2) checkpoint for
        inference: rebuilds the modules for ``graph`` and restores their
        arrays, so ``embed`` reproduces the checkpointed representations."""
        self.materialize(graph)
        load_step_state(self, path)
        return self

    def embed(self, graph: Graph) -> np.ndarray:
        """Frozen-encoder representations."""
        if self.encoder is None:
            raise RuntimeError("call fit() before embed()")
        return self.encoder.embed(graph)


class TwoViewContrastiveMethod(ContrastiveMethod):
    """Two uniformly augmented views through the L2L contrast layer — the
    GRACE-family template (paper default: symmetric NT-Xent, all pairs).

    Parameters
    ----------
    operations:
        Which augmentation operations each view applies; subclasses fix the
        paper defaults, and Fig. 2 passes upgraded sets.
    view1_rates / view2_rates:
        Per-operation rates for each view (defaults shared).
    """

    name = "two-view"
    default_operations: Tuple[str, ...] = (ED, FM)
    default_objective = "infonce"

    def __init__(
        self,
        operations: Optional[Sequence[str]] = None,
        view1_rates: Optional[Dict[str, float]] = None,
        view2_rates: Optional[Dict[str, float]] = None,
        temperature: float = 0.5,
        projection_dim: int = 32,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.operations = tuple(operations) if operations is not None else self.default_operations
        unknown = set(self.operations) - set(_OPERATION_NAMES)
        if unknown:
            raise ValueError(f"unknown operations: {sorted(unknown)}")
        # EA/FP default to *gentle* rates: they are the Fig. 2 "upgrade"
        # operations, meant to enrich the view space, not to dominate it.
        base1 = {ED: 0.3, EA: 0.05, FM: 0.2, FP: 0.08, FD: 0.2}
        base2 = {ED: 0.4, EA: 0.08, FM: 0.3, FP: 0.12, FD: 0.3}
        self.view1_rates = {**base1, **(view1_rates or {})}
        self.view2_rates = {**base2, **(view2_rates or {})}
        self.temperature = temperature
        self.projection_dim = projection_dim
        self.projector: Optional[ProjectionHead] = None
        self._contrast = self._build_contrast()

    def _objective_kwargs(self) -> Dict[str, object]:
        """NT-Xent temperature (ignored by temperature-free objectives)."""
        return {"temperature": self.temperature}

    # ------------------------------------------------------------------
    def _augment(self, graph: Graph, rates: Dict[str, float]) -> Graph:
        """Apply this method's operation set uniformly at random."""
        view = graph
        for op in self.operations:
            rate = rates[op]
            if rate <= 0:
                continue
            if op == ED:
                view = drop_edges(view, rate, self._rng)
            elif op == EA:
                view = add_edges(view, rate, self._rng)
            elif op == FM:
                view = mask_features(view, rate, self._rng)
            elif op == FP:
                view = perturb_features(view, rate, self._rng)
            elif op == FD:
                view = drop_features(view, rate, self._rng)
        return view

    def _views(self, graph: Graph) -> Tuple[Graph, Graph]:
        return self._augment(graph, self.view1_rates), self._augment(graph, self.view2_rates)

    def _project(self, h: Tensor) -> Tensor:
        return self.projector(h) if self.projector is not None else h

    # ------------------------------------------------------------------
    def _materialize_impl(self, graph: Graph) -> None:
        self.projector = ProjectionHead(
            self.embedding_dim, self.hidden_dim, self.projection_dim, seed=self.seed + 5
        )

    def trainable_parameters(self):
        """Encoder plus projection head."""
        return self.encoder.parameters() + self.projector.parameters()

    def checkpoint_components(self) -> Dict[str, object]:
        """Encoder plus projection head."""
        return {"encoder": self.encoder, "projector": self.projector}

    def compute_loss(self, loop, epoch: int) -> Tensor:
        """Two augmented views → shared encoder → composed contrast loss.

        The ``all`` sampler consumes no randomness, so the default
        composition is seed-for-seed identical to the historical inline
        NT-Xent; subsampling strategies draw from the dedicated
        ``negatives`` stream, leaving the augmentation stream untouched.
        """
        view1, view2 = self._views(self._graph)
        z1 = self._project(self.encoder(view1.a_n, view1.features))
        z2 = self._project(self.encoder(view2.a_n, view2.features))
        return self._contrast.loss(z1, z2, rng=self._neg_rng)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ContrastiveMethod]] = {}


def register(cls: Type[ContrastiveMethod]) -> Type[ContrastiveMethod]:
    """Class decorator adding a method to the benchmark registry."""
    _REGISTRY[cls.name.lower()] = cls
    return cls


def get_method(name: str, **kwargs) -> ContrastiveMethod:
    """Instantiate a registered baseline by its paper name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown method {name!r}; available: {available_methods()}")
    return _REGISTRY[key](**kwargs)


def available_methods() -> List[str]:
    """Registered method names, sorted (Tab. IV's model column)."""
    return sorted(_REGISTRY)


def registered_methods() -> Dict[str, Type[ContrastiveMethod]]:
    """Snapshot of the registry, ``{name: method class}``.

    A copy, so callers (e.g. the serving stack's step-class → method-name
    reverse map) cannot mutate the live registry.
    """
    return dict(_REGISTRY)
