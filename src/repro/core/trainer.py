"""The E2GCL pre-training loop (Alg. 1 lines 1-5, with Alg. 2 + Alg. 3 inside).

Per epoch: draw two global positive views with the score-aware generator,
run the shared GCN encoder on both, gather the coreset anchors, and descend
the contrastive loss weighted by the coreset λ.

The trainer is a :class:`repro.engine.TrainStep` plugin: :meth:`train`
drives it through the shared :class:`repro.engine.TrainLoop`, which owns
the optimizer, the hook pipeline, checkpoint save/resume, and the one
canonical wall clock — started *before* selection and score precomputation,
so Fig. 3's accuracy-vs-time milestones are comparable with every baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..autograd import Tensor, ops
from ..contrast import L2LContrast, UniformK, get_negative_sampler, get_objective
from ..engine import CallbackHook, EpochRecord, RngStreams, RunHistory, TrainLoop, TrainStep
from ..graphs import Graph
from ..nn import GCN, ProjectionHead
from ..obs.tracer import span
from .config import E2GCLConfig
from .node_selector import CoresetResult, select_coreset
from .scores import compute_edge_scores, compute_feature_scores
from .view_generator import generate_global_view_pair

__all__ = ["E2GCLTrainer", "TrainResult", "EpochRecord"]


@dataclass
class TrainResult:
    """Everything produced by a pre-training run.

    ``selection_seconds`` is Tab. V's ST column, ``total_seconds`` its TT
    column (selection + score pre-computation + optimization), both
    measured from the engine's single timing origin.
    """

    encoder: GCN
    coreset: Optional[CoresetResult]
    run_history: RunHistory = field(default_factory=RunHistory)
    selection_seconds: float = 0.0
    total_seconds: float = 0.0

    @property
    def history(self) -> List[EpochRecord]:
        """Per-epoch records (feeds Fig. 3)."""
        return self.run_history.records

    @property
    def final_loss(self) -> float:
        return self.run_history.final_loss


class E2GCLTrainer(TrainStep):
    """Orchestrates node selection, view generation, and encoder training.

    Parameters
    ----------
    graph:
        The pre-training graph (labels, if any, are never read).
    config:
        Full hyperparameter set.
    encoder:
        Optional externally constructed GCN (must map
        ``graph.num_features → config.embedding_dim``); by default one is
        built from the config.
    selector:
        Optional replacement for Alg. 2: a callable
        ``(graph, budget, rng) -> (selected_indices, weights)``.  The
        Tab. VII ablation plugs the baseline selectors in here.
    """

    def __init__(
        self,
        graph: Graph,
        config: E2GCLConfig,
        encoder: Optional[GCN] = None,
        selector=None,
    ) -> None:
        self.graph = graph
        self.config = config
        self.encoder = encoder or GCN(
            in_features=graph.num_features,
            hidden_features=config.hidden_dim,
            out_features=config.embedding_dim,
            num_layers=config.num_layers,
            seed=config.seed,
        )
        self.rngs = RngStreams(config.seed)
        self._rng = self.rngs.main
        # Subsampled negatives draw from a dedicated stream so the view
        # generator sees the same randomness as a dense run (common random
        # numbers).  The legacy Eq. 5 configuration keeps the main stream:
        # its reference trajectories interleave negative draws with view
        # generation, and that bit-exact behavior is pinned by tests.
        if config.loss == "euclidean" and config.negatives == "all":
            self._neg_rng = self._rng
        else:
            self._neg_rng = self.rngs.stream("negatives", offset=104729)
        self.selector = selector
        self.projector: Optional[ProjectionHead] = None
        if config.loss != "euclidean":
            # Similarity objectives act on a 2-layer projection of the
            # embeddings (as in GRACE); Eq. 5 acts on them directly.
            self.projector = ProjectionHead(
                config.embedding_dim, config.hidden_dim, config.projection_dim,
                seed=config.seed + 101,
            )
        self._contrast = self._build_contrast(config)
        self.coreset: Optional[CoresetResult] = None
        self._anchors: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._edge_table = None
        self._feature_table = None
        self._selection_seconds = 0.0
        self._views_cache = None
        self._view_rng_state = None
        self._replay_view_state = None
        self.last_loop: Optional[TrainLoop] = None

    # ------------------------------------------------------------------
    def setup(self) -> "E2GCLTrainer":
        """Run Alg. 2 (if enabled) and precompute the Alg. 3 score tables."""
        self._run_selection()
        self._build_score_tables()
        return self

    def _propagated_r(self):
        """Optional precomputed ``R = A_n^L X`` for Alg. 2.

        ``None`` lets :func:`select_coreset` derive it densely; the
        sampled trainer overrides this with the blockwise out-of-core
        aggregation (see :mod:`repro.scale.feature_store`)."""
        return None

    def _run_selection(self) -> None:
        """Alg. 2: pick the coreset anchors and their λ weights."""
        cfg = self.config
        if cfg.use_coreset and self.selector is not None:
            start = time.perf_counter()
            selected, weights = self.selector(
                self.graph, cfg.budget_for(self.graph.num_nodes), self._rng
            )
            self._anchors = np.asarray(selected, dtype=np.int64)
            self._weights = np.asarray(weights, dtype=np.float64)
            self._selection_seconds = time.perf_counter() - start
        elif cfg.use_coreset:
            with span("trainer.selection"):
                self.coreset = select_coreset(
                    self.graph,
                    budget=cfg.budget_for(self.graph.num_nodes),
                    num_clusters=cfg.num_clusters,
                    sample_size=cfg.sample_size,
                    hops=cfg.num_layers,
                    rng=self._rng,
                    r=self._propagated_r(),
                )
            self._anchors = self.coreset.selected
            self._weights = self.coreset.weights
            self._selection_seconds = self.coreset.selection_seconds
        else:
            self._anchors = np.arange(self.graph.num_nodes)
            self._weights = np.ones(self.graph.num_nodes)
            self._selection_seconds = 0.0

    def _build_score_tables(self) -> None:
        """Precompute the Alg. 3 edge/feature score tables."""
        cfg = self.config
        self._edge_table = compute_edge_scores(
            self.graph,
            beta=cfg.beta,
            uniform=not cfg.edge_aware,
            max_candidates=cfg.max_candidates,
            rng=self._rng,
            centrality_method=cfg.centrality_method,
        )
        self._feature_table = compute_feature_scores(
            self.graph,
            normalization=cfg.feature_normalization,
            uniform=not cfg.feature_aware,
            centrality_method=cfg.centrality_method,
        )

    # ------------------------------------------------------------------
    def _views(self):
        cfg = self.config
        with span("trainer.views"):
            return generate_global_view_pair(
                self.graph,
                self._edge_table,
                self._feature_table,
                self._rng,
                tau_hat=cfg.tau_hat,
                tau_tilde=cfg.tau_tilde,
                eta_hat=cfg.eta_hat,
                eta_tilde=cfg.eta_tilde,
            )

    @staticmethod
    def _build_contrast(cfg: E2GCLConfig) -> L2LContrast:
        """Compose the config's objective × negative sampler.

        The euclidean objective always needs sampled negatives, so its
        legacy configuration (``negatives="all"``) maps to uniform
        sampling with the historical ``num_negatives`` budget — the same
        RNG draw as the pre-refactor inline sampling.
        """
        objective = get_objective(cfg.loss, temperature=cfg.temperature)
        if cfg.loss == "euclidean" and cfg.negatives == "all":
            sampler = UniformK(k=cfg.num_negatives)
        else:
            sampler = get_negative_sampler(cfg.negatives, k=cfg.neg_k)
        return L2LContrast(objective, sampler)

    def _loss(self, h_hat: Tensor, h_tilde: Tensor, weights=None) -> Tensor:
        if self._contrast.objective.name == "euclidean" and self._anchors.size < 2:
            raise ValueError(
                f"euclidean contrastive loss needs at least 2 coreset anchors "
                f"to sample negatives, got {self._anchors.size}; increase "
                f"node_ratio (or the selector budget) or switch to the "
                f"infonce loss"
            )
        if self.projector is not None:
            h_hat = self.projector(h_hat)
            h_tilde = self.projector(h_tilde)
        if weights is None:
            weights = self._weights
        return self._contrast.loss(h_hat, h_tilde, rng=self._neg_rng, weights=weights)

    # ------------------------------------------------------------------
    # TrainStep plugin surface
    # ------------------------------------------------------------------
    def prepare(self, loop) -> None:
        """Selection + score tables (skipped if ``setup`` already ran)."""
        if self._anchors is None:
            self.setup()

    def trainable_parameters(self):
        """Encoder, plus the projection head for the InfoNCE variant."""
        params = self.encoder.parameters()
        if self.projector is not None:
            params = params + self.projector.parameters()
        return params

    def checkpoint_components(self):
        """Encoder (and projector when the loss uses one)."""
        return {"encoder": self.encoder, "projector": self.projector}

    def _epoch_views(self, epoch: int):
        """The (view_hat, view_tilde) pair for ``epoch``, refreshed on the
        configured interval, with mid-interval resumes replayed bit-for-bit."""
        interval = max(self.config.view_refresh_interval, 1)
        if self._replay_view_state is not None and epoch % interval != 0:
            # Resuming mid-refresh-interval: regenerate the cached views by
            # replaying the RNG from the state saved at the last refresh,
            # then restore the live state so training continues bit-for-bit.
            live_state = self._rng.bit_generator.state
            self._rng.bit_generator.state = self._replay_view_state
            self._views_cache = self._views()
            self._rng.bit_generator.state = live_state
        elif self._views_cache is None or epoch % interval == 0:
            self._view_rng_state = self._rng.bit_generator.state
            self._views_cache = self._views()
        self._replay_view_state = None
        return self._views_cache

    def run_epoch(self, loop, epoch: int) -> float:
        """Refresh views on schedule, then one optimization step."""
        view_hat, view_tilde = self._epoch_views(epoch)

        optimizer = loop.optimizer
        optimizer.zero_grad()
        anchors = self._anchors
        h_hat = ops.gather_rows(self.encoder(view_hat), anchors)
        h_tilde = ops.gather_rows(self.encoder(view_tilde), anchors)
        loss = self._loss(h_hat, h_tilde)
        loss.backward()
        optimizer.step()
        return float(loss.item())

    def state_json(self) -> dict:
        """Scalars a resume needs: the view-refresh RNG state and the
        selection cost (already inside the engine's elapsed offset, kept
        for the Tab. V ST column)."""
        return {
            "view_rng_state": self._view_rng_state,
            "selection_seconds": self._selection_seconds,
        }

    def load_state_json(self, payload: dict) -> None:
        """Restore :meth:`state_json`; the saved view RNG state is replayed
        on the first resumed epoch when it falls mid-refresh-interval."""
        self._view_rng_state = payload.get("view_rng_state")
        self._replay_view_state = payload.get("view_rng_state")
        self._selection_seconds = float(payload.get("selection_seconds", 0.0))

    # ------------------------------------------------------------------
    def train(
        self,
        callback: Optional[Callable[[int, "E2GCLTrainer"], None]] = None,
        *,
        hooks: Sequence = (),
        resume_from: Optional[Union[str, Path]] = None,
    ) -> TrainResult:
        """Run the optimization loop through the shared engine.

        ``callback(epoch, trainer)`` fires after each epoch (used by
        Fig. 3's timed evaluation); ``hooks`` extends the engine pipeline;
        ``resume_from`` continues from a v2 checkpoint bit-identically.
        """
        cfg = self.config
        run_hooks = list(hooks)
        if callback is not None:
            run_hooks.append(CallbackHook(callback, owner=self))
        loop = TrainLoop(
            self,
            epochs=cfg.epochs,
            lr=cfg.lr,
            weight_decay=cfg.weight_decay,
            hooks=run_hooks,
            rngs=self.rngs,
            scope="trainer",
            resume_from=resume_from,
        )
        self.last_loop = loop
        history = loop.run()
        return TrainResult(
            encoder=self.encoder,
            coreset=self.coreset,
            run_history=history,
            selection_seconds=self._selection_seconds,
            total_seconds=history.total_seconds,
        )

    def embed(self, graph: Optional[Graph] = None) -> np.ndarray:
        """Frozen-encoder node representations (evaluation protocol input)."""
        return self.encoder.embed(graph or self.graph)
