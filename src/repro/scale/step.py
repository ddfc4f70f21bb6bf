"""Sampled mini-batch E2GCL training — the million-node engine variant.

:class:`SampledTrainStep` subclasses :class:`repro.core.E2GCLTrainer`, so
the whole engine surface (hooks, HealthGuard, v2 checkpoints, tracer,
resume) composes unchanged; only the per-epoch work is replaced by a
mini-batched loop over seeded neighbor-sampled blocks
(:mod:`repro.scale.sampler`) and the Alg. 2 pre-processing ``R = A_n^L X``
is routed through the out-of-core blockwise aggregation
(:mod:`repro.scale.feature_store`).

Dense-path fallback (the oracle the test tier locks)
----------------------------------------------------
With ``fanouts=None`` (exact neighborhoods), ``batch_size=None`` (one
batch of all anchors), and ``view_mode="global"``, every epoch is a single
full-fanout block step: the block forward reproduces the dense forward at
the anchor rows, no batch/sampler randomness is consumed, and the loss
trajectory matches ``E2GCLTrainer`` seed for seed within float tolerance.
Scaling knobs then peel away from that anchor point one at a time.

View modes
----------
``"global"`` runs the paper's Alg. 3 generator per refresh interval (two
full-graph views, exact semantics, O(n) per refresh); ``"local"`` skips
the global score tables and instead corrupts each *block* (uniform edge
dropout + feature masking, GRACE-style) so per-epoch cost is
O(sum of block sizes) — the only mode that stays sublinear at
million-node scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, get_default_dtype, ops
from ..core.config import E2GCLConfig
from ..core.trainer import E2GCLTrainer
from ..graphs import Graph
from ..nn import GCN
from ..obs.tracer import emit_metric, span
from .blocks import true_degrees
from .feature_store import (
    DEFAULT_CHUNK_BUDGET,
    FeatureStore,
    blockwise_propagated_features,
)
from .partition import GraphPartition, bfs_partition
from .sampler import NeighborSampler, SampledBlock

__all__ = ["SampledTrainStep", "ScaleConfig"]


@dataclass
class ScaleConfig:
    """Knobs of the sampled engine, all defaulting to the exact fallback.

    batch_size:
        Anchors per mini-batch; ``None`` (or ≥ the anchor count) trains
        all anchors in one batch *without* consuming the batch-shuffle
        stream — the dense-fallback configuration.
    fanouts:
        Per-hop neighbor budgets (outermost hop first), length must equal
        the encoder depth; ``None`` keeps exact full neighborhoods.
    view_mode:
        ``"global"`` (Alg. 3 full-graph views) or ``"local"`` (per-block
        corruption; skips the global score tables entirely).
    anchor_mode:
        ``"coreset"`` (Alg. 2, out-of-core ``R``), ``"uniform"`` (random
        ``anchor_budget`` anchors, unit weights — for graphs too large to
        cluster), or ``"all"``.
    partition_parts:
        When set, anchors are batched by :func:`bfs_partition` part
        (Cluster-GCN style locality) instead of random shuffling;
        ``batch_size`` still caps each part batch.
    local_edge_drop / local_feature_mask:
        Corruption strengths for ``view_mode="local"``.
    chunk_budget_bytes:
        Row budget for every out-of-core pass (feature store gathers and
        blockwise propagation).
    feature_dir:
        Directory for the propagation ping/pong memmaps; ``None`` keeps
        the (still chunked) buffers in memory.
    """

    batch_size: Optional[int] = None
    fanouts: Optional[Sequence[Optional[int]]] = None
    view_mode: str = "global"
    anchor_mode: str = "coreset"
    anchor_budget: Optional[int] = None
    partition_parts: Optional[int] = None
    local_edge_drop: float = 0.2
    local_feature_mask: float = 0.2
    chunk_budget_bytes: int = DEFAULT_CHUNK_BUDGET
    feature_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.view_mode not in ("global", "local"):
            raise ValueError(f"unknown view_mode {self.view_mode!r}")
        if self.anchor_mode not in ("coreset", "uniform", "all"):
            raise ValueError(f"unknown anchor_mode {self.anchor_mode!r}")
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not 0.0 <= self.local_edge_drop < 1.0:
            raise ValueError("local_edge_drop must be in [0, 1)")
        if not 0.0 <= self.local_feature_mask < 1.0:
            raise ValueError("local_feature_mask must be in [0, 1)")


class SampledTrainStep(E2GCLTrainer):
    """E2GCL trained on neighbor-sampled mini-batches of coreset anchors."""

    def __init__(
        self,
        graph: Graph,
        config: E2GCLConfig,
        encoder: Optional[GCN] = None,
        selector=None,
        scale: Optional[ScaleConfig] = None,
    ) -> None:
        super().__init__(graph, config, encoder=encoder, selector=selector)
        self.scale = scale or ScaleConfig()
        if (self.scale.fanouts is not None
                and len(self.scale.fanouts) != config.num_layers):
            raise ValueError(
                f"fanouts has {len(self.scale.fanouts)} hops but the encoder "
                f"has {config.num_layers} layers")
        # Streams are created eagerly so every checkpoint snapshots them,
        # whether or not the first epochs happened to consume them.
        self._batch_rng = self.rngs.stream("batches", offset=20011)
        self._sampler_rng = self.rngs.stream("sampler", offset=30013)
        self._local_view_rng = self.rngs.stream("local_views", offset=40009)
        self._anchor_rng = self.rngs.stream("anchors", offset=50021)
        self._base_degrees = true_degrees(graph.adjacency)
        self._store = FeatureStore(
            graph.features, chunk_budget_bytes=self.scale.chunk_budget_bytes)
        self._base_sampler = self._make_sampler(
            graph.adjacency, self._base_degrees)
        self.partition: Optional[GraphPartition] = None
        self._weight_by_node: Optional[np.ndarray] = None
        self._view_samplers = None

    # ------------------------------------------------------------------
    # Selection / setup overrides
    # ------------------------------------------------------------------
    def _make_sampler(self, adjacency, degrees=None) -> NeighborSampler:
        return NeighborSampler(
            adjacency,
            fanouts=self.scale.fanouts,
            degrees=degrees,
            num_hops=self.config.num_layers,
        )

    def _propagated_r(self) -> np.ndarray:
        """Alg. 2's ``R = A_n^L X`` via the chunked out-of-core path."""
        return blockwise_propagated_features(
            self.graph.adjacency,
            self._store,
            hops=self.config.num_layers,
            chunk_budget_bytes=self.scale.chunk_budget_bytes,
            out_dir=self.scale.feature_dir,
        )

    def _run_selection(self) -> None:
        mode = self.scale.anchor_mode
        if mode == "coreset":
            super()._run_selection()
        elif mode == "all":
            self._anchors = np.arange(self.graph.num_nodes)
            self._weights = np.ones(self.graph.num_nodes)
            self._selection_seconds = 0.0
        else:  # uniform
            n = self.graph.num_nodes
            budget = min(
                n, self.scale.anchor_budget or self.config.budget_for(n))
            self._anchors = np.sort(
                self._anchor_rng.choice(n, size=budget, replace=False))
            self._weights = np.ones(budget)
            self._selection_seconds = 0.0
        weight_by_node = np.zeros(self.graph.num_nodes)
        weight_by_node[self._anchors] = self._weights
        self._weight_by_node = weight_by_node

    def _build_score_tables(self) -> None:
        """Local views never read the Alg. 3 tables — skip the O(n·d) pass."""
        if self.scale.view_mode == "global":
            super()._build_score_tables()

    def prepare(self, loop) -> None:
        super().prepare(loop)
        if self._weight_by_node is None:
            # setup() ran externally before the weight map existed.
            weight_by_node = np.zeros(self.graph.num_nodes)
            weight_by_node[self._anchors] = self._weights
            self._weight_by_node = weight_by_node
        if self.scale.partition_parts and self.partition is None:
            self.partition = bfs_partition(
                self.graph.adjacency, self.scale.partition_parts)

    # ------------------------------------------------------------------
    # Mini-batch machinery
    # ------------------------------------------------------------------
    def _epoch_batches(self) -> List[np.ndarray]:
        """Anchor batches for one epoch.

        A single all-anchor batch consumes no randomness (the fallback
        contract); otherwise the shuffle (or the partition-part order)
        comes from the dedicated ``batches`` stream.
        """
        anchors = self._anchors
        sc = self.scale
        if sc.partition_parts:
            part_of = self.partition.assignment[anchors]
            order = self._batch_rng.permutation(self.partition.num_parts)
            groups = [anchors[part_of == p] for p in order]
            groups = [g for g in groups if g.size]
        elif sc.batch_size is not None and sc.batch_size < anchors.size:
            shuffled = anchors[self._batch_rng.permutation(anchors.size)]
            groups = [shuffled]
        else:
            return [anchors]
        if sc.batch_size is not None:
            groups = [
                g[i:i + sc.batch_size]
                for g in groups
                for i in range(0, g.size, sc.batch_size)
            ]
        # No degenerate batches: a trailing singleton cannot sample
        # in-batch negatives, so it merges into its predecessor.
        merged: List[np.ndarray] = []
        for g in groups:
            if merged and (g.size < 2 or merged[-1].size < 2):
                merged[-1] = np.concatenate([merged[-1], g])
            else:
                merged.append(g)
        return merged

    def _block_forward(self, a_n: sp.csr_matrix, features: np.ndarray) -> Tensor:
        """Drive the encoder layers over one block adjacency.

        Mirrors ``GCN.forward`` (matmul + fused propagate per layer) with
        the block's ``a_n`` instead of the full-graph normalization, and
        the same dtype policy (cast once at the boundary).
        """
        dtype = get_default_dtype()
        if a_n.dtype != dtype:
            a_n = a_n.astype(dtype)
        h = Tensor(np.asarray(features, dtype=dtype))
        for layer in self.encoder.layers:
            h = layer(a_n, h)
        return h

    def _corrupt_block(self, block: SampledBlock, features: np.ndarray,
                       rng: np.random.Generator):
        """One cheap local view of a block: edge dropout + feature masking.

        Drops normalized off-diagonal entries (DropEdge on the block,
        self-loops kept so no row goes all-zero) and zeroes a random
        feature-dimension subset (GRACE-style masking).
        """
        sc = self.scale
        a_n = block.a_n
        if sc.local_edge_drop > 0.0:
            coo = a_n.tocoo()
            keep = rng.random(coo.nnz) >= sc.local_edge_drop
            keep |= coo.row == coo.col
            a_n = sp.csr_matrix(
                (coo.data[keep], (coo.row[keep], coo.col[keep])),
                shape=a_n.shape)
        if sc.local_feature_mask > 0.0:
            features = features.copy()
            masked = rng.random(features.shape[1]) < sc.local_feature_mask
            features[:, masked] = 0.0
        return a_n, features

    def _global_view_samplers(self, epoch: int):
        """Per-view samplers for the current refresh interval's view pair.

        Each view is a full perturbed graph, so its blocks must normalize
        with the *view's own* degrees (that is what the dense encoder
        does); samplers are cached on the view-pair object identity.
        """
        views = self._epoch_views(epoch)
        if self._view_samplers is None or self._view_samplers[0] is not views:
            self._view_samplers = (
                views,
                tuple(self._make_sampler(v.adjacency) for v in views),
            )
        return views, self._view_samplers[1]

    def _batch_step(self, loop, batch: np.ndarray, views, samplers) -> float:
        """Forward/backward/step for one anchor batch; returns its loss."""
        optimizer = loop.optimizer
        optimizer.zero_grad()
        seeds: List[Tensor] = []
        if views is not None:
            for view, sampler in zip(views, samplers):
                block = sampler.sample(batch, rng=self._sampler_rng)
                h = self._block_forward(
                    block.a_n, view.features[block.nodes])
                seeds.append(ops.gather_rows(
                    h, np.searchsorted(block.nodes, batch)))
        else:
            block = self._base_sampler.sample(batch, rng=self._sampler_rng)
            features = self._store.gather(block.nodes)
            for _ in range(2):
                a_n, feats = self._corrupt_block(
                    block, features, self._local_view_rng)
                h = self._block_forward(a_n, feats)
                seeds.append(ops.gather_rows(
                    h, np.searchsorted(block.nodes, batch)))
        loss = self._loss(seeds[0], seeds[1],
                          weights=self._weight_by_node[batch])
        loss.backward()
        optimizer.step()
        return float(loss.item())

    def run_epoch(self, loop, epoch: int) -> float:
        """Mini-batched epoch; returns the anchor-weighted mean batch loss."""
        if self.scale.view_mode == "global":
            views, samplers = self._global_view_samplers(epoch)
        else:
            views, samplers = None, None
        batches = self._epoch_batches()
        emit_metric("scale.epoch.batches", float(len(batches)))
        with span("scale.epoch"):
            if len(batches) == 1:
                # Exact fallback: report the single batch loss as-is so the
                # dense trajectory comparison sees the identical float.
                return self._batch_step(loop, batches[0], views, samplers)
            total = 0.0
            weight = 0.0
            for batch in batches:
                batch_loss = self._batch_step(loop, batch, views, samplers)
                w = float(self._weight_by_node[batch].sum())
                total += batch_loss * w
                weight += w
        return total / max(weight, 1e-12)
