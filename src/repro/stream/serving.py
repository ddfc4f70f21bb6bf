"""Delta-aware serving: apply → invalidate → lazy recompute → refresh.

:class:`StreamCoordinator` is the conductor of the streaming story.  It
owns a :class:`~repro.stream.mutable.MutableGraph` bound to a live
:class:`~repro.serve.EmbeddingServer` and, per delta batch:

1. snapshots the old adjacency (zero-copy — mutation is copy-on-write),
   applies the batch incrementally, and computes the exact L-hop
   :func:`~repro.stream.blast.blast_radius` with L = the deepest
   registered encoder's layer count;
2. rebinds the server to the mutated graph — the store pads resident
   snapshot matrices for added nodes, every cached
   :class:`~repro.serve.InductiveEncoder` swaps its base graph while
   keeping unchanged ``H0`` rows bit-identical, fitted probes drop;
3. invalidates exactly the radius in the
   :class:`~repro.serve.EmbeddingStore` for every registered version —
   rows outside stay untouched byte-for-byte, rows inside recompute
   lazily, all of a version's stale rows in one union-block forward;
4. when the active version is materialized, repairs its stale rows and
   samples drifted nodes (pre-mutation snapshot row vs. repaired row)
   into the :class:`~repro.stream.drift.DriftDetector`.

When the detector trips, :meth:`maybe_refresh` runs a
:class:`~repro.stream.finetune.FineTuneSession` on the current graph and
hands the result to the server's blue/green
:class:`~repro.serve.rollout.ModelRollout` — with a relaxed cosine gate,
because a *genuinely drifted* fine-tuned candidate is supposed to
disagree with the stale active model; the default serving threshold
would auto-rollback exactly the refreshes drift asks for.

:func:`replay_log` drives the whole loop from a JSONL delta log — the
``repro stream --replay`` CLI and ``benchmarks/bench_stream.py`` are
thin shells around it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..obs import emit_metric, span
from ..serve.rollout import SHADOWING
from .blast import blast_radius
from .deltas import Delta, read_delta_log
from .drift import DriftDetector
from .finetune import FineTuneSession
from .mutable import MutableGraph


class StreamCoordinator:
    """Keeps a live :class:`EmbeddingServer` consistent under mutation."""

    def __init__(
        self,
        server,
        mutable: Optional[MutableGraph] = None,
        drift: Optional[DriftDetector] = None,
        drift_sample: int = 8,
        seed: int = 0,
    ):
        self.server = server
        self.mutable = mutable or MutableGraph(server.graph)
        self.drift = drift or DriftDetector()
        self.drift_sample = int(drift_sample)
        self._rng = np.random.default_rng(seed)
        self.batches = 0
        self.refreshes: List[dict] = []

    # ------------------------------------------------------------------
    @property
    def radius_hops(self) -> int:
        """L for the blast radius: the deepest registered encoder."""
        hops = [
            int(version.artifact.num_layers)
            for version in (self.server.registry.get(vid)
                            for vid in self.server.registry.versions())
            if version.inductive
        ]
        return max(hops) if hops else 1

    # ------------------------------------------------------------------
    def apply(self, deltas: Sequence[Delta]) -> dict:
        """Apply one delta batch end-to-end; returns a JSON-ready summary."""
        with span("stream.coordinator_apply", count=len(deltas)):
            old_graph = self.mutable.as_graph()
            result = self.mutable.apply(deltas)
            new_graph = self.mutable.as_graph()
            hops = self.radius_hops
            radius = blast_radius(old_graph.adjacency, new_graph.adjacency,
                                  result.touched, hops)
            emit_metric("stream.blast_radius", float(radius.size),
                        hops=hops, touched=int(result.touched.size))
            # Drift baseline rows must be captured before the store pads /
            # refreshes anything; only already-materialized versions
            # contribute (never force a snapshot just to measure drift).
            before = self._drift_baseline(radius, old_graph.num_nodes)
            self.server.rebind_graph(
                new_graph, refreshed_nodes=result.feature_updates)
            invalidation = {
                vid: self.server.store.invalidate(vid, radius)
                for vid in self.server.registry.versions()
            }
            drift = self._observe_drift(before)
        self.batches += 1
        return {
            "batch": self.batches,
            "deltas": len(deltas),
            "applied": result.applied,
            "conflicts": result.conflicts,
            "edges_added": result.edges_added,
            "edges_removed": result.edges_removed,
            "nodes_added": int(result.added_nodes.size),
            "num_nodes": result.num_nodes,
            "blast_radius": int(radius.size),
            "hops": hops,
            "invalidation": invalidation,
            "drift": drift,
        }

    def _drift_baseline(self, radius: np.ndarray,
                        old_n: int) -> Dict[int, np.ndarray]:
        """Pre-mutation rows for a seeded sample of in-radius nodes."""
        active_id = self.server.registry.get().version_id
        resident = self.server.store.resident_snapshot(active_id)
        if resident is None:
            return {}
        candidates = radius[radius < min(old_n, resident.shape[0])]
        if candidates.size == 0:
            return {}
        take = min(self.drift_sample, candidates.size)
        picked = self._rng.choice(candidates, size=take, replace=False)
        return {int(node): np.array(resident[int(node)]) for node in picked}

    def _observe_drift(self, before: Dict[int, np.ndarray]) -> dict:
        if before:
            # One batched repair heals the whole radius; the sampled rows
            # are then plain reads of the healed matrix.
            healed = self.server.store.snapshot()
            for node, old_row in before.items():
                self.drift.observe(node, old_row, healed[node])
        return self.drift.snapshot()

    # ------------------------------------------------------------------
    def maybe_refresh(
        self,
        checkpoint: Union[str, Path],
        workdir: Union[str, Path],
        extra_epochs: int = 1,
        rollout_knobs: Optional[dict] = None,
        method_kwargs: Optional[dict] = None,
    ) -> Optional[dict]:
        """Fine-tune + blue/green refresh if the drift detector tripped.

        Returns ``None`` when not drifted or while a rollout is already
        shadowing; otherwise the fine-tune info plus the rollout status.
        The refresh goes through the standard shadow-gated rollout — with
        a *relaxed* cosine threshold (default 0.5), since the candidate is
        supposed to diverge from the drifted active model.
        """
        if not self.drift.drifted:
            return None
        rollout = self.server.rollout
        if rollout is not None and rollout.state == SHADOWING:
            return None
        knobs = {"cosine_threshold": 0.5, "min_shadow": 8,
                 "shadow_fraction": 1.0}
        knobs.update(rollout_knobs or {})
        session = FineTuneSession(checkpoint, workdir,
                                  extra_epochs=extra_epochs,
                                  method_kwargs=method_kwargs)
        new_ckpt, info = session.run(self.mutable.as_graph())
        rollout = self.server.start_rollout(str(new_ckpt), **knobs)
        self.drift.mark_refreshed()
        refresh = {"finetune": info, "rollout": rollout.status()}
        self.refreshes.append(refresh)
        return refresh


def replay_log(
    server,
    log: Union[str, Path, Sequence[Delta]],
    batch_size: int = 32,
    probes_per_batch: int = 4,
    checkpoint: Optional[Union[str, Path]] = None,
    workdir: Optional[Union[str, Path]] = None,
    extra_epochs: int = 1,
    drift_threshold: float = 0.9,
    drift_min_samples: int = 8,
    rollout_knobs: Optional[dict] = None,
    start_seq: Optional[int] = None,
    seed: int = 0,
) -> dict:
    """Replay a delta log against a live server, batch by batch.

    After each applied batch a handful of seeded ``embed`` probe requests
    flow through the server — they exercise the lazy recompute path and
    feed shadow traffic to any in-flight rollout — and, when a
    ``checkpoint`` is given, the coordinator may answer drift with a
    fine-tune + rollout.  Returns a JSON-ready run summary (what
    ``repro stream --replay`` prints and ``BENCH_stream.json`` records).
    """
    if isinstance(log, (str, Path)):
        read = read_delta_log(log, start_seq=start_seq)
        deltas, skipped = read.deltas, read.skipped
    else:
        deltas, skipped = list(log), 0
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    coordinator = StreamCoordinator(
        server,
        drift=DriftDetector(threshold=drift_threshold,
                            min_samples=drift_min_samples),
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    batches: List[dict] = []
    probe_failures = 0
    started = time.perf_counter()
    for lo in range(0, len(deltas), batch_size):
        summary = coordinator.apply(deltas[lo:lo + batch_size])
        n = coordinator.mutable.num_nodes
        for _ in range(probes_per_batch):
            response = server.handle(
                {"op": "embed", "node": int(rng.integers(n))})
            if not response.get("ok"):
                probe_failures += 1
        if checkpoint is not None and workdir is not None:
            refresh = coordinator.maybe_refresh(
                checkpoint, workdir, extra_epochs=extra_epochs,
                rollout_knobs=rollout_knobs)
            if refresh is not None:
                summary["refresh"] = refresh
        batches.append(summary)
    elapsed = time.perf_counter() - started
    applied = sum(b["applied"] for b in batches)
    rollout = server.rollout
    return {
        "batches": batches,
        "num_batches": len(batches),
        "deltas_read": len(deltas),
        "deltas_applied": applied,
        "deltas_skipped": skipped,
        "conflicts": sum(b["conflicts"] for b in batches),
        "probe_failures": probe_failures,
        "elapsed_s": elapsed,
        "deltas_per_s": applied / elapsed if elapsed > 0 else None,
        "final_nodes": coordinator.mutable.num_nodes,
        "final_edges": coordinator.mutable.num_edges,
        "drift": coordinator.drift.snapshot(),
        "refreshes": len(coordinator.refreshes),
        "rollout": rollout.status() if rollout is not None else None,
    }
