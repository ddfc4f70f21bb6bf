"""Embedding store: precomputed full-graph snapshots + a per-node LRU.

Consistency model: a snapshot is the frozen encoder applied to the whole
served graph exactly as the offline ``embed`` path would — the same
arrays, the same op order — so served embeddings are bit-identical to
offline ones for any node.  Snapshots are immutable and content-addressed
by model version (which is itself content-addressed by checkpoint digest),
so a cache entry can never be stale with respect to its version: version
ids change when weights change.

Persistence: with a ``snapshot_dir``, each snapshot is written crash-safely
(``atomic_savez``) with the engine's SHA-256 digest convention.  On reload
the store accepts only digest-valid files whose recorded model fingerprint
matches the registered version — a process killed mid-snapshot leaves
either a valid older file or a temp file that is ignored, and a corrupt
file is skipped and recomputed (the same recovery contract as training
checkpoints).
"""

from __future__ import annotations

import struct
import threading
import zipfile
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..engine import (
    atomic_savez,
    pack_json,
    payload_digest,
    unpack_json,
)
from ..graphs import Graph
from ..obs import emit_event, span
from .errors import (
    MalformedQueryError,
    SnapshotError,
    StaleVersionError,
    UnknownNodeError,
)
from .metrics import ServeMetrics
from .registry import ModelRegistry, ModelVersion

_SNAPSHOT_PREFIX = "emb-"

#: Everything a corrupt ``.npz`` can raise mid-read: zip structure errors
#: surface as ``BadZipFile``/``OSError``/``EOFError``/``struct.error``,
#: flipped bytes in a compressed member as ``zlib.error``, and mangled
#: array headers as ``ValueError``/``KeyError``.  A snapshot read must
#: convert *all* of these into a structured rejection — under concurrent
#: readers a half-written or bit-rotted file is an expected input, not an
#: internal error.
_CORRUPT_READ_ERRORS = (OSError, ValueError, KeyError, EOFError,
                        zipfile.BadZipFile, zlib.error, struct.error)


class EmbeddingStore:
    """Versioned full-graph embedding snapshots with an LRU node cache.

    The LRU is keyed ``(model_version, node_id)`` and fronts the snapshot
    matrices: with many versions resident the matrices can be dropped
    (:meth:`evict_snapshot`) while hot nodes stay cached, and the hit/miss
    counters feed the serving cache-hit-rate metric.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        graph: Graph,
        cache_size: int = 4096,
        snapshot_dir: Optional[Union[str, Path]] = None,
        metrics: Optional[ServeMetrics] = None,
        health=None,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.registry = registry
        self.graph = graph
        self.cache_size = cache_size
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.metrics = metrics or ServeMetrics()
        #: Optional :class:`~repro.serve.resilience.ServerHealth` fed by
        #: snapshot rejections and failures (set by the server).
        self.health = health
        self._snapshots: Dict[str, np.ndarray] = {}
        self._lru: "OrderedDict[Tuple[str, int], np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self._compute_locks: Dict[str, threading.Lock] = {}
        # Streaming state: rows invalidated by a blast radius, per version,
        # each mapped to the stamp of the latest invalidation that marked
        # it (stamps only grow, so a repair can tell whether a row was
        # re-invalidated while it was being computed); the batched
        # recompute path (the server installs its inductive encoder); and
        # whether the served graph has mutated since start (which disables
        # on-disk snapshots — they describe the old graph).
        self._stale: Dict[str, Dict[int, int]] = {}
        self._stamp = 0
        self._row_computer: Optional[
            Callable[[str, np.ndarray], np.ndarray]] = None
        self._mutated = False
        if self.snapshot_dir is not None:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, version_id: Optional[str] = None) -> np.ndarray:
        """Full-graph embedding matrix for a version (computed once).

        Resolution order: in-memory → digest-valid file in
        ``snapshot_dir`` → recompute (and persist).  The returned array is
        the live snapshot; callers must not mutate it.

        Rows invalidated by a graph mutation (:meth:`invalidate`) are
        repaired before the matrix is handed out: by one call to the
        registered row computer when one exists — warm rows stay untouched
        bit-for-bit — or by a full recompute on the current graph
        otherwise.  A row invalidated again while the repair runs stays
        stale and is repaired on a later read.
        """
        version = self.registry.get(version_id)
        vid = version.version_id
        with self._lock:
            cached = self._snapshots.get(vid)
            has_stale = bool(self._stale.get(vid))
            if cached is not None and not has_stale:
                return cached
            # One materializer per version: concurrent first-touch queries
            # would otherwise duplicate the full-graph forward and race the
            # same snapshot filename.
            compute_lock = self._compute_locks.setdefault(
                vid, threading.Lock())
        with compute_lock:
            with self._lock:
                cached = self._snapshots.get(vid)
                pending = dict(self._stale.get(vid, {}))
                stamp = self._stamp
            if cached is not None and not pending:
                return cached
            if cached is not None and self._row_computer is not None:
                # Lazy repair: recompute only the stale rows, all in one
                # call; every other row of the resident matrix is left
                # untouched.
                return self._repair(vid, pending, cached)[1]
            loaded = self._load_snapshot(version)
            if loaded is None:
                try:
                    with span("serve.snapshot_compute",
                              version=vid):
                        loaded = version.artifact.embed(self.graph)
                except Exception as exc:  # noqa: BLE001 - structured below
                    # A model that cannot embed the served graph must fail
                    # as a structured envelope, not a raw traceback across
                    # the transport.
                    self._note_failure(version, f"recompute failed: {exc}")
                    raise SnapshotError(
                        f"cannot materialize snapshot for "
                        f"{vid}: {exc}",
                        version=vid,
                    ) from exc
                self._persist_snapshot(version, loaded)
            with self._lock:
                self._snapshots[vid] = loaded
                # A full materialization ran on the current graph, so it
                # is fresh up to every invalidation made before it began.
                stale = self._stale.get(vid, {})
                for node in [n for n, s in stale.items() if s <= stamp]:
                    del stale[node]
                if not stale:
                    self._stale.pop(vid, None)
        return loaded

    def _note_failure(self, version: ModelVersion, reason: str) -> None:
        """Count a snapshot failure and degrade health (if attached)."""
        self.metrics.observe_snapshot_failure()
        if self.health is not None:
            self.health.note_snapshot_failure()
        emit_event("serve.snapshot_failed", version=version.version_id,
                   reason=reason)

    def evict_snapshot(self, version_id: str) -> None:
        """Drop a version's in-memory matrix (LRU entries survive)."""
        with self._lock:
            self._snapshots.pop(version_id, None)

    def _snapshot_path(self, version: ModelVersion) -> Optional[Path]:
        if self.snapshot_dir is None:
            return None
        return self.snapshot_dir / f"{_SNAPSHOT_PREFIX}{version.version_id}.npz"

    def _persist_snapshot(self, version: ModelVersion, embeddings: np.ndarray) -> None:
        path = self._snapshot_path(version)
        if path is None or self._mutated:
            # After a graph mutation the on-disk layout describes a graph
            # that no longer exists; never overwrite those files with
            # mutated-graph matrices under the same name.
            return
        payload = {
            "embeddings": np.ascontiguousarray(embeddings),
            "meta/snapshot": pack_json({
                "version": version.version_id,
                "fingerprint": version.artifact.fingerprint,
                "num_nodes": int(embeddings.shape[0]),
                # Serving precision: snapshots written by a float32 process
                # reload as float32 even in a float64 reader (and vice
                # versa), keeping cached and recomputed embeddings
                # byte-comparable per version.
                "dtype": str(embeddings.dtype),
            }),
        }
        payload["meta/digest"] = np.frombuffer(
            payload_digest(payload).encode(), dtype=np.uint8
        )
        atomic_savez(path, payload)
        emit_event("serve.snapshot_written", version=version.version_id,
                   path=str(path))

    def _reject(self, version: ModelVersion, path: Path,
                reason: str) -> None:
        """Record a rejected (corrupt/mismatched) snapshot file.

        Rejection is recoverable — the caller recomputes — but it is a
        health signal: bit rot under a live server degrades it until the
        incident ages out of the health window.
        """
        emit_event("serve.snapshot_rejected", version=version.version_id,
                   path=str(path), reason=reason)
        self.metrics.observe_snapshot_failure()
        if self.health is not None:
            self.health.note_snapshot_failure()

    def _load_snapshot(self, version: ModelVersion) -> Optional[np.ndarray]:
        """Digest-valid snapshot from disk, or None (corrupt files skipped).

        The *entire* read — zip open, member decompression, digest check,
        meta parse, dtype restore — sits under one corrupt-read guard:
        a reader racing bit rot or a torn write gets a structured
        rejection (and a recompute), never a raw ``zlib.error`` or
        ``KeyError`` escaping to the client.
        """
        path = self._snapshot_path(version)
        if path is None or not path.is_file() or self._mutated:
            # A digest-valid file written before a graph mutation is
            # perfectly healthy — and wrong: it was computed against the
            # old graph.  Once mutated, disk snapshots are dead to us.
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                contents = {key: data[key] for key in data.files}
            if "meta/digest" not in contents:
                self._reject(version, path, "missing digest")
                return None
            stored = bytes(contents["meta/digest"]).decode(errors="replace")
            if stored != payload_digest(contents):
                self._reject(version, path, "digest mismatch")
                return None
            meta = unpack_json(contents["meta/snapshot"])
            if meta.get("fingerprint") != version.artifact.fingerprint:
                # Same version id but different weights can only happen if
                # the directory is shared across incompatible registries;
                # refuse.
                self._reject(version, path, "fingerprint mismatch")
                return None
            embeddings = np.asarray(contents["embeddings"])
            recorded = meta.get("dtype")
            if recorded is not None and str(embeddings.dtype) != recorded:
                embeddings = embeddings.astype(recorded)
        except _CORRUPT_READ_ERRORS as exc:
            self._reject(version, path, f"unreadable: {exc}")
            return None
        return embeddings

    def verify_snapshot_file(self, path: Union[str, Path]) -> bool:
        """Whether a snapshot file is readable and digest-valid."""
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                contents = {key: data[key] for key in data.files}
        except _CORRUPT_READ_ERRORS:
            return False
        if "meta/digest" not in contents:
            return False
        stored = bytes(contents["meta/digest"]).decode(errors="replace")
        return stored == payload_digest(contents)

    def persist_all(self) -> int:
        """Write every in-memory snapshot that is not (validly) on disk.

        The graceful-drain path: a server shutting down persists its
        materialized snapshots so a restarted process serves identical
        embeddings from disk instead of recomputing.  Returns the number
        of files written; a no-op without a ``snapshot_dir``.
        """
        if self.snapshot_dir is None or self._mutated:
            return 0
        with self._lock:
            resident = dict(self._snapshots)
        written = 0
        for version_id, embeddings in resident.items():
            try:
                version = self.registry.get(version_id)
            except StaleVersionError:
                continue  # e.g. a rolled-back candidate still resident
            path = self._snapshot_path(version)
            if path is not None and path.is_file() \
                    and self.verify_snapshot_file(path):
                continue
            self._persist_snapshot(version, embeddings)
            written += 1
        return written

    # ------------------------------------------------------------------
    # Streaming: blast-radius invalidation + lazy batched repair
    # ------------------------------------------------------------------
    def set_row_computer(
        self, fn: Optional[Callable[[str, np.ndarray], np.ndarray]]
    ) -> None:
        """Register the batched recompute path for stale rows.

        ``fn(version_id, nodes) -> rows`` takes an int64 vector of node
        ids and returns a ``(len(nodes), d)`` matrix whose row ``i`` is
        exactly what a full offline embed of the *current* graph puts in
        row ``nodes[i]``.  A full :meth:`snapshot` repairs every stale row
        of a version with one call; a stale single-row read passes one
        id.  The server installs :meth:`InductiveEncoder.encode_nodes`
        here, whose rows equal the full forward at every requested node.
        """
        self._row_computer = fn

    def resident_snapshot(
        self, version_id: Optional[str] = None
    ) -> Optional[np.ndarray]:
        """The in-memory matrix if materialized, else None (never computes)."""
        version = self.registry.get(version_id)
        with self._lock:
            return self._snapshots.get(version.version_id)

    def stale_rows(self, version_id: Optional[str] = None) -> list:
        """Sorted node ids currently awaiting lazy refresh for a version."""
        version = self.registry.get(version_id)
        with self._lock:
            return sorted(self._stale.get(version.version_id, ()))

    def invalidate(self, version_id: Optional[str], node_ids) -> dict:
        """Mark specific rows of a version stale: the blast-radius entry.

        Invalidated rows are dropped from the LRU and recompute lazily on
        their next read (through the registered row computer); every other
        row — resident matrix and LRU alike — is left untouched.  Returns
        a counts dict (``invalidated`` / ``preserved`` / total ``stale``)
        and feeds the same numbers into the serving metrics.
        """
        version = self.registry.get(version_id)
        vid = version.version_id
        nodes = np.unique(np.asarray(node_ids, dtype=np.int64))
        nodes = nodes[(nodes >= 0) & (nodes < self.graph.num_nodes)]
        with self._lock:
            resident = self._snapshots.get(vid)
            total = resident.shape[0] if resident is not None \
                else self.graph.num_nodes
            self._stamp += 1
            stale = self._stale.setdefault(vid, {})
            stale.update(dict.fromkeys(nodes.tolist(), self._stamp))
            for x in nodes.tolist():
                self._lru.pop((vid, x), None)
            stale_now = len(stale)
        invalidated = int(nodes.size)
        preserved = max(int(total) - stale_now, 0)
        self.metrics.observe_invalidation(invalidated, preserved)
        emit_event("serve.rows_invalidated", version=vid,
                   invalidated=invalidated, preserved=preserved)
        return {"invalidated": invalidated, "preserved": preserved,
                "stale": stale_now}

    def rebind_graph(self, graph: Graph) -> None:
        """Swap the served graph for a mutated successor.

        Resident snapshot matrices are padded with zero rows for added
        nodes — into a *new* array, so matrices handed out before the
        mutation stay frozen — and the padded rows are marked stale.  From
        here on disk snapshots are disabled (they describe the old graph)
        and warm rows survive untouched until something invalidates them.
        """
        n = graph.num_nodes
        with self._lock:
            self.graph = graph
            self._mutated = True
            self._stamp += 1
            for vid, snap in list(self._snapshots.items()):
                old_n = snap.shape[0]
                if old_n < n:
                    pad = np.zeros((n - old_n, snap.shape[1]),
                                   dtype=snap.dtype)
                    self._snapshots[vid] = np.vstack([snap, pad])
                    self._stale.setdefault(vid, {}).update(
                        dict.fromkeys(range(old_n, n), self._stamp))
        self.metrics.observe_graph_rebind()
        emit_event("serve.graph_rebind", num_nodes=n)

    def _repair(self, vid: str, pending: Dict[int, int],
                fallback: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Recompute ``pending`` rows in one call and heal the resident matrix.

        ``pending`` maps each node to the stamp it was stale under when
        the repair began.  Only rows still stale under that same stamp are
        written back and cleared: a row re-invalidated while the row
        computer ran was computed against superseded state, so it stays
        stale for a later repair.  Returns the computed rows and the
        matrix the fresh rows went into (the resident one, else
        ``fallback``).
        """
        nodes = np.fromiter(sorted(pending), dtype=np.int64,
                            count=len(pending))
        with span("serve.stale_repair", version=vid, rows=int(nodes.size)):
            rows = np.asarray(self._row_computer(vid, nodes))
        with self._lock:
            stale = self._stale.get(vid, {})
            fresh = np.fromiter(
                (stale.get(node) == pending[node] for node in nodes.tolist()),
                dtype=bool, count=nodes.size)
            target = self._snapshots.get(vid, fallback)
            if target is not None:
                target[nodes[fresh]] = rows[fresh]
            for node in nodes[fresh].tolist():
                del stale[node]
            if not stale:
                self._stale.pop(vid, None)
        self.metrics.observe_stale_refresh(int(nodes.size))
        return rows, target

    def _refresh_row(self, version: ModelVersion, node: int) -> np.ndarray:
        """Recompute one stale row (and heal the resident matrix)."""
        vid = version.version_id
        if self._row_computer is None:
            # No row computer registered: fall back to a full recompute on
            # the current graph (standalone-store usage).
            with self._lock:
                self._snapshots.pop(vid, None)
            return np.array(self.snapshot(vid)[node])
        with self._lock:
            stamp = self._stale.get(vid, {}).get(node)
        if stamp is None:  # a concurrent repair already healed the row
            return np.array(self.snapshot(vid)[node])
        rows, _ = self._repair(vid, {node: stamp})
        return np.array(rows[0])

    # ------------------------------------------------------------------
    # Per-node reads (LRU front)
    # ------------------------------------------------------------------
    def embedding(self, node_id: int, version_id: Optional[str] = None) -> np.ndarray:
        """One node's embedding under a version, through the LRU cache.

        Stale rows (see :meth:`invalidate`) bypass the LRU and recompute
        through the registered row computer before being re-cached."""
        version = self.registry.get(version_id)
        node = self._check_node(node_id)
        key = (version.version_id, node)
        with self._lock:
            stale_set = self._stale.get(version.version_id)
            is_stale = stale_set is not None and node in stale_set
            hit = None if is_stale else self._lru.get(key)
            if hit is not None:
                self._lru.move_to_end(key)
            stamp = self._stamp
        if hit is not None:
            self.metrics.observe_cache(True)
            return hit
        self.metrics.observe_cache(False)
        if is_stale:
            row = self._refresh_row(version, node)
        else:
            row = np.array(self.snapshot(version.version_id)[node])
        with self._lock:
            # An invalidation since this read began may have superseded
            # the row; caching it would outlive that row's repair.
            if self._stamp == stamp:
                self._lru[key] = row
                self._lru.move_to_end(key)
                while len(self._lru) > self.cache_size:
                    self._lru.popitem(last=False)
        return row

    def _check_node(self, node_id) -> int:
        if isinstance(node_id, bool) or not isinstance(node_id, (int, np.integer)):
            raise MalformedQueryError(
                f"node id must be an integer, got {type(node_id).__name__}",
                node=repr(node_id),
            )
        node = int(node_id)
        if not 0 <= node < self.graph.num_nodes:
            raise UnknownNodeError(
                f"node {node} is outside the served graph "
                f"(0..{self.graph.num_nodes - 1})",
                node=node, num_nodes=self.graph.num_nodes,
            )
        return node

    @property
    def cached_nodes(self) -> int:
        with self._lock:
            return len(self._lru)
