"""Serving metrics: latency histograms, cache hit rate, batch occupancy.

All counters are thread-safe (queries arrive from a thread pool) and are
mirrored into :mod:`repro.obs` as first-class metric series when a tracer
is active — ``serve.latency`` (attributed by op), ``serve.cache`` (hit
0/1), and ``serve.batch_size`` — so a traced serving run can be analysed
with the same ``repro trace`` tooling as training runs.  With no tracer
the obs calls are one global read each.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from ..obs import emit_metric

# Raw samples kept per histogram.  A closed-loop bench at concurrency 32
# stays far below this; past the cap the reservoir halves by keeping every
# other sample so quantiles stay representative without unbounded memory.
_MAX_SAMPLES = 262_144


class LatencyHistogram:
    """Streaming latency recorder with exact quantiles over a reservoir."""

    def __init__(self, name: str):
        self.name = name
        self._samples: List[float] = []
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._count += 1
            self._total += seconds
            self._samples.append(seconds)
            if len(self._samples) > _MAX_SAMPLES:
                self._samples = self._samples[::2]

    def percentile(self, q: float) -> float:
        """Latency at percentile ``q`` (0-100); NaN with no samples."""
        with self._lock:
            if not self._samples:
                return float("nan")
            return float(np.percentile(self._samples, q))

    @property
    def count(self) -> int:
        return self._count

    def summary(self) -> dict:
        with self._lock:
            samples = np.asarray(self._samples, dtype=np.float64)
            count, total = self._count, self._total
        if samples.size == 0:
            return {"count": 0, "mean_s": float("nan"),
                    "p50_s": float("nan"), "p95_s": float("nan"),
                    "p99_s": float("nan")}
        p50, p95, p99 = np.percentile(samples, [50, 95, 99])
        return {
            "count": count,
            "mean_s": total / count,
            "p50_s": float(p50),
            "p95_s": float(p95),
            "p99_s": float(p99),
        }


class ServeMetrics:
    """All serving-side counters for one :class:`EmbeddingServer`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latency: Dict[str, LatencyHistogram] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches = 0
        self.batched_requests = 0
        self.errors: Dict[str, int] = {}
        # Resilience counters (admission control, deadlines, lifecycle).
        self.admitted = 0
        self.shed = 0
        self.deadline_expired: Dict[str, int] = {}
        self.encoded_requests = 0
        self.snapshot_failures = 0
        self.worker_restarts = 0
        self.dirty_shutdown = False
        # Streaming counters (delta-aware invalidation, lazy refresh).
        self.invalidations = 0
        self.invalidated_rows = 0
        self.preserved_rows = 0
        self.stale_refreshes = 0
        self.graph_rebinds = 0

    # ------------------------------------------------------------------
    def latency(self, op: str) -> LatencyHistogram:
        with self._lock:
            hist = self._latency.get(op)
            if hist is None:
                hist = self._latency[op] = LatencyHistogram(op)
            return hist

    def observe(self, op: str, seconds: float) -> None:
        self.latency(op).record(seconds)
        emit_metric("serve.latency", seconds, op=op)

    def observe_cache(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        emit_metric("serve.cache", 1.0 if hit else 0.0)

    def observe_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
        emit_metric("serve.batch_size", float(size))

    def observe_error(self, code: str) -> None:
        with self._lock:
            self.errors[code] = self.errors.get(code, 0) + 1
        emit_metric("serve.error", 1.0, code=code)

    def observe_admission(self, admitted: bool) -> None:
        """One admission decision: accepted into the server, or shed."""
        with self._lock:
            if admitted:
                self.admitted += 1
            else:
                self.shed += 1
        emit_metric("serve.shed" if not admitted else "serve.admitted", 1.0)

    def observe_deadline_expired(self, stage: str) -> None:
        """A request's deadline ran out at ``stage``; its work was dropped."""
        with self._lock:
            self.deadline_expired[stage] = self.deadline_expired.get(stage, 0) + 1
        emit_metric("serve.deadline_expired", 1.0, stage=stage)

    def observe_encoded(self, count: int = 1) -> None:
        """``count`` requests actually reached the encoder forward pass."""
        with self._lock:
            self.encoded_requests += count

    def observe_snapshot_failure(self) -> None:
        with self._lock:
            self.snapshot_failures += 1
        emit_metric("serve.snapshot_failure", 1.0)

    def observe_worker_restart(self) -> None:
        with self._lock:
            self.worker_restarts += 1
        emit_metric("serve.worker_restart", 1.0)

    def observe_invalidation(self, invalidated: int, preserved: int) -> None:
        """One blast-radius invalidation: rows dropped vs. rows kept warm."""
        with self._lock:
            self.invalidations += 1
            self.invalidated_rows += invalidated
            self.preserved_rows += preserved
        emit_metric("serve.invalidated_rows", float(invalidated))
        emit_metric("serve.preserved_rows", float(preserved))

    def observe_stale_refresh(self, count: int = 1) -> None:
        """``count`` stale rows were lazily recomputed on read."""
        with self._lock:
            self.stale_refreshes += count
        emit_metric("serve.stale_refresh", float(count))

    def observe_graph_rebind(self) -> None:
        """The served graph was swapped for a mutated successor."""
        with self._lock:
            self.graph_rebinds += 1
        emit_metric("serve.graph_rebind", 1.0)

    def mark_dirty_shutdown(self) -> None:
        """A shutdown left a worker thread behind (close join timed out)."""
        with self._lock:
            self.dirty_shutdown = True
        emit_metric("serve.dirty_shutdown", 1.0)

    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> Optional[float]:
        with self._lock:
            return _ratio(self.cache_hits, self.cache_hits + self.cache_misses)

    @property
    def shed_rate(self) -> Optional[float]:
        with self._lock:
            return _ratio(self.shed, self.admitted + self.shed)

    @property
    def deadline_expired_total(self) -> int:
        with self._lock:
            return sum(self.deadline_expired.values())

    @property
    def mean_batch_occupancy(self) -> Optional[float]:
        with self._lock:
            return _ratio(self.batched_requests, self.batches)

    def snapshot(self) -> dict:
        """JSON-ready view of every counter (what ``stats`` queries return).

        Every counter is read once under the lock and each rate is derived
        from those same reads, so one reply never mixes values from before
        and after a concurrent ``observe_*``.
        """
        with self._lock:
            latency = {op: h.summary() for op, h in self._latency.items()}
            deadline_expired = dict(self.deadline_expired)
            return {
                "latency": latency,
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "hit_rate": _ratio(self.cache_hits,
                                       self.cache_hits + self.cache_misses),
                },
                "batching": {
                    "batches": self.batches,
                    "batched_requests": self.batched_requests,
                    "mean_occupancy": _ratio(self.batched_requests, self.batches),
                },
                "admission": {
                    "admitted": self.admitted,
                    "shed": self.shed,
                    "shed_rate": _ratio(self.shed, self.admitted + self.shed),
                },
                "deadlines": {
                    "expired": deadline_expired,
                    "expired_total": sum(deadline_expired.values()),
                    "encoded_requests": self.encoded_requests,
                },
                "lifecycle": {
                    "snapshot_failures": self.snapshot_failures,
                    "worker_restarts": self.worker_restarts,
                    "dirty_shutdown": self.dirty_shutdown,
                },
                "streaming": {
                    "invalidations": self.invalidations,
                    "invalidated_rows": self.invalidated_rows,
                    "preserved_rows": self.preserved_rows,
                    "stale_refreshes": self.stale_refreshes,
                    "graph_rebinds": self.graph_rebinds,
                },
                "errors": dict(self.errors),
            }


def _ratio(numerator: int, denominator: int) -> Optional[float]:
    return numerator / denominator if denominator else None
