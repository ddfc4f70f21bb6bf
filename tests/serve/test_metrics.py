"""Serving metrics: histograms, counters, obs integration."""

import json
import math
import threading

import numpy as np
import pytest

from repro.obs import Tracer
from repro.serve import LatencyHistogram, ServeMetrics


class TestLatencyHistogram:
    def test_percentiles_match_numpy(self):
        hist = LatencyHistogram("embed")
        samples = np.random.default_rng(0).exponential(0.01, size=1000)
        for s in samples:
            hist.record(float(s))
        for q in (50, 95, 99):
            assert hist.percentile(q) == float(np.percentile(samples, q))

    def test_empty_is_nan_not_crash(self):
        hist = LatencyHistogram("embed")
        assert math.isnan(hist.percentile(99))
        summary = hist.summary()
        assert summary["count"] == 0
        assert math.isnan(summary["p99_s"])

    def test_summary_fields(self):
        hist = LatencyHistogram("embed")
        for value in [0.001, 0.002, 0.003]:
            hist.record(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["mean_s"] == (0.001 + 0.002 + 0.003) / 3
        assert summary["p50_s"] == 0.002

    def test_reservoir_caps_memory(self):
        from repro.serve.metrics import _MAX_SAMPLES

        hist = LatencyHistogram("embed")
        for i in range(_MAX_SAMPLES + 10):
            hist.record(float(i))
        assert len(hist._samples) <= _MAX_SAMPLES
        assert hist.count == _MAX_SAMPLES + 10

    def test_thread_safety_counts(self):
        hist = LatencyHistogram("embed")

        def worker():
            for _ in range(500):
                hist.record(0.001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == 2000


class _ObserveDuringRead(ServeMetrics):
    """``ServeMetrics`` that, once armed, lets another thread run
    ``observe`` (waiting up to 0.2 s for it) at the next read of ``counter``.

    A reader that holds the lock blocks that thread until it is done; a
    reader that reads outside the lock sees the counters move mid-reply.
    """

    _pending = None
    writer = None

    def arm(self, counter, observe):
        self._pending = (counter, observe)

    def __getattribute__(self, name):
        pending = object.__getattribute__(self, "_pending")
        if pending is not None and name == pending[0]:
            self._pending = None
            self.writer = threading.Thread(target=pending[1], args=(self,))
            self.writer.start()
            self.writer.join(timeout=0.2)
        return object.__getattribute__(self, name)


class TestServeMetrics:
    @pytest.mark.parametrize("section, counter, observe, consistent", [
        ("cache", "cache_misses", lambda m: m.observe_cache(True),
         lambda s: s["hit_rate"] == s["hits"] / (s["hits"] + s["misses"])),
        ("batching", "batched_requests", lambda m: m.observe_batch(9),
         lambda s: s["mean_occupancy"] == s["batched_requests"] / s["batches"]),
        ("admission", "shed", lambda m: m.observe_admission(True),
         lambda s: s["shed_rate"] == s["shed"] / (s["admitted"] + s["shed"])),
    ])
    def test_snapshot_rates_match_its_counters(self, section, counter, observe,
                                               consistent):
        metrics = _ObserveDuringRead()
        for hit in (True, False, False):
            metrics.observe_cache(hit)
        metrics.observe_batch(4)
        metrics.observe_batch(2)
        for admitted in (True, True, False):
            metrics.observe_admission(admitted)
        metrics.arm(counter, observe)
        snapshot = metrics.snapshot()
        metrics.writer.join(timeout=5)
        assert not metrics.writer.is_alive()
        assert consistent(snapshot[section])
        # The concurrent observation still lands, after the reply.
        assert metrics.snapshot()[section] != snapshot[section]


    def test_cache_hit_rate(self):
        metrics = ServeMetrics()
        assert metrics.cache_hit_rate is None
        metrics.observe_cache(True)
        metrics.observe_cache(False)
        metrics.observe_cache(False)
        assert metrics.cache_hit_rate == 1 / 3

    def test_batch_occupancy(self):
        metrics = ServeMetrics()
        assert metrics.mean_batch_occupancy is None
        metrics.observe_batch(4)
        metrics.observe_batch(2)
        assert metrics.mean_batch_occupancy == 3.0

    def test_snapshot_is_json_ready(self):
        metrics = ServeMetrics()
        metrics.observe("embed", 0.001)
        metrics.observe_cache(True)
        metrics.observe_batch(3)
        metrics.observe_error("unknown_node")
        snapshot = metrics.snapshot()
        json.dumps(snapshot)
        assert snapshot["latency"]["embed"]["count"] == 1
        assert snapshot["errors"]["unknown_node"] == 1

    def test_metrics_reach_active_tracer(self, tmp_path):
        """Latency/cache/batch series land in the obs trace as metrics."""
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(str(path))
        tracer.activate()
        try:
            metrics = ServeMetrics()
            metrics.observe("embed", 0.005)
            metrics.observe_cache(True)
            metrics.observe_batch(7)
        finally:
            tracer.close()
        names = [json.loads(line).get("name")
                 for line in path.read_text().splitlines()]
        assert "serve.latency" in names
        assert "serve.cache" in names
        assert "serve.batch_size" in names
