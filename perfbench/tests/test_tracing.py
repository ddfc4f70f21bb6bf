"""Span recorder: per-thread stacks, parents, and self time with links.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import calm_quartile, latency_summary, tail_percentile  # noqa: E402
from tracing import SpanRecorder, coverage, layer_table  # noqa: E402


def test_threads_keep_their_own_stacks():
    recorder = SpanRecorder()
    barrier = threading.Barrier(4)

    def work():
        with recorder.span("outer") as outer:
            barrier.wait(timeout=5)
            with recorder.span("inner") as inner:
                barrier.wait(timeout=5)
            assert inner.parent == outer.id
        recorder.assert_closed()

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span.id: span for span in recorder.spans}
    inners = [span for span in recorder.spans if span.name == "inner"]
    assert len(inners) == 4
    for inner in inners:
        parent = by_id[inner.parent]
        assert parent.name == "outer" and parent.thread == inner.thread
        assert parent.start <= inner.start and inner.end <= parent.end


def test_linked_span_on_another_thread_counts_as_child():
    recorder = SpanRecorder()
    with recorder.span("request") as request:
        def batch():
            with recorder.span("encode", links=[request.id]):
                time.sleep(0.05)

        worker = threading.Thread(target=batch)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    table = layer_table(recorder.spans)
    assert table["encode"]["self_s"] >= 0.05
    assert table["request"]["self_s"] < table["request"]["total_s"] - 0.045
    assert 0.0 < coverage(table, "request") <= 1.0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(48) == 75.0
    assert tail_percentile(400) == 95.0
    assert tail_percentile(1000) == 99.0
    summary = latency_summary([0.001] * 390 + [0.01] * 10, window=200)
    assert summary["tail_percentile"] == 95.0 and summary["slices"] == 2


def test_calm_quartile_ignores_a_busy_stretch():
    # Ten 100-sample slices at 1 ms, then five slowed by half: the median
    # of all samples is the busy speed, the calm quartile the program's own.
    samples = [0.001] * 500 + [0.0015] * 500
    summary = latency_summary(samples, window=100, tail_window=0)
    assert summary["p50_ms"] == pytest.approx(1.0)
    assert summary["tail_ms"] == pytest.approx(1.5)
    assert summary["slices"] == 10 and summary["tail_slices"] == 1
    assert calm_quartile([1.0, 2.0, 3.0, 4.0, 5.0], "higher") == 4.0
