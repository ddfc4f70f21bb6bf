"""Trace summarization: aggregation, epoch table, rendering, parse errors."""

import pytest

from repro.obs import (
    SpanStat,
    Tracer,
    read_events,
    render_summary,
    summarize_events,
    summarize_trace,
)

EVENTS = [
    {"type": "manifest", "seed": 3, "method": "grace",
     "dataset": {"name": "cora", "num_nodes": 35, "sha256": "ab" * 32},
     "packages": {"repro": "1.0.0", "numpy": "2.0"}},
    {"type": "span", "name": "setup", "id": 1, "parent": 2, "depth": 1,
     "t_start": 0.0, "seconds": 0.5},
    {"type": "span", "name": "epoch", "id": 3, "parent": 2, "depth": 1,
     "t_start": 0.5, "seconds": 0.2, "epoch": 0},
    {"type": "span", "name": "epoch", "id": 4, "parent": 2, "depth": 1,
     "t_start": 0.7, "seconds": 0.4, "epoch": 1},
    {"type": "span", "name": "run", "id": 2, "parent": None, "depth": 0,
     "t_start": 0.0, "seconds": 1.1},
    {"type": "metric", "name": "loss", "value": 2.0, "t": 0.7, "epoch": 0},
    {"type": "metric", "name": "loss", "value": 1.5, "t": 1.1, "epoch": 1},
    {"type": "metric", "name": "grad_norm", "value": 0.3, "t": 1.1, "epoch": 1},
    {"type": "metric", "name": "untagged", "value": 9.0, "t": 1.2},
    # Written by older versions (a perf-counter bridge); now skipped.
    {"type": "counter", "name": "scope.epoch", "calls": 2, "seconds": 0.6,
     "peak_bytes": 0},
    {"type": "event", "name": "stop", "t": 1.1, "reason": "done"},
]


class TestSummarizeEvents:
    def test_span_aggregation(self):
        summary = summarize_events(EVENTS)
        epoch = summary.spans["epoch"]
        assert epoch.calls == 2
        assert abs(epoch.total_seconds - 0.6) < 1e-12
        assert abs(epoch.max_seconds - 0.4) < 1e-12
        assert abs(epoch.mean_seconds - 0.3) < 1e-12
        assert summary.num_events == len(EVENTS)

    def test_slowest_spans_order(self):
        summary = summarize_events(EVENTS)
        names = [s.name for s in summary.slowest_spans(2)]
        assert names == ["run", "epoch"]

    def test_epoch_table_joins_series(self):
        rows = summarize_events(EVENTS).epoch_table()
        assert rows == [
            {"epoch": 0, "loss": 2.0},
            {"epoch": 1, "loss": 1.5, "grad_norm": 0.3},
        ]

    def test_manifest_counters_markers(self):
        """Legacy ``counter`` events are skipped: they are neither spans,
        metrics nor markers, and the event count still includes them."""
        summary = summarize_events(EVENTS)
        assert summary.manifest["seed"] == 3
        assert "scope.epoch" not in summary.spans
        assert "scope.epoch" not in summary.metrics
        assert [m["name"] for m in summary.markers] == ["stop"]
        assert summary.markers[0]["reason"] == "done"
        assert summary.num_events == len(EVENTS)

    def test_empty_stream(self):
        summary = summarize_events([])
        assert summary.manifest is None
        assert summary.spans == {} and summary.num_events == 0


class TestRoundTrip:
    def test_tracer_file_through_summarizer(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(path)
        tracer.manifest({"seed": 0})
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.metric("loss", 1.0, epoch=0)
        tracer.close()
        summary = summarize_trace(path)
        assert summary.manifest == {"seed": 0}
        assert summary.spans["inner"].max_depth == 1
        assert summary.epoch_table() == [{"epoch": 0, "loss": 1.0}]

    def test_read_events_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "event", "name": "ok", "t": 0}\n{oops\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_events(path)

    def test_read_events_skips_blank_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"type": "event", "name": "ok", "t": 0}\n\n')
        assert len(read_events(path)) == 1


class TestRenderSummary:
    def test_contains_sections(self):
        text = render_summary(summarize_events(EVENTS))
        assert "dataset cora" in text
        assert "method grace" in text
        assert "seed 3" in text
        assert "slowest spans" in text
        assert "per-epoch metrics" in text
        assert "loss" in text and "grad_norm" in text
        assert "scope.epoch" not in text

    def test_missing_manifest_flagged(self):
        text = render_summary(summarize_events(EVENTS[1:]))
        assert "manifest: MISSING" in text

    def test_top_limits_span_rows(self):
        summary = summarize_events(EVENTS)
        text = render_summary(summary, top=1)
        lines = [l for l in text.splitlines() if l.startswith("  run")]
        assert lines
        assert not any(l.startswith("  setup") for l in text.splitlines())

    def test_span_stat_mean_of_empty(self):
        assert SpanStat("x").mean_seconds == 0.0
