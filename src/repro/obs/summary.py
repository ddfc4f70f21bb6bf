"""Parsing and summarizing JSONL traces (the ``repro trace`` subcommand).

:func:`summarize_trace` folds a trace's event stream into per-span-name
aggregates, metric series, markers, and the manifest;
:func:`render_summary` turns that into the text report the CLI prints:
slowest spans first, then a per-epoch table assembled from the metric
events (loss / elapsed / grad norm / timed-eval accuracy).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union


@dataclass
class SpanStat:
    """Aggregate over every closed span sharing one name."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    max_depth: int = 0

    @property
    def mean_seconds(self) -> float:
        """Average span duration."""
        return self.total_seconds / self.calls if self.calls else 0.0


@dataclass
class TraceSummary:
    """Everything :func:`summarize_trace` extracts from one trace file."""

    manifest: Optional[dict] = None
    spans: Dict[str, SpanStat] = field(default_factory=dict)
    metrics: Dict[str, List[dict]] = field(default_factory=dict)
    markers: List[dict] = field(default_factory=list)
    num_events: int = 0

    def slowest_spans(self, top: int = 10) -> List[SpanStat]:
        """Span aggregates ordered by total time, largest first."""
        ordered = sorted(self.spans.values(), key=lambda s: -s.total_seconds)
        return ordered[:top]

    def epoch_table(self) -> List[dict]:
        """One row per epoch, joining every metric series carrying an
        ``epoch`` attribute (loss, elapsed_seconds, grad_norm, ...)."""
        rows: Dict[int, dict] = {}
        for name, points in self.metrics.items():
            for point in points:
                epoch = point.get("epoch")
                if epoch is None:
                    continue
                rows.setdefault(int(epoch), {"epoch": int(epoch)})[name] = point["value"]
        return [rows[key] for key in sorted(rows)]


def read_events(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL trace file into its event dicts (order preserved)."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
    return events


def summarize_events(events: List[dict]) -> TraceSummary:
    """Fold parsed events into a :class:`TraceSummary`.

    Event kinds it does not know are skipped, e.g. the ``counter`` events
    that traces written by older versions still carry.
    """
    summary = TraceSummary(num_events=len(events))
    for event in events:
        kind = event.get("type")
        if kind == "manifest":
            summary.manifest = {k: v for k, v in event.items() if k != "type"}
        elif kind == "span":
            stat = summary.spans.get(event["name"])
            if stat is None:
                stat = summary.spans[event["name"]] = SpanStat(event["name"])
            stat.calls += 1
            stat.total_seconds += float(event.get("seconds", 0.0))
            stat.max_seconds = max(stat.max_seconds, float(event.get("seconds", 0.0)))
            stat.max_depth = max(stat.max_depth, int(event.get("depth", 0)))
        elif kind == "metric":
            summary.metrics.setdefault(event["name"], []).append(event)
        elif kind == "event":
            summary.markers.append(event)
    return summary


def summarize_trace(path: Union[str, Path]) -> TraceSummary:
    """Read and fold a JSONL trace file."""
    return summarize_events(read_events(path))


def render_summary(summary: TraceSummary, top: int = 12) -> str:
    """The ``repro trace`` text report."""
    lines: List[str] = []
    manifest = summary.manifest
    if manifest:
        dataset = manifest.get("dataset") or {}
        packages = manifest.get("packages") or {}
        bits = []
        if dataset:
            bits.append(f"dataset {dataset.get('name')} "
                        f"({dataset.get('num_nodes')} nodes, "
                        f"sha256 {str(dataset.get('sha256'))[:12]}...)")
        if manifest.get("method"):
            bits.append(f"method {manifest['method']}")
        if manifest.get("seed") is not None:
            bits.append(f"seed {manifest['seed']}")
        if packages:
            bits.append(f"repro {packages.get('repro')} / "
                        f"numpy {packages.get('numpy')}")
        lines.append("manifest: " + "; ".join(bits) if bits else "manifest: (present)")
    else:
        lines.append("manifest: MISSING")
    lines.append(f"{summary.num_events} events")

    slowest = summary.slowest_spans(top)
    if slowest:
        lines.append("\nslowest spans (by total time):")
        name_width = max(len(s.name) for s in slowest)
        for stat in slowest:
            lines.append(
                f"  {stat.name.ljust(name_width)}  "
                f"{stat.total_seconds:9.4f}s / {stat.calls}x  "
                f"(mean {stat.mean_seconds * 1e3:8.2f}ms, "
                f"max {stat.max_seconds * 1e3:8.2f}ms)"
            )

    rows = summary.epoch_table()
    if rows:
        columns = sorted({key for row in rows for key in row} - {"epoch"})
        lines.append("\nper-epoch metrics:")
        header = "  epoch | " + " | ".join(c.rjust(max(len(c), 10)) for c in columns)
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in rows:
            cells = []
            for column in columns:
                value = row.get(column)
                width = max(len(column), 10)
                cells.append((f"{value:.6g}" if value is not None else "-").rjust(width))
            lines.append(f"  {row['epoch']:5d} | " + " | ".join(cells))
    return "\n".join(lines)
