"""``repro.obs`` — structured run telemetry (spans, metrics, manifests).

One observability layer for every run: a :class:`Tracer` records nested
wall-clock spans, per-epoch metric series, and a provenance manifest as
JSONL; :class:`TraceHook` / :class:`MetricsHook` plug it into the training
engine's hook pipeline so E2GCL and all registered baselines emit traces
with no per-method code.  :func:`span` is also the library's only
wall-clock instrumentation: the hot paths (selection, scores, view
sampling, engine setup/epochs, serving, streaming) open their spans
through it, so they land in whichever tracer is active.

Quickstart::

    from repro.obs import MetricsHook, TraceHook, Tracer, build_manifest

    tracer = Tracer("run.jsonl")
    method.fit(graph, hooks=[
        TraceHook(tracer, manifest=build_manifest(seed=0, graph=graph)),
        MetricsHook(tracer),
    ])
    tracer.close()

    from repro.obs import render_summary, summarize_trace
    print(render_summary(summarize_trace("run.jsonl")))   # == `repro trace`

When no tracer is active, the module-level :func:`span` /
:func:`emit_metric` helpers cost one global read and no clock calls, so
instrumentation stays in the hot paths permanently.
"""

from .hooks import MetricsHook, TraceHook
from .manifest import build_manifest, dataset_fingerprint, jsonable, package_versions
from .summary import (
    SpanStat,
    TraceSummary,
    read_events,
    render_summary,
    summarize_events,
    summarize_trace,
)
from .tracer import Tracer, current_tracer, emit_event, emit_metric, span

__all__ = [
    "Tracer",
    "current_tracer",
    "span",
    "emit_metric",
    "emit_event",
    "TraceHook",
    "MetricsHook",
    "build_manifest",
    "dataset_fingerprint",
    "package_versions",
    "jsonable",
    "read_events",
    "summarize_events",
    "summarize_trace",
    "render_summary",
    "TraceSummary",
    "SpanStat",
]
