"""Span recorder for the traced run, and the wrappers that feed it.

The recorder keeps one span stack per thread, stamps every span with its
thread id and parent id, and holds finished spans in memory until the run
ends.  A span opened on one thread on behalf of requests waiting on other
threads (the micro-batcher's ``encode_batch``) carries ``links`` to those
requests' spans, so its time is attributed to them as well.

:func:`instrument` wraps the program's public functions at the names their
callers resolve (a module global such as ``repro.core.trainer.
select_coreset``, or a class attribute such as ``EmbeddingStore.
embedding``) and restores the originals on exit.  The program's own
``repro.obs`` tracer stays inactive throughout.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    id: int
    parent: Optional[int]
    name: str
    thread: int
    start: float
    end: float = 0.0
    #: Work done inside the span (rows, deltas, ...); summed per layer.
    count: float = 0.0
    #: Ids of request spans on other threads this span worked for.
    links: Tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Outcomes a span cannot carry (admissions, stale-row reads).
        self.tallies: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Id of the innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1].id if stack else None

    def open(self, name: str, links: Sequence[int] = (),
             start: Optional[float] = None) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].id if stack else None, name,
                    threading.get_ident(),
                    time.perf_counter() if start is None else start,
                    links=tuple(links))
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, links: Sequence[int] = (),
             start: Optional[float] = None) -> Iterator[Span]:
        opened = self.open(name, links, start)
        try:
            yield opened
        finally:
            self.close(opened)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int]) -> None:
        """Record an interval measured elsewhere (e.g. a queue wait)."""
        span = Span(next(self._ids), parent, name, threading.get_ident(),
                    start, end)
        with self._lock:
            self.spans.append(span)

    def tally(self, key: str) -> None:
        with self._lock:
            self.tallies[key] += 1

    def reset(self) -> None:
        """Drop what was recorded so far (e.g. during a warm-up)."""
        with self._lock:
            self.spans = []
            self.tallies = Counter()

    def assert_closed(self) -> None:
        """Every span opened on the calling thread has been closed."""
        if self._stack():
            raise RuntimeError(
                f"unclosed spans: {[s.name for s in self._stack()]}")


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_table(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, count.

    Self time is a span's duration minus the part of it covered by its
    children: spans whose parent it is, plus spans on other threads that
    link to it.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
        for link in span.links:
            children[link].append((span.start, span.end))
    table: Dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - _covered(
            children.get(span.id, []), span.start, span.end)
        row["count"] += span.count
    return dict(table)


def coverage(table: Dict[str, dict], root: str) -> float:
    """Share of the root spans' wall-clock that named child spans cover."""
    row = table.get(root)
    if not row or row["total_s"] <= 0:
        return 0.0
    return 1.0 - row["self_s"] / row["total_s"]


def render_table(table: Dict[str, dict], wall_s: float) -> str:
    lines = [f"{'span':<34}{'calls':>8}{'total_s':>10}{'self_s':>10}"
             f"{'self%':>8}{'count':>10}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<34}{row['calls']:>8}{row['total_s']:>10.4f}"
            f"{row['self_s']:>10.4f}{100 * row['self_s'] / wall_s:>7.1f}%"
            f"{row['count']:>10.0f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Wrapping the program's public functions
# ----------------------------------------------------------------------
def _wrap(recorder: SpanRecorder, fn: Callable, name: str,
          counter: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if counter is not None:
                span.count = float(counter(result))
            return result
    return wrapper


class BatchLinks:
    """Joins requests submitted to the micro-batcher with the batch spans
    that encode them on the batcher thread.

    ``MicroBatcher.submit`` receives ``(version, payload, deadline)``; the
    batcher hands the same payload objects to ``encode_batch``.  The
    payload's identity maps each batched item back to the request span
    that submitted it and to its submit time, which gives the
    ``serve.batcher.wait`` interval (submit → batch start) and the
    ``encode_batch`` span's links.
    """

    def __init__(self) -> None:
        self._pending: Dict[int, Tuple[Optional[int], float]] = {}
        self._lock = threading.Lock()

    def submitted(self, payload, request_span: Optional[int]) -> None:
        with self._lock:
            self._pending[id(payload)] = (request_span, time.perf_counter())

    def take(self, payloads) -> List[Tuple[Optional[int], float]]:
        with self._lock:
            return [self._pending.pop(id(p), (None, time.perf_counter()))
                    for p in payloads]


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Install span wrappers on every layer boundary until exit.

    Besides spans, the wrappers tally admission outcomes (``admitted`` /
    ``shed``) and ``stale_reads``: reads of a row that awaited repair.
    """
    import repro.core.trainer as trainer
    import repro.stream.serving as stream_serving
    from repro.autograd import Tensor
    from repro.autograd.optim import Adam
    from repro.contrast import L2LContrast
    from repro.engine import TrainLoop
    from repro.nn import GCN, LogisticRegressionDecoder, ProjectionHead
    from repro.serve import EmbeddingServer, EmbeddingStore, InProcessClient
    from repro.serve.batcher import MicroBatcher
    from repro.serve.errors import OverloadedError
    from repro.serve.inductive import InductiveEncoder
    from repro.serve.resilience import AdmissionController
    from repro.stream import DriftDetector, MutableGraph, StreamCoordinator

    links = BatchLinks()
    plain = [
        # Training (Alg. 1-3 and the engine around them)
        (trainer, "select_coreset", "core.node_selector.select", None),
        (trainer, "compute_edge_scores", "core.scores.tables", None),
        (trainer, "compute_feature_scores", "core.scores.tables", None),
        (trainer, "generate_global_view_pair", "core.view_generator.views",
         None),
        (GCN, "forward", "nn.forward", None),
        (ProjectionHead, "forward", "nn.forward", None),
        (L2LContrast, "loss", "contrast.loss", None),
        (Tensor, "backward", "autograd.backward", None),
        (Adam, "step", "autograd.optim.step", None),
        (TrainLoop, "run", "engine.loop", None),
        # Serving
        (InProcessClient, "request", "serve.client.request", None),
        (EmbeddingServer, "handle", "serve.server.handle", None),
        (EmbeddingStore, "snapshot", "serve.store.snapshot", None),
        (LogisticRegressionDecoder, "predict_proba", "serve.probe.predict",
         None),
        # Streaming
        (StreamCoordinator, "apply", "stream.coordinator.apply", None),
        (MutableGraph, "apply", "stream.mutable.apply",
         lambda result: result.applied),
        (stream_serving, "blast_radius", "stream.blast.radius",
         lambda radius: radius.size),
        (EmbeddingServer, "rebind_graph", "serve.server.rebind", None),
        (EmbeddingStore, "invalidate", "serve.store.invalidate",
         lambda result: result["invalidated"]),
        (DriftDetector, "observe", "stream.drift", None),
        (DriftDetector, "snapshot", "stream.drift", None),
    ]
    originals = []

    def patch(owner, attr, replacement) -> None:
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for owner, attr, name, counter in plain:
        patch(owner, attr, _wrap(recorder, getattr(owner, attr), name,
                                 counter))

    admit = AdmissionController.admit

    def admit_wrapper(self, op):
        with recorder.span("serve.resilience.admit"):
            try:
                ticket = admit(self, op)
            except OverloadedError:
                recorder.tally("shed")
                raise
        recorder.tally("admitted")
        return ticket

    embedding = EmbeddingStore.embedding

    def embedding_wrapper(self, node_id, version_id=None):
        if node_id in self.stale_rows(version_id):
            recorder.tally("stale_reads")
        with recorder.span("serve.store.embedding"):
            return embedding(self, node_id, version_id)

    set_row_computer = EmbeddingStore.set_row_computer

    def set_row_computer_wrapper(self, fn):
        # The store calls the row computer for every stale row it repairs.
        if fn is not None:
            fn = _wrap(recorder, fn, "serve.store.repair", lambda _: 1)
        return set_row_computer(self, fn)

    submit = MicroBatcher.submit

    def submit_wrapper(self, item, deadline=None):
        links.submitted(item[1], recorder.current())
        return submit(self, item, deadline)

    encode_batch = InductiveEncoder.encode_batch

    def encode_batch_wrapper(self, items):
        pending = links.take(items)
        started = time.perf_counter()
        for request, submitted in pending:
            recorder.add("serve.batcher.wait", submitted, started, request)
        with recorder.span("serve.inductive.encode_batch",
                           links=[r for r, _ in pending if r is not None],
                           start=started) as span:
            span.count = float(len(items))
            return encode_batch(self, items)

    patch(AdmissionController, "admit", admit_wrapper)
    patch(EmbeddingStore, "embedding", embedding_wrapper)
    patch(EmbeddingStore, "set_row_computer", set_row_computer_wrapper)
    patch(MicroBatcher, "submit", submit_wrapper)
    patch(InductiveEncoder, "encode_batch", encode_batch_wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: metric name -> (span name, statistic, unit).  Statistics: ``self_s`` /
#: ``total_s`` summed seconds, ``count`` summed work, and per-call means
#: ``self_ms`` / ``total_ms`` / ``count_per_call``.  A layer a workload
#: does not exercise reports 0.
SPAN_METRICS = {
    "core.node_selector.select_s": ("core.node_selector.select", "self_s", "s"),
    "core.scores.tables_s": ("core.scores.tables", "self_s", "s"),
    "core.view_generator.views_s": ("core.view_generator.views", "self_s", "s"),
    "nn.forward_s": ("nn.forward", "self_s", "s"),
    "autograd.backward_s": ("autograd.backward", "self_s", "s"),
    "contrast.loss_s": ("contrast.loss", "self_s", "s"),
    "autograd.optim.step_s": ("autograd.optim.step", "self_s", "s"),
    "engine.loop_self_s": ("engine.loop", "self_s", "s"),
    "serve.server.handle_self_ms": ("serve.server.handle", "self_ms", "ms"),
    "serve.batcher.wait_ms": ("serve.batcher.wait", "total_ms", "ms"),
    "serve.batcher.occupancy": ("serve.inductive.encode_batch",
                                "count_per_call", "items"),
    "serve.inductive.encode_batch_ms": ("serve.inductive.encode_batch",
                                        "total_ms", "ms"),
    "serve.inductive.rows": ("serve.inductive.encode_batch", "count", "count"),
    "serve.store.embedding_ms": ("serve.store.embedding", "total_ms", "ms"),
    "stream.mutable.apply_s": ("stream.mutable.apply", "self_s", "s"),
    "stream.mutable.deltas_applied": ("stream.mutable.apply", "count", "count"),
    "stream.blast.radius_s": ("stream.blast.radius", "self_s", "s"),
    "stream.blast.radius_rows": ("stream.blast.radius", "count", "count"),
    "serve.server.rebind_s": ("serve.server.rebind", "self_s", "s"),
    "serve.store.invalidate_s": ("serve.store.invalidate", "self_s", "s"),
    "serve.store.rows_invalidated": ("serve.store.invalidate", "count", "count"),
    "serve.store.repair_s": ("serve.store.repair", "total_s", "s"),
    "serve.store.rows_repaired": ("serve.store.repair", "count", "count"),
    "stream.drift_s": ("stream.drift", "self_s", "s"),
}

#: Per-layer metrics a workload supplies itself (tallies, program counters,
#: generator health, and the trace's own coverage and overhead).
EXTRA_METRICS = {
    "serve.resilience.admitted": "count",
    "serve.resilience.shed": "count",
    "serve.store.lru_hit_frac": "frac",
    "serve.store.repair_useful_frac": "frac",
    "gen.late_p99_ms": "ms",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}


def _statistic(row: Optional[dict], statistic: str) -> float:
    if not row or not row["calls"]:
        return 0.0
    return {
        "self_s": row["self_s"],
        "total_s": row["total_s"],
        "count": row["count"],
        "self_ms": 1e3 * row["self_s"] / row["calls"],
        "total_ms": 1e3 * row["total_s"] / row["calls"],
        "count_per_call": row["count"] / row["calls"],
    }[statistic]


def per_layer_metrics(table: Dict[str, dict],
                      extras: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric, as ``{"value", "unit"}``, 0 where idle."""
    out = {name: {"value": _statistic(table.get(span), stat), "unit": unit}
           for name, (span, stat, unit) in SPAN_METRICS.items()}
    for name, unit in EXTRA_METRICS.items():
        out[name] = {"value": float(extras.get(name, 0.0)), "unit": unit}
    return out
