"""The span-based run tracer behind ``repro.obs``.

A :class:`Tracer` records a stream of JSONL events — nested wall-clock
spans, per-epoch metrics, and a run manifest — either in memory, to a
file, or both.  One tracer at a time can be *active* process-wide; the
library's hot paths (selection, scores, view sampling, engine
setup/epochs, serving, streaming) open their spans through the
module-level :func:`span`, so they land in whichever tracer is active.

Event shapes (one JSON object per line)::

    {"type": "manifest", ...}                       # run provenance
    {"type": "span", "name": ..., "id": n, "parent": m|null, "depth": d,
     "thread": t, "t_start": s, "seconds": s, ...attrs}
    {"type": "metric", "name": ..., "value": v, "t": s, ...attrs}
    {"type": "event", "name": ..., "t": s, ...attrs}  # free-form marker

Span events are emitted when the span *closes* (that is when the duration
is known), so children precede their parents in the stream; ``parent`` ids
recover the nesting.  Each thread keeps its own span stack, so a span's
parent is always the innermost span open on the *same* thread (``thread``
is its ``threading.get_ident()``).  When no tracer is active, the
module-level :func:`span` / :func:`emit_metric` helpers are no-ops
costing one global read — cheap enough to leave in the training loop
permanently.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

_lock = threading.Lock()
_active: Optional["Tracer"] = None


def current_tracer() -> Optional["Tracer"]:
    """The process-wide active tracer, or None when tracing is off."""
    return _active


class _NoopSpan:
    """Shared do-nothing span returned when no tracer is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP = _NoopSpan()


def span(name: str, **attrs):
    """A span on the active tracer; a shared no-op when tracing is off."""
    tracer = _active
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


def emit_metric(name: str, value: float, **attrs) -> None:
    """Record a metric on the active tracer; silently dropped when off."""
    tracer = _active
    if tracer is not None:
        tracer.metric(name, value, **attrs)


def emit_event(name: str, **attrs) -> None:
    """Record a free-form marker on the active tracer; dropped when off."""
    tracer = _active
    if tracer is not None:
        tracer.event(name, **attrs)


class _Span:
    """A live span: context manager that emits its event on exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent", "depth",
                 "thread", "_stack", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = self._stack = tracer._thread_stack()
        self.parent = stack[-1].span_id if stack else None
        self.depth = len(stack)
        self.thread = threading.get_ident()
        self.span_id = next(tracer._span_ids)
        stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        seconds = time.perf_counter() - self._t0
        tracer = self.tracer
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        payload = {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent,
            "depth": self.depth,
            "thread": self.thread,
            "t_start": self._t0 - tracer._origin,
            "seconds": seconds,
        }
        if self.attrs:
            payload.update(self.attrs)
        tracer._emit(payload)


class Tracer:
    """Collects span/metric/manifest events, optionally streaming JSONL.

    Parameters
    ----------
    path:
        Optional JSONL output file; events are appended as they close and
        flushed by :meth:`flush` / :meth:`close`.  Without a path the trace
        lives in :attr:`events` only (handy in tests).

    A tracer is also a context manager: ``with tracer:`` activates it
    process-wide (every module-level :func:`span` flows in) and
    deactivates + flushes on exit.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.events: List[dict] = []
        self._origin = time.perf_counter()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._file = None
        self._closed = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """A nested wall-clock span (use as a context manager)."""
        return _Span(self, name, attrs)

    def metric(self, name: str, value: float, **attrs) -> None:
        """One point of a named series (e.g. ``loss`` at ``epoch=3``)."""
        payload = {
            "type": "metric",
            "name": name,
            "value": float(value),
            "t": time.perf_counter() - self._origin,
        }
        payload.update(attrs)
        self._emit(payload)

    def event(self, name: str, **attrs) -> None:
        """A free-form marker (checkpoint written, stop requested, ...)."""
        payload = {
            "type": "event",
            "name": name,
            "t": time.perf_counter() - self._origin,
        }
        payload.update(attrs)
        self._emit(payload)

    def manifest(self, payload: Dict) -> None:
        """The run manifest (see :func:`repro.obs.build_manifest`)."""
        record = {"type": "manifest"}
        record.update(payload)
        self._emit(record)

    # ------------------------------------------------------------------
    def _thread_stack(self) -> List[_Span]:
        """The calling thread's stack of open spans (innermost last)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, payload: dict) -> None:
        with _lock:
            self.events.append(payload)
            if self.path is not None and not self._closed:
                if self._file is None:
                    self._file = open(self.path, "w", encoding="utf-8")
                json.dump(payload, self._file, separators=(",", ":"),
                          default=_json_default)
                self._file.write("\n")

    # ------------------------------------------------------------------
    # Activation / lifecycle
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether this tracer is the process-wide active one."""
        return _active is self

    def activate(self) -> "Tracer":
        """Install as the process-wide tracer."""
        global _active
        if _active is not None and _active is not self:
            raise RuntimeError("another tracer is already active")
        _active = self
        return self

    def deactivate(self) -> None:
        """Uninstall; a no-op if this tracer is not the active one."""
        global _active
        if _active is self:
            _active = None

    def flush(self) -> None:
        """Push buffered file output to disk (no-op for in-memory traces)."""
        with _lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        """Deactivate and close the output file; further events are
        memory-only."""
        self.deactivate()
        with _lock:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None
            self._closed = True

    def __enter__(self) -> "Tracer":
        return self.activate()

    def __exit__(self, *exc) -> None:
        self.close()


def _json_default(obj):
    """Last-resort JSON encoding for numpy scalars and friends."""
    for attr in ("item",):
        fn = getattr(obj, attr, None)
        if callable(fn):
            return fn()
    return repr(obj)
