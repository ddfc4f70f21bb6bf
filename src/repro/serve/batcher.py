"""Request-coalescing microbatcher.

Concurrent queries hit a single queue; one worker thread drains it into
batches and runs one batched encode for each.  Draining is
work-conserving: the worker blocks for the first request, takes whatever
else is already queued (without waiting, up to the ``max_batch`` size
watermark) and dispatches at once.  Batches therefore form from the
requests that arrive while the previous batch encodes, and a lone
request never waits on a timer for company.  The one exception is a
saturated owner: while the server's admission gate sits at its inflight
watermark (``saturated()`` reads true), more admitted requests are on
their way than the queue shows, so a batch keeps collecting for up to
2 ms after its first request.  There the larger batches save encode time
the server is short of.  Callers block on a per-request
:class:`~concurrent.futures.Future`, so the thread-pool front end stays
synchronous while forward passes amortize python/scipy dispatch across the
batch — that amortization is the measured win in ``BENCH_serve.json``.

Failure isolation: the handler receives the whole batch and may return an
``Exception`` instance in any slot; only that request's future fails.  A
handler that raises outright fails every request in the batch with the
same exception — nothing is ever silently dropped.

Resilience (the serving-resilience layer rides here):

* a request submitted with a :class:`~repro.serve.resilience.Deadline`
  is re-checked at *dequeue* — work whose budget expired while queued is
  failed with a structured ``deadline_exceeded`` and never handed to the
  handler (the pre-encode check inside the handler catches the rest);
* :meth:`close` that cannot join the worker within its timeout marks the
  metrics ``dirty_shutdown`` and raises instead of silently leaking a
  thread;
* a dead worker (chaos: :meth:`~repro.resilience.FaultPlan.
  kill_batcher_worker`) is replaced immediately — the drain loop runs
  under a supervisor that starts a fresh worker whenever the old one dies
  with the batcher still open, so futures already queued behind the corpse
  are never stranded.  :meth:`submit` re-checks liveness as a second line
  of defense.  Every replacement is counted in
  ``ServeMetrics.worker_restarts``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence

from ..obs import emit_event
from .errors import DeadlineExceededError
from .metrics import ServeMetrics
from .resilience import Deadline

_STOP = object()
_KILL = object()   # fault injection: worker exits abruptly, queue survives

#: How long a batch keeps collecting after its first request while the
#: owner is saturated.  Without this wait, goodput at and past the
#: inflight watermark ran ~5% lower (docs/PERFORMANCE.md,
#: "Work-conserving micro-batcher").
_SATURATED_LINGER_S = 0.002


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into batched handler calls.

    Parameters
    ----------
    handler:
        ``handler(items) -> results`` with one result per item, in order.
        A result slot may be an ``Exception`` to fail just that item.
    max_batch:
        Size watermark: a batch holds at most this many requests.  Below
        it, a batch is whatever is queued when the worker turns to it.
    saturated:
        ``saturated() -> bool``, the owner's load signal (the server
        passes :meth:`~repro.serve.resilience.AdmissionController.
        saturated`).  While it reads true, a batch below ``max_batch``
        waits up to 2 ms after its first request for more.  ``None``
        (the default) never waits.
    """

    def __init__(
        self,
        handler: Callable[[List[object]], Sequence[object]],
        max_batch: int = 32,
        metrics: Optional[ServeMetrics] = None,
        saturated: Optional[Callable[[], bool]] = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.handler = handler
        self.max_batch = max_batch
        self.metrics = metrics or ServeMetrics()
        self._saturated = saturated
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._worker_lock = threading.Lock()
        self._start_worker()

    def _start_worker(self) -> None:
        """Publish a fresh worker as ``_worker``, then start it.

        Assignment comes first: a started worker may resolve requests at
        once, and by then ``_worker`` must already name it, not the thread
        it replaces.
        """
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, item: object,
               deadline: Optional[Deadline] = None) -> "Future":
        """Enqueue one request; resolve/fail via the returned future.

        ``deadline`` (optional) is re-checked when the worker dequeues the
        request: if the budget expired while queued, the future fails with
        :class:`DeadlineExceededError` and the handler never sees the item.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        with self._worker_lock:
            if not self._worker.is_alive() and not self._closed:
                # Normally the supervisor already replaced a dead worker;
                # this is the backstop for a death it could not see.
                self._restart_worker()
        future: "Future" = Future()
        self._queue.put((item, future, deadline))
        return future

    def _restart_worker(self) -> None:
        """Replace a dead worker (caller holds ``_worker_lock``)."""
        self.metrics.observe_worker_restart()
        emit_event("serve.batcher_worker_restarted")
        self._start_worker()

    def close(self, timeout: float = 5.0) -> None:
        """Drain outstanding requests, then stop the worker.

        A worker that fails to join within ``timeout`` is a *dirty*
        shutdown: the metrics are flagged and a ``RuntimeError`` raised so
        the leak is loud, never silent.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(_STOP)
        with self._worker_lock:
            # A restart in flight publishes and starts its worker before
            # the lock is free; none begins once ``_closed`` is set.
            worker = self._worker
        worker.join(timeout)
        if worker.is_alive():
            self.metrics.mark_dirty_shutdown()
            emit_event("serve.batcher_dirty_shutdown", timeout_s=float(timeout))
            raise RuntimeError(
                f"batcher worker failed to join within {timeout}s; "
                "shutdown is dirty (a worker thread is still running)"
            )

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _inject_worker_death(self) -> None:
        """Chaos hook (see :meth:`repro.resilience.FaultPlan.
        kill_batcher_worker`): the worker exits abruptly at this queue
        position without honoring ``_STOP`` semantics — exactly what an
        uncaught error in the drain loop would look like from outside."""
        self._queue.put(_KILL)

    def _expire(self, entry: tuple) -> bool:
        """Fail a dequeued entry whose deadline lapsed while queued."""
        item, future, deadline = entry
        if deadline is None or not deadline.expired:
            return False
        del item
        self.metrics.observe_deadline_expired("dequeue")
        future.set_exception(DeadlineExceededError(
            f"deadline of {deadline.budget_ms:.0f}ms expired while queued",
            stage="dequeue", budget_ms=deadline.budget_ms,
        ))
        return True

    def _run(self) -> None:
        """Worker entry point: drain under a restart supervisor.

        An abnormal exit (injected kill, or an uncaught bug in the drain
        loop) with the batcher still open starts a replacement worker from
        the dying thread itself — requests already sitting in the queue
        behind the corpse resolve instead of hanging forever.  A normal
        ``_STOP`` exit restarts nothing.
        """
        try:
            clean = self._drain()
        except Exception:  # noqa: BLE001 - a worker bug must not strand the queue
            clean = False
        if not clean and not self._closed:
            with self._worker_lock:
                if not self._closed:
                    self._restart_worker()

    def _drain(self) -> bool:
        """The batching loop; True on a clean ``_STOP`` exit.

        Block for the first request, then take what is already queued.
        Only a saturated owner makes the worker wait on a timer (see
        :meth:`_next`); otherwise it is idle only when the queue is empty.
        """
        while True:
            first = self._queue.get()
            if first is _STOP:
                return True
            if first is _KILL:
                return False  # injected death: abrupt exit, queue left as-is
            if self._expire(first):
                continue
            batch = [first]
            linger_until = time.monotonic() + _SATURATED_LINGER_S
            while len(batch) < self.max_batch:
                entry = self._next(linger_until)
                if entry is None:
                    break
                if entry is _STOP or entry is _KILL:
                    self._dispatch(batch)  # never strand what was collected
                    return entry is _STOP
                if self._expire(entry):
                    continue
                batch.append(entry)
            self._dispatch(batch)

    def _next(self, linger_until: float) -> Optional[object]:
        """The next queue entry for the batch being collected, or ``None``
        to dispatch it now: what is already queued, else — only while the
        owner is saturated and before ``linger_until`` — the next arrival.
        """
        try:
            return self._queue.get_nowait()
        except queue.Empty:
            pass
        if self._saturated is None or not self._saturated():
            return None
        remaining = linger_until - time.monotonic()
        if remaining <= 0:
            return None
        try:
            return self._queue.get(timeout=remaining)
        except queue.Empty:
            return None

    def _dispatch(self, batch: List[tuple]) -> None:
        self.metrics.observe_batch(len(batch))
        items = [item for item, _, _ in batch]
        try:
            results = self.handler(items)
        except Exception as exc:  # noqa: BLE001 - forwarded, never swallowed
            # The future carries the failure to the blocked caller; the
            # worker itself must survive to serve the next batch.
            for _, future, _ in batch:
                future.set_exception(exc)
            return
        if len(results) != len(batch):
            mismatch = RuntimeError(
                f"batch handler returned {len(results)} results "
                f"for {len(batch)} requests"
            )
            for _, future, _ in batch:
                future.set_exception(mismatch)
            return
        for (_, future, _), result in zip(batch, results):
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)
