"""Serving resilience: admission control, deadlines, health, retries.

Four small, composable pieces keep the serving tier standing under load
instead of collapsing into an unbounded queue:

* :class:`TokenBucket` + :class:`AdmissionController` — a rate limiter and
  an inflight-watermark gate in front of ``EmbeddingServer.handle``.  Work
  beyond capacity is *shed* with a structured ``overloaded`` envelope
  carrying ``retry_after_ms``, so goodput stays near saturation while
  excess demand backs off (load shedding beats queueing: a queue deeper
  than the deadline budget serves nobody).
* :class:`Deadline` — a per-request latency budget (``deadline_ms``)
  checked at admission, at batcher dequeue, and immediately pre-encode.
  Expired work is dropped, never computed; every drop is counted per
  stage in :class:`~repro.serve.metrics.ServeMetrics`.
* :class:`ServerHealth` — a warming → ready → degraded → draining state
  machine fed by snapshot failures, the recent shed rate, and a p99
  latency watermark; backs the ``health``/``ready`` server ops and gates
  blue/green rollouts.
* :class:`RetryPolicy` — client-side capped exponential backoff with
  seeded jitter that honors the server's ``retry_after_ms`` hint and
  retries only idempotent ops (reads; never ``rollout``/``rollback``).

Everything takes an injectable ``clock`` so the chaos tier can test
timing behavior deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from ..obs import emit_event
from .errors import DeadlineExceededError, NotReadyError, OverloadedError
from .metrics import ServeMetrics


class TokenBucket:
    """Classic token-bucket rate limiter (thread-safe, lazily refilled).

    ``rate`` tokens accrue per second up to ``burst``; :meth:`try_acquire`
    either takes a token (returns ``0.0``) or returns the seconds until
    one will be available — which the admission gate converts into the
    ``retry_after_ms`` hint clients back off by.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/s")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` now; return 0.0 on success, else seconds to wait."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate


class AdmissionController:
    """Shed work beyond capacity before it costs anything.

    Two independent gates, both optional:

    * ``rate_limit`` requests/s with ``burst`` headroom (token bucket);
    * ``max_inflight`` concurrently admitted requests (queue watermark —
      the bound that prevents queue collapse under sustained overload).

    :meth:`admit` raises :class:`OverloadedError` with a ``retry_after_ms``
    hint when either gate rejects; otherwise it returns a ticket whose
    ``release()`` (or context-manager exit) frees the inflight slot.
    Every decision lands in ``ServeMetrics`` (``admitted``/``shed``) and
    the ``serve.shed`` obs metric stream.
    """

    def __init__(
        self,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        max_inflight: Optional[int] = None,
        metrics: Optional[ServeMetrics] = None,
        retry_after_ms: float = 50.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.metrics = metrics or ServeMetrics()
        self.retry_after_ms = float(retry_after_ms)
        self.max_inflight = max_inflight
        self._bucket = None
        if rate_limit is not None:
            self._bucket = TokenBucket(rate_limit, burst or max(1.0, rate_limit),
                                       clock=clock)
        self._inflight = 0
        self._lock = threading.Lock()

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def saturated(self) -> bool:
        """True while the inflight watermark is reached (new work sheds)."""
        if self.max_inflight is None:
            return False
        with self._lock:
            return self._inflight >= self.max_inflight

    def admit(self, op: str) -> "AdmissionTicket":
        """Admit one request or raise :class:`OverloadedError` (shed)."""
        if self.max_inflight is not None:
            with self._lock:
                if self._inflight >= self.max_inflight:
                    self.metrics.observe_admission(False)
                    raise OverloadedError(
                        f"server is at its inflight limit "
                        f"({self.max_inflight}); request shed",
                        retry_after_ms=self.retry_after_ms,
                        op=op, inflight=self._inflight,
                    )
                self._inflight += 1
        else:
            with self._lock:
                self._inflight += 1
        if self._bucket is not None:
            wait = self._bucket.try_acquire()
            if wait > 0.0:
                self._release()
                self.metrics.observe_admission(False)
                raise OverloadedError(
                    f"rate limit exceeded ({self._bucket.rate:.0f} req/s); "
                    "request shed",
                    retry_after_ms=max(self.retry_after_ms, wait * 1000.0),
                    op=op,
                )
        self.metrics.observe_admission(True)
        return AdmissionTicket(self)

    def _release(self) -> None:
        with self._lock:
            self._inflight -= 1


class AdmissionTicket:
    """One admitted request's inflight slot (release exactly once)."""

    def __init__(self, controller: AdmissionController):
        self._controller = controller
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release()

    def __enter__(self) -> "AdmissionTicket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Deadline:
    """An absolute expiry derived from a request's ``deadline_ms`` budget.

    The budget starts when the server admits the request; every later
    stage calls :meth:`check` with its name and the request is dropped
    (structured ``deadline_exceeded`` envelope, per-stage counter) the
    moment the budget is gone — expired work never reaches the encoder.
    """

    __slots__ = ("budget_ms", "expires_at", "_clock")

    def __init__(self, budget_ms: float,
                 clock: Callable[[], float] = time.monotonic):
        if not np.isfinite(budget_ms) or budget_ms < 0:
            raise ValueError("deadline_ms must be a finite value >= 0")
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self.expires_at = clock() + budget_ms / 1000.0

    @property
    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def remaining_ms(self) -> float:
        return max(0.0, (self.expires_at - self._clock()) * 1000.0)

    def check(self, stage: str, metrics: Optional[ServeMetrics] = None) -> None:
        """Raise :class:`DeadlineExceededError` (and count it) if expired."""
        if self.expired:
            if metrics is not None:
                metrics.observe_deadline_expired(stage)
            raise DeadlineExceededError(
                f"deadline of {self.budget_ms:.0f}ms expired at {stage}",
                stage=stage, budget_ms=self.budget_ms,
            )


#: Health states, in escalation order.
WARMING = "warming"
READY = "ready"
DEGRADED = "degraded"
DRAINING = "draining"
#: States in which a load balancer should route traffic here.
_ROUTABLE = (READY, DEGRADED)


class ServerHealth:
    """Warming → ready → degraded → draining, derived from live signals.

    * ``warming`` until the first successful workload response
      (:meth:`mark_ready`);
    * ``degraded`` while any signal trips: a snapshot failure within the
      last ``window`` outcomes, the recent shed rate above
      ``shed_rate_threshold``, or the embed p99 above ``p99_watermark_ms``;
    * ``draining`` once :meth:`start_drain` is called (terminal — the
      server stops admitting and flushes).

    Readiness (should a balancer send traffic?) is ``ready`` *or*
    ``degraded``: a degraded server still answers, it is just signalling
    that it is past a watermark.
    """

    def __init__(
        self,
        metrics: Optional[ServeMetrics] = None,
        shed_rate_threshold: float = 0.5,
        p99_watermark_ms: Optional[float] = None,
        window: int = 256,
    ):
        if not 0.0 < shed_rate_threshold <= 1.0:
            raise ValueError("shed_rate_threshold must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.metrics = metrics or ServeMetrics()
        self.shed_rate_threshold = float(shed_rate_threshold)
        self.p99_watermark_ms = p99_watermark_ms
        self.window = int(window)
        self._lock = threading.Lock()
        self._warmed = False
        self._draining = False
        self._outcomes: Deque[bool] = deque(maxlen=window)  # True == shed
        self._outcomes_since_snapshot_failure: Optional[int] = None

    # ------------------------------------------------------------------
    # Signal feeds
    # ------------------------------------------------------------------
    def mark_ready(self) -> None:
        with self._lock:
            if not self._warmed:
                self._warmed = True
                emit_event("serve.health_ready")

    def note_outcome(self, shed: bool) -> None:
        """One admission outcome (sheds drive the windowed shed rate)."""
        with self._lock:
            self._outcomes.append(shed)
            if self._outcomes_since_snapshot_failure is not None:
                self._outcomes_since_snapshot_failure += 1

    def note_snapshot_failure(self) -> None:
        """A snapshot load/compute failed; degrades until it ages out."""
        with self._lock:
            self._outcomes_since_snapshot_failure = 0

    def start_drain(self) -> None:
        with self._lock:
            if not self._draining:
                self._draining = True
                emit_event("serve.health_draining")

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    def _degraded_reasons(self) -> List[str]:
        reasons = []
        since = self._outcomes_since_snapshot_failure
        if since is not None and since < self.window:
            reasons.append(
                f"snapshot failure {since} outcomes ago (window {self.window})")
        if self._outcomes:
            rate = sum(self._outcomes) / len(self._outcomes)
            if rate > self.shed_rate_threshold:
                reasons.append(
                    f"shed rate {rate:.2f} over last {len(self._outcomes)} "
                    f"requests (threshold {self.shed_rate_threshold:.2f})")
        if self.p99_watermark_ms is not None:
            p99 = self.metrics.latency("embed").percentile(99) * 1000.0
            if np.isfinite(p99) and p99 > self.p99_watermark_ms:
                reasons.append(
                    f"embed p99 {p99:.1f}ms above watermark "
                    f"{self.p99_watermark_ms:.1f}ms")
        return reasons

    def _derive(self) -> Tuple[str, List[str]]:
        """The state and its degraded reasons from one reading (lock held)."""
        if self._draining:
            return DRAINING, []
        if not self._warmed:
            return WARMING, []
        reasons = self._degraded_reasons()
        return (DEGRADED if reasons else READY), reasons

    @property
    def state(self) -> str:
        with self._lock:
            return self._derive()[0]

    @property
    def ready(self) -> bool:
        """Whether a load balancer should route traffic here."""
        return self.state in _ROUTABLE

    def readiness(self) -> dict:
        """``ready`` and ``state`` from one derivation (the ``ready`` op)."""
        state = self.state
        return {"ready": state in _ROUTABLE, "state": state}

    def check_admitting(self) -> None:
        """Raise :class:`NotReadyError` when the server no longer admits.

        Only draining stops admission, so this reads the flag alone and
        never derives the full state (the p99 watermark's percentile) on
        the per-request path.
        """
        with self._lock:
            draining = self._draining
        if draining:
            raise NotReadyError("server is draining; not admitting new work",
                                state=DRAINING)

    def describe(self) -> dict:
        """JSON-ready health report (the ``health`` op's payload)."""
        with self._lock:
            state, reasons = self._derive()
            outcomes = len(self._outcomes)
            shed = sum(self._outcomes)
        return {
            "state": state,
            "ready": state in _ROUTABLE,
            "reasons": reasons,
            "window": {"outcomes": outcomes, "shed": shed},
            "shed_rate_threshold": self.shed_rate_threshold,
            "p99_watermark_ms": self.p99_watermark_ms,
        }


class RetryPolicy:
    """Capped exponential backoff with seeded jitter for serve clients.

    Attempt ``k`` waits ``base_ms * 2**k`` (capped at ``cap_ms``) plus
    uniform jitter of up to ``jitter`` of the delay; a server-provided
    ``retry_after_ms`` hint raises the floor.  The jitter stream is
    seeded so retry schedules are reproducible in tests.  Only the error
    codes in ``retryable_codes`` are retried, and clients must further
    gate on op idempotency (see ``IDEMPOTENT_OPS`` in
    :mod:`repro.serve.server`).
    """

    def __init__(
        self,
        max_retries: int = 3,
        base_ms: float = 10.0,
        cap_ms: float = 2000.0,
        jitter: float = 0.5,
        seed: int = 0,
        retryable_codes: tuple = ("overloaded",),
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if base_ms <= 0 or cap_ms < base_ms:
            raise ValueError("need 0 < base_ms <= cap_ms")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_retries = int(max_retries)
        self.base_ms = float(base_ms)
        self.cap_ms = float(cap_ms)
        self.jitter = float(jitter)
        self.retryable_codes = tuple(retryable_codes)
        self._rng = np.random.default_rng(seed)

    def should_retry(self, response: dict, attempt: int) -> bool:
        """Whether a (parsed) error response warrants attempt ``attempt+1``."""
        if attempt >= self.max_retries or response.get("ok"):
            return False
        error = response.get("error") or {}
        return error.get("code") in self.retryable_codes

    def backoff_ms(self, attempt: int,
                   retry_after_ms: Optional[float] = None) -> float:
        """Delay before attempt ``attempt + 1`` (attempt counts from 0)."""
        delay = min(self.cap_ms, self.base_ms * (2.0 ** attempt))
        if retry_after_ms is not None:
            delay = max(delay, float(retry_after_ms))
        if self.jitter:
            delay += delay * self.jitter * float(self._rng.random())
        return min(delay, self.cap_ms * (1.0 + self.jitter))


def request_with_retries(
    send: Callable[[object], dict],
    payload: object,
    policy: RetryPolicy,
    idempotent: bool,
    sleep: Callable[[float], None] = time.sleep,
) -> dict:
    """Drive ``send`` under ``policy``; shared by both transports' clients.

    Non-idempotent payloads are sent exactly once — a retry of ``rollout``
    after an ambiguous failure could double-apply it.
    """
    attempt = 0
    while True:
        response = send(payload)
        if not idempotent or not policy.should_retry(response, attempt):
            return response
        details = (response.get("error") or {}).get("details") or {}
        delay_ms = policy.backoff_ms(attempt, details.get("retry_after_ms"))
        emit_event("serve.client_retry", attempt=attempt,
                   delay_ms=float(delay_ms))
        sleep(delay_ms / 1000.0)
        attempt += 1
