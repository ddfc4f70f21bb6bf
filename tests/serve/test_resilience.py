"""Unit tier for :mod:`repro.serve.resilience`.

Everything timing-shaped runs on an injected fake clock, so these tests
are deterministic regardless of scheduler jitter — the wall-clock chaos
scenarios live in ``test_chaos.py``.
"""

import pytest

from repro.serve import (
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    NotReadyError,
    OverloadedError,
    RetryPolicy,
    ServeMetrics,
    ServerHealth,
    TokenBucket,
    request_with_retries,
)
from repro.serve.resilience import DEGRADED, DRAINING, READY, WARMING


class FakeClock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_shed_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.1)  # one token at 10/s
        clock.advance(0.1)
        assert bucket.try_acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(60.0)  # idle for a minute: still only `burst` stored
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        assert bucket.try_acquire() > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_inflight_watermark_sheds_and_releases(self):
        metrics = ServeMetrics()
        gate = AdmissionController(max_inflight=2, metrics=metrics)
        t1 = gate.admit("embed")
        t2 = gate.admit("embed")
        with pytest.raises(OverloadedError) as caught:
            gate.admit("embed")
        assert caught.value.details["retry_after_ms"] == caught.value.retry_after_ms
        assert gate.inflight == 2
        t1.release()
        t1.release()  # release is idempotent; the slot frees exactly once
        assert gate.inflight == 1
        gate.admit("embed").release()
        t2.release()
        assert gate.inflight == 0
        assert metrics.admitted == 3 and metrics.shed == 1
        assert metrics.shed_rate == pytest.approx(0.25)

    def test_rate_limit_hint_scales_with_wait(self):
        clock = FakeClock()
        gate = AdmissionController(rate_limit=2.0, burst=1.0,
                                   retry_after_ms=10.0, clock=clock)
        gate.admit("embed").release()
        with pytest.raises(OverloadedError) as caught:
            gate.admit("embed")
        # One token at 2/s is 500ms away: the hint must not undersell it.
        assert caught.value.retry_after_ms == pytest.approx(500.0)

    def test_rate_shed_does_not_leak_inflight(self):
        clock = FakeClock()
        gate = AdmissionController(rate_limit=1.0, burst=1.0,
                                   max_inflight=8, clock=clock)
        gate.admit("embed").release()
        for _ in range(5):
            with pytest.raises(OverloadedError):
                gate.admit("embed")
        assert gate.inflight == 0

    def test_ticket_context_manager(self):
        gate = AdmissionController(max_inflight=1)
        with gate.admit("embed"):
            assert gate.inflight == 1
        assert gate.inflight == 0

    def test_saturated_tracks_the_inflight_watermark(self):
        gate = AdmissionController(max_inflight=2)
        first = gate.admit("embed")
        assert not gate.saturated()
        second = gate.admit("embed")
        assert gate.saturated()
        first.release()
        assert not gate.saturated()
        second.release()
        unbounded = AdmissionController()
        tickets = [unbounded.admit("embed") for _ in range(64)]
        assert not unbounded.saturated()  # no watermark, never saturated
        for ticket in tickets:
            ticket.release()

    def test_unbounded_controller_still_counts(self):
        metrics = ServeMetrics()
        gate = AdmissionController(metrics=metrics)
        for _ in range(4):
            gate.admit("embed").release()
        assert metrics.admitted == 4 and metrics.shed == 0


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_expiry_and_remaining(self):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining_ms() == pytest.approx(100.0)
        clock.advance(0.06)
        assert deadline.remaining_ms() == pytest.approx(40.0)
        clock.advance(0.05)
        assert deadline.expired
        assert deadline.remaining_ms() == 0.0

    def test_check_counts_per_stage(self):
        clock = FakeClock()
        metrics = ServeMetrics()
        deadline = Deadline(10.0, clock=clock)
        deadline.check("admission", metrics)  # within budget: no-op
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError) as caught:
            deadline.check("pre_encode", metrics)
        assert caught.value.stage == "pre_encode"
        assert metrics.deadline_expired == {"pre_encode": 1}
        assert metrics.deadline_expired_total == 1

    def test_validation(self):
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                Deadline(bad)


# ----------------------------------------------------------------------
# ServerHealth
# ----------------------------------------------------------------------
class TestServerHealth:
    def test_warming_until_first_success(self):
        health = ServerHealth()
        assert health.state == WARMING and not health.ready
        health.mark_ready()
        assert health.state == READY and health.ready

    def test_snapshot_failure_degrades_then_ages_out(self):
        health = ServerHealth(window=4)
        health.mark_ready()
        health.note_snapshot_failure()
        assert health.state == DEGRADED
        assert health.ready  # degraded still takes traffic
        for _ in range(4):
            health.note_outcome(shed=False)
        assert health.state == READY

    def test_shed_rate_degrades(self):
        health = ServerHealth(shed_rate_threshold=0.5, window=8)
        health.mark_ready()
        for _ in range(3):
            health.note_outcome(shed=True)
        health.note_outcome(shed=False)
        assert health.state == DEGRADED
        assert any("shed rate" in reason
                   for reason in health.describe()["reasons"])

    def test_p99_watermark_degrades(self):
        metrics = ServeMetrics()
        health = ServerHealth(metrics, p99_watermark_ms=5.0)
        health.mark_ready()
        assert health.state == READY  # no samples yet: NaN p99 never trips
        for _ in range(10):
            metrics.observe("embed", 0.050)
        assert health.state == DEGRADED

    def test_drain_is_terminal_and_rejects(self):
        health = ServerHealth()
        health.mark_ready()
        health.check_admitting()  # ready: admits
        health.start_drain()
        assert health.state == DRAINING and not health.ready
        with pytest.raises(NotReadyError):
            health.check_admitting()
        health.mark_ready()  # cannot resurrect a draining server
        assert health.state == DRAINING

    def test_check_admitting_never_derives_state(self, monkeypatch):
        """The per-request admission check reads the drain flag alone; the
        watermark's percentile (up to 262k samples) stays off that path."""
        from repro.serve.metrics import LatencyHistogram

        metrics = ServeMetrics()
        health = ServerHealth(metrics, p99_watermark_ms=50.0)
        health.mark_ready()
        metrics.observe("embed", 0.010)

        def exploding(self, q):
            raise AssertionError("check_admitting computed a percentile")

        monkeypatch.setattr(LatencyHistogram, "percentile", exploding)
        health.check_admitting()
        health.start_drain()
        with pytest.raises(NotReadyError):
            health.check_admitting()

    def test_describe_derives_state_once(self, monkeypatch):
        """``state``, ``ready`` and ``reasons`` come from one derivation, so
        a signal flipping mid-report cannot make them disagree."""
        health = ServerHealth()
        health.mark_ready()
        answers = iter([["flapping"], []] * 4)
        monkeypatch.setattr(health, "_degraded_reasons",
                            lambda: next(answers))
        for _ in range(4):
            report = health.describe()
            assert report["state"] == (
                DEGRADED if report["reasons"] else READY)
            assert report["ready"] is True

    def test_describe_is_json_shaped(self):
        health = ServerHealth()
        report = health.describe()
        assert report["state"] == WARMING
        assert set(report) == {"state", "ready", "reasons", "window",
                               "shed_rate_threshold", "p99_watermark_ms"}


# ----------------------------------------------------------------------
# RetryPolicy / request_with_retries
# ----------------------------------------------------------------------
def _overloaded(retry_after_ms=20.0):
    return {"ok": False, "error": {"code": "overloaded", "message": "shed",
                                   "details": {"retry_after_ms": retry_after_ms}}}


class TestRetryPolicy:
    def test_should_retry_gates_on_code_and_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(_overloaded(), 0)
        assert policy.should_retry(_overloaded(), 1)
        assert not policy.should_retry(_overloaded(), 2)
        assert not policy.should_retry({"ok": True}, 0)
        assert not policy.should_retry(
            {"ok": False, "error": {"code": "unknown_node"}}, 0)

    def test_backoff_grows_capped_and_honors_hint(self):
        policy = RetryPolicy(base_ms=10.0, cap_ms=80.0, jitter=0.0)
        delays = [policy.backoff_ms(k) for k in range(5)]
        assert delays == [10.0, 20.0, 40.0, 80.0, 80.0]
        assert policy.backoff_ms(0, retry_after_ms=55.0) == 55.0

    def test_jitter_is_seeded(self):
        a = [RetryPolicy(seed=7).backoff_ms(k) for k in range(4)]
        b = [RetryPolicy(seed=7).backoff_ms(k) for k in range(4)]
        c = [RetryPolicy(seed=8).backoff_ms(k) for k in range(4)]
        assert a == b
        assert a != c

    def test_request_with_retries_recovers(self):
        responses = [_overloaded(15.0), _overloaded(15.0), {"ok": True, "n": 3}]
        sent, slept = [], []

        def send(payload):
            sent.append(payload)
            return responses[len(sent) - 1]

        policy = RetryPolicy(max_retries=3, base_ms=10.0, jitter=0.0)
        out = request_with_retries(send, {"op": "embed"}, policy,
                                   idempotent=True, sleep=slept.append)
        assert out == {"ok": True, "n": 3}
        assert len(sent) == 3
        # Both waits floor at the server's 15ms hint (base 10ms is below it).
        assert slept[0] == pytest.approx(0.015)
        assert len(slept) == 2

    def test_non_idempotent_sends_exactly_once(self):
        sent = []

        def send(payload):
            sent.append(payload)
            return _overloaded()

        policy = RetryPolicy(max_retries=5, jitter=0.0)
        out = request_with_retries(send, {"op": "rollout"}, policy,
                                   idempotent=False,
                                   sleep=lambda s: pytest.fail("slept"))
        assert len(sent) == 1
        assert out["error"]["code"] == "overloaded"

    def test_exhausted_retries_return_last_error(self):
        policy = RetryPolicy(max_retries=2, base_ms=1.0, jitter=0.0)
        calls = []

        def send(payload):
            calls.append(payload)
            return _overloaded(1.0)

        out = request_with_retries(send, {"op": "embed"}, policy,
                                   idempotent=True, sleep=lambda s: None)
        assert len(calls) == 3  # initial + 2 retries
        assert out["error"]["code"] == "overloaded"

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_ms=10.0, cap_ms=5.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
