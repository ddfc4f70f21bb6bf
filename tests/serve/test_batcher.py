"""MicroBatcher: coalescing, work-conserving draining (with a bounded wait
only under saturation), failure isolation, resilience."""

import threading
import time

import pytest

from repro.serve import Deadline, DeadlineExceededError, MicroBatcher, ServeMetrics
from repro.serve import batcher as batcher_module


def _echo_handler(items):
    return [item * 2 for item in items]


def _spy_on_get(batcher):
    """Record every ``get`` call the worker makes on the batcher's queue."""
    calls = []
    real_get = batcher._queue.get

    def spy_get(*args, **kwargs):
        calls.append((args, kwargs))
        return real_get(*args, **kwargs)

    batcher._queue.get = spy_get
    return calls


def _timeouts(calls):
    """The timeouts of the timed ``get`` calls among ``calls``."""
    return [kwargs.get("timeout", args[1] if len(args) > 1 else None)
            for args, kwargs in calls
            if len(args) > 1 or kwargs.get("timeout") is not None]


class TestCoalescing:
    def test_results_in_submission_order(self):
        with MicroBatcher(_echo_handler, max_batch=4) as batcher:
            futures = [batcher.submit(i) for i in range(10)]
            assert [f.result(timeout=5) for f in futures] == [i * 2 for i in range(10)]

    def test_concurrent_submits_coalesce(self):
        """Requests arriving together must share forward passes."""
        metrics = ServeMetrics()
        release = threading.Event()

        def slow_handler(items):
            release.wait(5)
            return list(items)

        with MicroBatcher(slow_handler, max_batch=32, metrics=metrics) as batcher:
            futures = [batcher.submit(i) for i in range(16)]
            # First request is already in a batch; the other 15 coalesce
            # while the (blocked) first batch occupies the worker.
            release.set()
            for future in futures:
                future.result(timeout=5)
        assert metrics.batches < 16
        assert metrics.batched_requests == 16
        assert metrics.mean_batch_occupancy > 1.0

    def test_size_watermark_bounds_batches(self):
        metrics = ServeMetrics()
        seen = []

        def recording_handler(items):
            seen.append(len(items))
            time.sleep(0.005)
            return list(items)

        with MicroBatcher(recording_handler, max_batch=3, metrics=metrics) as batcher:
            futures = [batcher.submit(i) for i in range(9)]
            for future in futures:
                future.result(timeout=5)
        assert max(seen) <= 3

    def test_lone_request_dispatches_without_company(self):
        with MicroBatcher(_echo_handler, max_batch=64) as batcher:
            start = time.perf_counter()
            assert batcher.submit(21).result(timeout=5) == 42
            # One request must not wait for 63 friends that never come.
            assert time.perf_counter() - start < 1.0

    def test_worker_never_waits_on_a_timer(self):
        """Below saturation draining is work-conserving: after the
        blocking wait for a batch's first request, the worker takes only
        what is already queued — it never calls ``get`` with a timeout."""
        for saturated in (None, lambda: False):
            with MicroBatcher(_echo_handler, max_batch=8,
                              saturated=saturated) as batcher:
                calls = _spy_on_get(batcher)
                futures = [batcher.submit(i) for i in range(20)]
                assert [f.result(timeout=5) for f in futures] == \
                    [i * 2 for i in range(20)]
            assert calls
            assert _timeouts(calls) == []

    def test_saturated_batch_waits_for_company(self, monkeypatch):
        """While the owner reports saturation, a batch keeps collecting
        after the queue runs dry: a request that arrives later joins it."""
        monkeypatch.setattr(batcher_module, "_SATURATED_LINGER_S", 5.0)
        seen = []

        def recording_handler(items):
            seen.append(list(items))
            return list(items)

        with MicroBatcher(recording_handler, max_batch=2,
                          saturated=lambda: True) as batcher:
            first = batcher.submit("first")
            time.sleep(0.05)                  # the worker is lingering now
            late = batcher.submit("late")
            assert first.result(timeout=5) == "first"
            assert late.result(timeout=5) == "late"
        assert seen == [["first", "late"]]

    def test_saturated_linger_is_bounded(self):
        """A lone request on a saturated batcher waits at most the linger
        (2 ms from its dequeue) for company, then dispatches alone."""
        with MicroBatcher(_echo_handler, max_batch=64,
                          saturated=lambda: True) as batcher:
            calls = _spy_on_get(batcher)
            start = time.perf_counter()
            assert batcher.submit(21).result(timeout=5) == 42
            assert time.perf_counter() - start < 1.0
        waits = _timeouts(calls)
        assert waits and all(0 < w <= batcher_module._SATURATED_LINGER_S
                             for w in waits)


class TestFailureIsolation:
    def test_exception_slot_fails_only_that_item(self):
        def partial_handler(items):
            return [ValueError(f"bad {item}") if item == 2 else item
                    for item in items]

        with MicroBatcher(partial_handler, max_batch=8) as batcher:
            futures = [batcher.submit(i) for i in range(4)]
            results = []
            for i, future in enumerate(futures):
                if i == 2:
                    with pytest.raises(ValueError, match="bad 2"):
                        future.result(timeout=5)
                else:
                    results.append(future.result(timeout=5))
            assert results == [0, 1, 3]

    def test_raising_handler_fails_batch_but_not_worker(self):
        calls = []

        def flaky_handler(items):
            calls.append(list(items))
            if len(calls) == 1:
                raise RuntimeError("boom")
            return list(items)

        with MicroBatcher(flaky_handler, max_batch=1) as batcher:
            with pytest.raises(RuntimeError, match="boom"):
                batcher.submit("a").result(timeout=5)
            # Worker survived: next request is served normally.
            assert batcher.submit("b").result(timeout=5) == "b"

    def test_result_count_mismatch_detected(self):
        with MicroBatcher(lambda items: [], max_batch=1) as batcher:
            with pytest.raises(RuntimeError, match="results"):
                batcher.submit(1).result(timeout=5)


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(_echo_handler)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(1)

    def test_close_drains_pending(self):
        with MicroBatcher(_echo_handler, max_batch=4) as batcher:
            futures = [batcher.submit(i) for i in range(8)]
        assert [f.result(timeout=5) for f in futures] == [i * 2 for i in range(8)]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(_echo_handler, max_batch=0)

    def test_close_leaves_no_thread_behind(self):
        before = {t.ident for t in threading.enumerate()}
        batcher = MicroBatcher(_echo_handler)
        worker = batcher._worker
        batcher.close()
        assert not worker.is_alive()
        leaked = [t for t in threading.enumerate()
                  if t.ident not in before and t.name == "repro-serve-batcher"]
        assert leaked == []

    def test_close_join_timeout_is_loud_dirty_shutdown(self):
        """A worker stuck past close(timeout) must flag + raise, not leak
        silently (the bug this PR fixes)."""
        release = threading.Event()
        metrics = ServeMetrics()

        def stuck_handler(items):
            release.wait(10)
            return list(items)

        batcher = MicroBatcher(stuck_handler, max_batch=1, metrics=metrics)
        future = batcher.submit("x")
        time.sleep(0.05)  # let the worker enter the stuck handler
        with pytest.raises(RuntimeError, match="dirty"):
            batcher.close(timeout=0.05)
        assert metrics.dirty_shutdown
        assert metrics.snapshot()["lifecycle"]["dirty_shutdown"] is True
        release.set()  # unstick so the thread exits before the test ends
        assert future.result(timeout=5) == "x"
        batcher._worker.join(timeout=5)


class TestResilience:
    def test_expired_deadline_fails_at_dequeue_without_handler(self):
        """Work whose budget lapsed while queued must never reach the
        handler."""
        metrics = ServeMetrics()
        handled = []
        release = threading.Event()

        def gated_handler(items):
            release.wait(5)
            handled.extend(items)
            return list(items)

        with MicroBatcher(gated_handler, max_batch=1, metrics=metrics) as batcher:
            blocker = batcher.submit("slow")          # occupies the worker
            time.sleep(0.02)
            doomed = batcher.submit("doomed", deadline=Deadline(0.0))
            fine = batcher.submit("fine")
            release.set()
            with pytest.raises(DeadlineExceededError) as caught:
                doomed.result(timeout=5)
            assert caught.value.stage == "dequeue"
            assert blocker.result(timeout=5) == "slow"
            assert fine.result(timeout=5) == "fine"
        assert "doomed" not in handled
        assert metrics.deadline_expired == {"dequeue": 1}

    def test_unexpired_deadline_passes_through(self):
        with MicroBatcher(_echo_handler, max_batch=4) as batcher:
            future = batcher.submit(5, deadline=Deadline(60_000.0))
            assert future.result(timeout=5) == 10

    def test_killed_worker_is_replaced_and_counted(self):
        metrics = ServeMetrics()
        with MicroBatcher(_echo_handler, max_batch=4, metrics=metrics) as batcher:
            first_worker = batcher._worker
            assert batcher.submit(1).result(timeout=5) == 2
            batcher._inject_worker_death()
            # The supervisor replaces the corpse from the dying thread
            # itself, so even a request racing the kill resolves.
            assert batcher.submit(3).result(timeout=5) == 6
            assert batcher._worker is not first_worker
            assert batcher._worker.is_alive()
        assert metrics.worker_restarts == 1

    def test_submission_racing_the_kill_is_not_stranded(self):
        """A request enqueued behind the kill sentinel, before anyone
        notices the death, must still resolve (supervisor restart)."""
        with MicroBatcher(_echo_handler, max_batch=4) as batcher:
            batcher._inject_worker_death()
            future = batcher.submit(4)  # may land before the kill is seen
            assert future.result(timeout=5) == 8

    def test_kill_mid_batch_does_not_strand_collected_requests(self):
        release = threading.Event()

        def gated_handler(items):
            release.wait(5)
            return list(items)

        with MicroBatcher(gated_handler, max_batch=8) as batcher:
            blocker = batcher.submit("a")   # batch 1: occupies the worker
            time.sleep(0.02)
            caught_mid = batcher.submit("b")  # queued for batch 2...
            time.sleep(0.02)
            batcher._inject_worker_death()    # ...with the kill right behind
            release.set()
            assert blocker.result(timeout=5) == "a"
            # Batch 2 sweeps up "b" and then meets the kill: the requests
            # it already collected are dispatched before the worker dies —
            # nothing hangs forever.
            assert caught_mid.result(timeout=5) == "b"

    def test_replacement_worker_is_published_before_it_serves(self, monkeypatch):
        """A replacement worker must already be ``_worker`` when it
        resolves its first request, even if the dying thread that started
        it is descheduled right after ``start()``."""
        real_thread = threading.Thread

        class SlowToReturnFromStart(real_thread):
            def start(self):
                super().start()
                if threading.current_thread().name == "repro-serve-batcher":
                    time.sleep(0.2)  # the dying worker lingers after start()

        monkeypatch.setattr(batcher_module.threading, "Thread",
                            SlowToReturnFromStart)
        entered, release = threading.Event(), threading.Event()
        published = []

        def gated_handler(items):
            if items == ["a"]:
                entered.set()
                release.wait(5)
            else:
                published.append(batcher._worker is threading.current_thread())
            return list(items)

        with MicroBatcher(gated_handler, max_batch=4) as batcher:
            blocker = batcher.submit("a")      # the doomed worker's last batch
            assert entered.wait(5)
            batcher._inject_worker_death()
            behind = batcher.submit("b")       # left for the replacement
            release.set()
            assert blocker.result(timeout=5) == "a"
            assert behind.result(timeout=5) == "b"
        assert published == [True]

    def test_close_during_restart_joins_the_replacement(self, monkeypatch):
        """``close()`` racing a supervisor restart must join the worker the
        restart publishes — never an unstarted thread, never the corpse
        it replaces."""
        real_thread = threading.Thread
        stalling = threading.Event()

        class SlowToStart(real_thread):
            def start(self):
                if threading.current_thread().name == "repro-serve-batcher":
                    stalling.set()
                    time.sleep(0.2)  # the dying worker stalls before start()
                super().start()

        monkeypatch.setattr(batcher_module.threading, "Thread", SlowToStart)
        metrics = ServeMetrics()
        batcher = MicroBatcher(_echo_handler, max_batch=4, metrics=metrics)
        first_worker = batcher._worker
        batcher._inject_worker_death()
        assert stalling.wait(5)
        batcher.close(timeout=5)
        assert metrics.worker_restarts == 1
        assert batcher._worker is not first_worker
        assert not batcher._worker.is_alive()
        assert not metrics.dirty_shutdown
