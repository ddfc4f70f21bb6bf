"""Tracer behaviour: span nesting, event shapes, activation, threads,
overhead."""

import threading
import time

import numpy as np
import pytest

from repro.obs import Tracer, current_tracer, emit_event, emit_metric, span
from repro.obs.summary import read_events
from repro.obs.tracer import _NOOP


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """A test that dies mid-span must not leave a global tracer behind."""
    yield
    leaked = current_tracer()
    if leaked is not None:
        leaked.deactivate()


class TestSpans:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        names = [e["name"] for e in tracer.events]
        # Spans are emitted at close: children precede their parents.
        assert names == ["inner", "middle", "sibling", "outer"]
        by_name = {e["name"]: e for e in tracer.events}
        assert by_name["outer"]["parent"] is None and by_name["outer"]["depth"] == 0
        assert by_name["middle"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["parent"] == by_name["middle"]["id"]
        assert by_name["inner"]["depth"] == 2
        assert by_name["sibling"]["parent"] == by_name["outer"]["id"]
        ids = [e["id"] for e in tracer.events]
        assert len(set(ids)) == len(ids)

    def test_span_payload_shape(self):
        tracer = Tracer()
        with tracer.span("work", epoch=3):
            time.sleep(0.001)
        (event,) = tracer.events
        assert event["type"] == "span"
        assert event["epoch"] == 3
        assert event["seconds"] >= 0.001
        assert event["t_start"] >= 0.0

    def test_metric_event_counter_manifest_shapes(self):
        """Metric/event/manifest shapes; counter events are gone (span
        aggregates in ``repro trace`` already carry calls and seconds)."""
        tracer = Tracer()
        tracer.metric("loss", np.float64(1.5), epoch=0)
        tracer.event("checkpoint", path="x.npz")
        tracer.manifest({"seed": 7})
        kinds = [e["type"] for e in tracer.events]
        assert kinds == ["metric", "event", "manifest"]
        metric = tracer.events[0]
        assert metric["value"] == 1.5 and metric["epoch"] == 0 and metric["t"] >= 0
        assert tracer.events[2]["seed"] == 7
        assert not hasattr(tracer, "counter")


class TestJsonlRoundTrip:
    def test_file_matches_memory(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(path)
        tracer.manifest({"seed": 1})
        with tracer.span("a", note="hi"):
            tracer.metric("loss", 0.5, epoch=0)
        tracer.close()
        assert read_events(path) == tracer.events

    def test_numpy_attrs_serialize(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(path)
        tracer.metric("acc", np.float32(0.75), epoch=np.int64(2))
        tracer.close()
        (event,) = read_events(path)
        assert event["epoch"] == 2 and abs(event["value"] - 0.75) < 1e-6

    def test_events_after_close_stay_in_memory(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(path)
        tracer.event("first")
        tracer.close()
        tracer.event("late")
        assert len(read_events(path)) == 1
        assert len(tracer.events) == 2


class TestActivation:
    def test_exclusive_activation(self):
        first, second = Tracer(), Tracer()
        first.activate()
        try:
            assert first.active and current_tracer() is first
            with pytest.raises(RuntimeError):
                second.activate()
        finally:
            first.deactivate()
        assert current_tracer() is None

    def test_deactivate_foreign_tracer_is_noop(self):
        owner, other = Tracer(), Tracer()
        owner.activate()
        try:
            other.deactivate()
            assert current_tracer() is owner
        finally:
            owner.deactivate()

    def test_context_manager_lifecycle(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Tracer(path) as tracer:
            assert tracer.active
            tracer.event("inside")
        assert not tracer.active
        assert len(read_events(path)) == 1

    def test_module_helpers_route_to_active_tracer(self):
        with Tracer() as tracer:
            with span("step"):
                emit_metric("loss", 1.0, epoch=0)
            emit_event("mark")
        kinds = sorted(e["type"] for e in tracer.events)
        assert kinds == ["event", "metric", "span"]


#: Span name -> parent span name of a traced E2GCL fit: the library's hot
#: paths (selection, scores, view sampling, engine setup/epochs) open these
#: through ``repro.obs.span``.
E2GCL_SPAN_PARENTS = {
    "trainer.setup": None,
    "trainer.selection": "trainer.setup",
    "selector.propagate": "trainer.selection",
    "selector.cluster": "trainer.selection",
    "selector.greedy": "trainer.selection",
    "selector.assign": "trainer.selection",
    "scores.compute_edge_scores": "trainer.setup",
    "scores.compute_feature_scores": "trainer.setup",
    "trainer.epoch": None,
    "trainer.views": "trainer.epoch",
    "view_generator.generate_global_view": "trainer.views",
}


class TestLibrarySpans:
    def test_e2gcl_fit_emits_hot_path_spans(self):
        from repro.baselines import get_method
        from repro.graphs import load_dataset

        graph = load_dataset("cora", seed=0, scale=0.1)
        with Tracer() as tracer:
            get_method("e2gcl", epochs=2, seed=0).fit(graph)
        spans = [e for e in tracer.events if e["type"] == "span"]
        by_id = {e["id"]: e for e in spans}
        parents = {e["name"]: by_id[e["parent"]]["name"]
                   if e["parent"] is not None else None for e in spans}
        assert parents == E2GCL_SPAN_PARENTS
        names = [e["name"] for e in spans]
        assert names.count("trainer.epoch") == 2
        assert names.count("trainer.views") == 2


class TestThreads:
    ROUNDS = 3

    def test_interleaved_threads_keep_their_own_nesting(self):
        """Two threads open and close spans in lockstep on one tracer.

        The barrier makes every open and close interleave with the other
        thread's, so a stack shared across threads would hand spans the
        other thread's span as parent and leave stale entries behind.
        """
        tracer = Tracer()
        barrier = threading.Barrier(2)
        leftover, errors = {}, []

        def work(tag):
            try:
                for _ in range(self.ROUNDS):
                    with tracer.span(f"{tag}.outer"):
                        barrier.wait()
                        with tracer.span(f"{tag}.inner"):
                            barrier.wait()
                        barrier.wait()
                    barrier.wait()
                leftover[tag] = len(tracer._thread_stack())
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=work, args=(tag,))
                   for tag in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert leftover == {"a": 0, "b": 0}

        spans = [e for e in tracer.events if e["type"] == "span"]
        assert len(spans) == 2 * 2 * self.ROUNDS
        position = {e["id"]: i for i, e in enumerate(spans)}
        by_id = {e["id"]: e for e in spans}
        assert len(by_id) == len(spans)
        for event in spans:
            tag, kind = event["name"].split(".")
            if kind == "outer":
                assert event["parent"] is None and event["depth"] == 0
                continue
            parent = by_id[event["parent"]]
            assert parent["name"] == f"{tag}.outer"
            assert parent["thread"] == event["thread"]
            assert event["depth"] == 1
            # Children close (and are emitted) before their parents.
            assert position[event["id"]] < position[parent["id"]]
        assert len({e["thread"] for e in spans}) == 2


class TestDisabledTracingOverhead:
    def test_off_means_zero_events(self, tiny_cora):
        from repro.baselines import get_method

        probe = Tracer()  # constructed but never activated
        get_method("grace", epochs=2, embedding_dim=8, hidden_dim=16,
                   seed=0).fit(tiny_cora)
        assert probe.events == []
        assert current_tracer() is None

    def test_noop_span_is_shared_singleton(self):
        assert span("anything") is _NOOP
        assert span("anything", epoch=1) is _NOOP
        emit_metric("dropped", 1.0)  # must not raise or allocate a tracer
        assert current_tracer() is None

    def test_disabled_overhead_under_five_percent(self, tiny_cora):
        """Projected cost of the no-op span sites is <5% of a smoke fit.

        Every ``repro.obs.span`` call is a span site; with tracing off
        each costs one global read.  We measure an untraced fit, count how
        many sites the same fit hits from the span events of one traced
        run, measure the per-call no-op cost, and assert the product stays
        under the 5%% budget with room to spare.
        """
        from repro.baselines import get_method

        def fit():
            get_method("grace", epochs=3, embedding_dim=8, hidden_dim=16,
                       seed=0).fit(tiny_cora)

        t0 = time.perf_counter()
        fit()
        fit_seconds = time.perf_counter() - t0
        with Tracer() as tracer:
            fit()
        site_hits = sum(1 for e in tracer.events if e["type"] == "span")
        assert site_hits > 0

        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with span("noop"):
                pass
        per_call = (time.perf_counter() - t0) / n
        assert site_hits * per_call < 0.05 * fit_seconds
