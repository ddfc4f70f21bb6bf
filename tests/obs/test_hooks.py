"""TraceHook / MetricsHook riding a real engine run."""

import pytest

from repro.baselines import get_method
from repro.engine import PeriodicCheckpoint, StopAfter
from repro.obs import MetricsHook, TraceHook, Tracer, build_manifest, current_tracer

FAST = dict(epochs=3, embedding_dim=8, hidden_dim=16, seed=0)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    leaked = current_tracer()
    if leaked is not None:
        leaked.deactivate()


def _fit_traced(graph, extra_hooks=(), manifest=None, **kwargs):
    tracer = Tracer()
    params = dict(FAST)
    params.update(kwargs)
    method = get_method("grace", **params)
    hooks = [TraceHook(tracer, manifest=manifest), MetricsHook(tracer)]
    hooks.extend(extra_hooks)
    method.fit(graph, hooks=hooks)
    return tracer


class TestTraceHook:
    def test_manifest_is_first_event(self, tiny_cora):
        tracer = _fit_traced(tiny_cora, manifest=build_manifest(seed=0))
        assert tracer.events[0]["type"] == "manifest"
        assert tracer.events[0]["seed"] == 0

    def test_default_manifest_when_none_given(self, tiny_cora):
        tracer = _fit_traced(tiny_cora)
        assert tracer.events[0]["type"] == "manifest"
        assert tracer.events[0]["packages"]["numpy"]

    def test_run_and_epoch_spans(self, tiny_cora):
        tracer = _fit_traced(tiny_cora)
        spans = [e for e in tracer.events if e["type"] == "span"]
        run_spans = [s for s in spans if s["name"] == "run"]
        epoch_spans = [s for s in spans if s["name"] == "epoch"]
        assert len(run_spans) == 1
        assert len(epoch_spans) == FAST["epochs"]
        assert [s["epoch"] for s in epoch_spans] == [0, 1, 2]
        run_id = run_spans[0]["id"]
        assert all(s["parent"] == run_id for s in epoch_spans)

    def test_perf_scopes_nest_inside_run(self, tiny_cora):
        tracer = _fit_traced(tiny_cora)
        spans = {e["name"] for e in tracer.events if e["type"] == "span"}
        assert "method.grace.setup" in spans
        assert "method.grace.epoch" in spans

    def test_stop_reason_marker(self, tiny_cora):
        tracer = _fit_traced(tiny_cora, extra_hooks=[StopAfter(0)])
        markers = [e for e in tracer.events if e["type"] == "event"]
        stops = [m for m in markers if m["name"] == "stop"]
        assert len(stops) == 1 and "epoch 0" in stops[0]["reason"]
        # Only the completed epoch got a span.
        assert sum(1 for e in tracer.events
                   if e["type"] == "span" and e["name"] == "epoch") == 1

    def test_checkpoint_marker(self, tiny_cora, tmp_path):
        ckpt = tmp_path / "run.npz"
        tracer = _fit_traced(
            tiny_cora, extra_hooks=[PeriodicCheckpoint(ckpt, every=2)]
        )
        markers = [e for e in tracer.events
                   if e["type"] == "event" and e["name"] == "checkpoint"]
        assert markers and markers[0]["path"] == str(ckpt)

    def test_hook_releases_activation(self, tiny_cora):
        tracer = _fit_traced(tiny_cora)
        assert current_tracer() is None
        assert not tracer.active

    def test_preactivated_tracer_keeps_ownership(self, tiny_cora):
        tracer = Tracer().activate()
        try:
            method = get_method("grace", **FAST)
            method.fit(tiny_cora, hooks=[TraceHook(tracer)])
            # The hook must not steal or release an activation it didn't own.
            assert current_tracer() is tracer
        finally:
            tracer.deactivate()


class TestMetricsHook:
    def test_per_epoch_series(self, tiny_cora):
        tracer = _fit_traced(tiny_cora)
        metrics = {}
        for event in tracer.events:
            if event["type"] == "metric":
                metrics.setdefault(event["name"], []).append(event)
        for name in ("loss", "elapsed_seconds", "grad_norm"):
            assert len(metrics[name]) == FAST["epochs"], name
            assert [m["epoch"] for m in metrics[name]] == [0, 1, 2]
        assert all(m["value"] > 0 for m in metrics["grad_norm"])

    def test_grad_norms_can_be_disabled(self, tiny_cora):
        tracer = Tracer()
        method = get_method("grace", **FAST)
        method.fit(tiny_cora, hooks=[TraceHook(tracer),
                                     MetricsHook(tracer, grad_norms=False)])
        names = {e["name"] for e in tracer.events if e["type"] == "metric"}
        assert "loss" in names and "grad_norm" not in names

    def test_optimizer_free_method_skips_grad_norm(self, tiny_cora):
        tracer = Tracer()
        method = get_method("deepwalk", seed=0, embedding_dim=8)
        method.fit(tiny_cora, hooks=[TraceHook(tracer), MetricsHook(tracer)])
        names = {e["name"] for e in tracer.events if e["type"] == "metric"}
        assert "grad_norm" not in names
