"""Unit tests for the unified training loop and its stock hooks."""

import numpy as np
import pytest

from repro.autograd import Parameter
from repro.engine import (
    EarlyStopping,
    EpochRecord,
    Hook,
    RngStreams,
    RunHistory,
    StopAfter,
    TrainLoop,
    TrainStep,
)


class QuadraticStep(TrainStep):
    """Minimize ||w - target||^2 — the smallest real optimization problem."""

    def __init__(self, target=(1.0, -2.0, 3.0)):
        self.target = np.asarray(target, dtype=np.float64)
        self.w = Parameter(np.zeros_like(self.target))
        self.prepared = False

    def prepare(self, loop):
        self.prepared = True

    def trainable_parameters(self):
        return [self.w]

    def compute_loss(self, loop, epoch):
        return ((self.w - self.target) ** 2.0).mean()

    def checkpoint_components(self):
        return {"w": self.w}


class ScriptedStep(TrainStep):
    """Replay a fixed loss sequence (no optimizer; tests loop mechanics)."""

    def __init__(self, losses):
        self.losses = list(losses)

    def run_epoch(self, loop, epoch):
        return self.losses[epoch]


class RecordingHook(Hook):
    """Log every event for ordering assertions."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_setup(self, loop):
        self.log.append((self.name, "setup"))

    def on_epoch_start(self, loop, epoch):
        self.log.append((self.name, "start", epoch))

    def on_epoch_end(self, loop, epoch, record):
        self.log.append((self.name, "end", epoch))

    def on_stop(self, loop):
        self.log.append((self.name, "stop"))


def test_loop_decreases_quadratic_loss():
    step = QuadraticStep()
    history = TrainLoop(step, epochs=200, lr=0.1).run()
    assert step.prepared
    assert len(history.records) == 200
    assert history.final_loss < history.losses[0]
    np.testing.assert_allclose(step.w.data, step.target, atol=0.1)


def test_history_is_monotone_in_time_and_epoch():
    history = TrainLoop(QuadraticStep(), epochs=5, lr=0.1).run()
    epochs = [r.epoch for r in history.records]
    assert epochs == list(range(5))
    elapsed = history.elapsed
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    assert history.total_seconds >= elapsed[-1]


def test_no_optimizer_for_parameterless_steps():
    loop = TrainLoop(ScriptedStep([3.0, 2.0, 1.0]), epochs=3)
    history = loop.run()
    assert loop.optimizer is None
    assert history.losses == [3.0, 2.0, 1.0]


def test_run_tunes_allocator_before_setup(monkeypatch):
    """Each run sets the allocator policy before the step's own setup."""
    from repro.engine import loop as loop_module

    calls = []
    monkeypatch.setattr(loop_module, "_keep_freed_arrays_mapped",
                        lambda: calls.append("mallopt"))
    step = ScriptedStep([1.0])
    step.prepare = lambda loop: calls.append("prepare")
    TrainLoop(step, epochs=1).run()
    assert calls == ["mallopt", "prepare"]


def test_allocator_tuning_is_safe_to_repeat():
    from repro.engine.loop import _keep_freed_arrays_mapped

    _keep_freed_arrays_mapped()
    _keep_freed_arrays_mapped()


def test_hooks_fire_in_list_order():
    log = []
    hooks = [RecordingHook("a", log), RecordingHook("b", log)]
    TrainLoop(ScriptedStep([1.0, 0.5]), epochs=2, hooks=hooks).run()
    assert log == [
        ("a", "setup"), ("b", "setup"),
        ("a", "start", 0), ("b", "start", 0),
        ("a", "end", 0), ("b", "end", 0),
        ("a", "start", 1), ("b", "start", 1),
        ("a", "end", 1), ("b", "end", 1),
        ("a", "stop"), ("b", "stop"),
    ]


def test_early_stopping_stops_after_patience_bad_epochs():
    # Loss improves twice, then plateaus: patience=2 stops at epoch 4.
    losses = [5.0, 4.0, 4.0, 4.0, 4.0, 3.0, 2.0]
    stopper = EarlyStopping(patience=2)
    loop = TrainLoop(ScriptedStep(losses), epochs=len(losses), hooks=[stopper])
    history = loop.run()
    assert stopper.stopped_epoch == 3
    assert stopper.best_epoch == 1
    assert stopper.best_loss == 4.0
    assert len(history.records) == 4
    assert "early stop" in loop.stop_reason


def test_early_stopping_min_delta_counts_tiny_gains_as_plateau():
    losses = [1.0, 0.999, 0.998, 0.997]
    stopper = EarlyStopping(patience=2, min_delta=0.01)
    history = TrainLoop(
        ScriptedStep(losses), epochs=len(losses), hooks=[stopper]
    ).run()
    assert stopper.stopped_epoch == 2
    assert len(history.records) == 3


def test_early_stopping_never_fires_on_improving_loss():
    losses = [4.0, 3.0, 2.0, 1.0]
    stopper = EarlyStopping(patience=1)
    history = TrainLoop(
        ScriptedStep(losses), epochs=len(losses), hooks=[stopper]
    ).run()
    assert stopper.stopped_epoch is None
    assert len(history.records) == 4


def test_early_stopping_rejects_nonpositive_patience():
    with pytest.raises(ValueError):
        EarlyStopping(patience=0)


def test_stop_after_truncates_the_run():
    history = TrainLoop(
        ScriptedStep([1.0] * 10), epochs=10, hooks=[StopAfter(3)]
    ).run()
    assert [r.epoch for r in history.records] == [0, 1, 2, 3]


def test_exclude_seconds_deducts_probe_time():
    class Excluding(Hook):
        def on_epoch_end(self, hook_loop, epoch, record):
            hook_loop.exclude_seconds(100.0)

    loop = TrainLoop(ScriptedStep([1.0]), epochs=1, hooks=[Excluding()])
    history = loop.run()
    assert history.total_seconds < 0  # 100 fake seconds were deducted


def test_rng_streams_are_deterministic_and_named():
    a, b = RngStreams(7), RngStreams(7)
    assert a.main.random() == b.main.random()
    assert a.stream("views", offset=5).random() == b.stream("views", offset=5).random()
    # Distinct offsets seed distinct streams; lookups are cached by name.
    c = RngStreams(7)
    assert c.stream("x", offset=1).random() != c.stream("y", offset=2).random()
    assert c.stream("x") is c.stream("x", offset=99)
    # State round-trips through the JSON-friendly snapshot.
    state = a.state()
    before = a.main.random()
    a.set_state(state)
    assert a.main.random() == before


def test_run_history_row_round_trip():
    history = RunHistory()
    history.append(EpochRecord(epoch=0, loss=2.5, elapsed_seconds=0.1))
    history.append(EpochRecord(epoch=1, loss=1.5, elapsed_seconds=0.2))
    history.total_seconds = 0.3
    clone = RunHistory.from_rows(history.to_rows())
    assert clone.losses == history.losses
    assert clone.elapsed == history.elapsed
    assert clone.next_epoch == 2


def test_negative_epochs_rejected():
    with pytest.raises(ValueError):
        TrainLoop(ScriptedStep([]), epochs=-1)
