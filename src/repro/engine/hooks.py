"""Stock hooks for the training engine.

Hooks observe the loop at seven points — run start (before setup, at the
timing origin), setup, epoch start/end, failures, checkpoint writes, and
stop — and may steer it through ``loop.request_stop`` /
``loop.save_checkpoint`` / ``loop.exclude_seconds`` /
``loop.restore_from``.  Events fire across the hook list in order, so
e.g. a :class:`PeriodicCheckpoint` placed before a stopping hook still
captures the epoch the run dies on.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np


class Hook:
    """Base hook: every event defaults to a no-op."""

    def on_run_start(self, loop) -> None:
        """At the top of ``run`` — the timing origin, before step setup.

        The one place a hook can observe the run before any method work
        (selection, score tables, encoder construction) happens; used by
        :class:`repro.obs.TraceHook` to open the trace around setup."""

    def on_setup(self, loop) -> None:
        """After step preparation / optimizer construction / resume."""

    def on_epoch_start(self, loop, epoch: int) -> None:
        """Before the step runs epoch ``epoch``."""

    def on_epoch_end(self, loop, epoch: int, record) -> None:
        """After epoch ``epoch``; ``record`` is its history row."""

    def on_failure(self, loop, epoch: int, failure) -> bool:
        """A failure was detected at epoch ``epoch`` (health-guard signal
        or an exception raised inside the epoch body).

        Return True to claim the failure as *handled* — the loop then
        continues from ``loop.start_epoch`` (set by a rollback via
        ``loop.restore_from``).  When no hook handles it, the loop
        re-raises the underlying error (or a ``TrainingFailure``)."""
        return False

    def on_checkpoint(self, loop, epoch: int, path: Path) -> None:
        """After a checkpoint was written to ``path``."""

    def on_stop(self, loop) -> None:
        """After the final epoch (normal exit or requested stop)."""


class EarlyStopping(Hook):
    """Stop when the loss has not improved for ``patience`` epochs.

    ``min_delta`` is the minimum decrease that counts as improvement.
    After the run, ``best_loss``/``best_epoch`` identify the optimum and
    ``stopped_epoch`` is the epoch the stop fired on (None if it never did).
    """

    def __init__(self, patience: int, min_delta: float = 0.0) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.best_loss = float("inf")
        self.best_epoch: Optional[int] = None
        self.stopped_epoch: Optional[int] = None
        self._bad_epochs = 0

    def on_epoch_end(self, loop, epoch: int, record) -> None:
        if record.loss < self.best_loss - self.min_delta:
            self.best_loss = record.loss
            self.best_epoch = epoch
            self._bad_epochs = 0
            return
        self._bad_epochs += 1
        if self._bad_epochs >= self.patience:
            self.stopped_epoch = epoch
            loop.request_stop(
                f"early stop at epoch {epoch}: no improvement for "
                f"{self.patience} epochs (best {self.best_loss:.6f} "
                f"at epoch {self.best_epoch})"
            )


class PeriodicCheckpoint(Hook):
    """Write a v2 checkpoint every ``every`` epochs (and on stop).

    ``saves`` counts completed writes; the latest path is ``path``.
    """

    def __init__(self, path: Union[str, Path], every: int = 1,
                 save_on_stop: bool = True) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = Path(path)
        self.every = every
        self.save_on_stop = save_on_stop
        self.saves = 0
        self._last_saved_epoch: Optional[int] = None

    def on_epoch_end(self, loop, epoch: int, record) -> None:
        if (epoch + 1) % self.every == 0:
            loop.save_checkpoint(self.path)
            self.saves += 1
            self._last_saved_epoch = epoch

    def on_stop(self, loop) -> None:
        if not self.save_on_stop or not loop.history.records:
            return
        last = loop.history.records[-1].epoch
        if self._last_saved_epoch != last:
            loop.save_checkpoint(self.path)
            self.saves += 1
            self._last_saved_epoch = last


class StopAfter(Hook):
    """Request a stop once ``epoch`` completes.

    Used to bound a run externally (CLI budget) and, in tests, to simulate
    a run killed mid-training after its last checkpoint.
    """

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch

    def on_epoch_end(self, loop, epoch: int, record) -> None:
        if epoch >= self.epoch:
            loop.request_stop(f"stop requested after epoch {self.epoch}")


class CallbackHook(Hook):
    """Adapt a legacy ``callback(epoch, owner)`` to the hook pipeline.

    Keeps the pre-engine ``fit(graph, callback=...)`` surface working: the
    callback fires after every epoch with the owning method/trainer.
    """

    def __init__(self, callback: Callable, owner=None) -> None:
        self.callback = callback
        self.owner = owner

    def on_epoch_end(self, loop, epoch: int, record) -> None:
        self.callback(epoch, self.owner if self.owner is not None else loop)


class TimedEvalHook(Hook):
    """Timed linear evaluation on the engine's canonical clock (Fig. 3).

    Every ``every`` epochs the current embeddings are linear-evaluated and
    one ``(seconds, accuracy)`` point is appended to ``curve``.  The
    recorded seconds are the epoch record's elapsed time — the engine's
    shared origin, inclusive of setup/selection — and the probe's own cost
    is excluded from the clock via ``loop.exclude_seconds``, matching the
    paper's convention that training time excludes evaluation.
    """

    def __init__(
        self,
        graph,
        embed_fn: Callable[[], np.ndarray],
        label: str,
        every: int = 5,
        eval_trials: int = 2,
        eval_seed: int = 0,
        decoder_epochs: int = 120,
    ) -> None:
        from ..eval.protocol import TimedCurve

        self.graph = graph
        self.embed_fn = embed_fn
        self.curve = TimedCurve(label=label, points=[])
        self.every = max(1, every)
        self.eval_trials = eval_trials
        self.eval_seed = eval_seed
        self.decoder_epochs = decoder_epochs

    def on_epoch_end(self, loop, epoch: int, record) -> None:
        if epoch % self.every != 0:
            return
        from ..eval.node_classification import evaluate_embeddings
        from ..eval.protocol import CurvePoint
        from ..obs.tracer import emit_metric

        probe_start = time.perf_counter()
        result = evaluate_embeddings(
            self.graph,
            self.embed_fn(),
            seed=self.eval_seed,
            trials=self.eval_trials,
            decoder_epochs=self.decoder_epochs,
        )
        loop.exclude_seconds(time.perf_counter() - probe_start)
        emit_metric("eval_accuracy", result.test_accuracy.mean, epoch=epoch)
        self.curve.points.append(
            CurvePoint(
                epoch=epoch,
                seconds=record.elapsed_seconds,
                accuracy=result.test_accuracy.mean,
            )
        )
