"""The unified training loop shared by E2GCL and every baseline.

One loop owns everything method-agnostic about pre-training:

* **optimizer construction** from the step's trainable parameters (no
  method builds its own ``Adam`` — enforced by
  ``tools/check_engine_adoption.py``);
* **epoch iteration** with an ordered hook pipeline (``on_run_start``,
  ``on_setup``, ``on_epoch_start``, ``on_epoch_end``, ``on_failure``,
  ``on_checkpoint``, ``on_stop``);
* **failure dispatch** — an exception inside the epoch body, or a failure
  signalled by a hook (``loop.signal_failure``), is offered to every
  hook's ``on_failure``; a recovery hook may roll the run back to a
  checkpoint (``loop.restore_from``) and the loop re-enters from the
  restored epoch, otherwise the error propagates;
* **one canonical timing origin** — the wall clock starts at the top of
  :meth:`run`, *before* module construction and selection, so per-epoch
  timestamps are comparable across methods (Fig. 3) and E2GCL's selection
  cost is charged the same way as every baseline's setup;
* **deterministic RNG streams** (:class:`~repro.engine.rng.RngStreams`),
  snapshotted into checkpoints;
* **checkpoint save/resume** — ``loop.save_checkpoint(path)`` captures the
  full run state, ``TrainLoop(..., resume_from=path)`` continues it
  bit-identically;
* **span scoping** — setup and epochs run inside ``<scope>.setup`` /
  ``<scope>.epoch`` spans of the active :mod:`repro.obs` tracer;
* **gradient buffer pooling** — the loop runs with the
  :mod:`repro.autograd.arena` active (bit-identical numerics), so every
  backward pass in the run recycles its intermediate gradient buffers;
  pool counters land in an ``engine.arena`` event at the end of the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Union

from ..autograd import Adam
from ..autograd import arena as _arena
from ..obs.tracer import emit_event, span
from .checkpoint import restore_loop, save_checkpoint
from .history import EpochRecord, RunHistory
from .rng import RngStreams
from .step import TrainStep


@dataclass
class Failure:
    """A detected training failure, handed to every hook's ``on_failure``.

    ``error`` is the exception raised inside the epoch body, or None when
    the failure was signalled by a hook (e.g. a
    :class:`repro.resilience.HealthGuard` spotting a NaN loss).
    """

    reason: str
    epoch: int
    error: Optional[BaseException] = None
    details: Dict = field(default_factory=dict)


class TrainingFailure(RuntimeError):
    """Raised by the loop when a signalled failure goes unhandled."""

    def __init__(self, failure: Failure) -> None:
        super().__init__(
            f"training failed at epoch {failure.epoch}: {failure.reason}"
        )
        self.failure = failure


class TrainLoop:
    """Hook-driven optimization loop around a :class:`TrainStep` plugin.

    Parameters
    ----------
    step:
        The method plugin (build views → forward → loss).
    epochs:
        Upper bound on epochs; hooks may stop the run earlier.
    lr / weight_decay:
        Handed to the engine-built optimizer (Adam unless
        ``optimizer_factory`` overrides it).
    optimizer_factory:
        Optional ``params -> Optimizer`` replacing the default Adam.
    hooks:
        Ordered hook pipeline; each event fires across hooks in list order.
    rngs:
        The run's RNG streams; defaults to fresh streams from ``seed``.
        Steps that draw from their own generators pass them in so
        checkpoints capture the *live* streams.
    seed:
        Root seed used only when ``rngs`` is not supplied.
    scope:
        Prefix for the setup/epoch span names
        (``<scope>.setup`` / ``<scope>.epoch``).
    resume_from:
        Optional v2 checkpoint path; the run continues from its saved
        epoch with restored parameters, optimizer slots, and RNG states.
    grad_arena:
        Pool intermediate gradient buffers across the run's backward
        passes (default on; numerically a no-op, skips per-step
        allocator churn).
    """

    def __init__(
        self,
        step: TrainStep,
        *,
        epochs: int,
        lr: float = 0.01,
        weight_decay: float = 0.0,
        optimizer_factory: Optional[Callable] = None,
        hooks: Iterable = (),
        rngs: Optional[RngStreams] = None,
        seed: int = 0,
        scope: str = "engine",
        resume_from: Optional[Union[str, Path]] = None,
        grad_arena: bool = True,
    ) -> None:
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        self.step = step
        self.epochs = epochs
        self.lr = lr
        self.weight_decay = weight_decay
        self._optimizer_factory = optimizer_factory or (
            lambda params: Adam(params, lr=lr, weight_decay=weight_decay)
        )
        self.hooks = list(hooks)
        self.rngs = rngs if rngs is not None else RngStreams(seed)
        self.scope = scope
        self.history = RunHistory()
        self.optimizer = None
        self.stop_reason: Optional[str] = None
        #: Failure signalled by a hook during the current epoch (cleared by
        #: the loop once dispatched to ``on_failure``).
        self.failure: Optional[Failure] = None
        self.start_epoch = 0
        #: Elapsed seconds inherited from the run a checkpoint was saved in.
        self.elapsed_offset = 0.0
        self._resume_from = Path(resume_from) if resume_from is not None else None
        self._t0: Optional[float] = None
        self._excluded_seconds = 0.0
        self.grad_arena: Optional[_arena.GradArena] = (
            _arena.GradArena() if grad_arena else None
        )

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Wall-clock since the run's timing origin, excluding probe time
        and including time inherited from a resumed checkpoint."""
        if self._t0 is None:
            return self.elapsed_offset
        return (
            time.perf_counter() - self._t0
            - self._excluded_seconds
            + self.elapsed_offset
        )

    def exclude_seconds(self, seconds: float) -> None:
        """Deduct ``seconds`` from the clock (e.g. a linear-eval probe —
        the paper measures training time, not the probe's cost)."""
        self._excluded_seconds += seconds

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def request_stop(self, reason: str) -> None:
        """Stop after the current epoch's hooks finish (early stopping,
        simulated interruption, budget exhaustion)."""
        self.stop_reason = reason

    def signal_failure(self, reason: str, **details) -> None:
        """Flag the current epoch as failed (called by health guards).

        After the epoch's ``on_epoch_end`` hooks finish, the loop
        dispatches the failure to every hook's ``on_failure``; if none
        handles it, :class:`TrainingFailure` is raised.  A later signal in
        the same epoch does not overwrite an earlier one.
        """
        if self.failure is None:
            epoch = self.history.records[-1].epoch if self.history.records else 0
            self.failure = Failure(reason=reason, epoch=epoch, details=details)

    def restore_from(self, path: Union[str, Path]) -> None:
        """Roll the live run back to a checkpoint (recovery hooks).

        Restores step arrays, optimizer slots, RNG streams, and history,
        and rewinds ``start_epoch`` so the loop re-runs from the
        checkpoint's next epoch.  Mid-run the wall clock keeps running —
        time spent in the failed epochs stays on the run's clock, unlike a
        fresh-process resume where the checkpoint's elapsed time is
        inherited.
        """
        offset, excluded = self.elapsed_offset, self._excluded_seconds
        restore_loop(self, path)
        if self._t0 is not None:
            self.elapsed_offset, self._excluded_seconds = offset, excluded

    def save_checkpoint(self, path: Union[str, Path]) -> Path:
        """Write a v2 checkpoint and fire every hook's ``on_checkpoint``."""
        written = save_checkpoint(self, path)
        epoch = self.history.records[-1].epoch if self.history.records else -1
        for hook in self.hooks:
            hook.on_checkpoint(self, epoch, written)
        return written

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> RunHistory:
        """Execute the run; returns the (possibly resumed) history."""
        if self.grad_arena is not None:
            with _arena.active_arena(arena=self.grad_arena):
                history = self._run()
            emit_event("engine.arena", scope=self.scope,
                       **self.grad_arena.stats())
            return history
        return self._run()

    def _run(self) -> RunHistory:
        self._t0 = time.perf_counter()
        self._excluded_seconds = 0.0
        for hook in self.hooks:
            hook.on_run_start(self)
        with span(f"{self.scope}.setup"):
            self.step.prepare(self)
        params = list(self.step.trainable_parameters())
        if params:
            self.optimizer = self._optimizer_factory(params)
        if self._resume_from is not None:
            restore_loop(self, self._resume_from)
            # Setup already ran (and was billed) in the original run; the
            # resumed clock continues from the checkpoint's elapsed time.
            self._t0 = time.perf_counter()
        for hook in self.hooks:
            hook.on_setup(self)
        epoch = self.start_epoch
        while epoch < self.epochs:
            for hook in self.hooks:
                hook.on_epoch_start(self, epoch)
            failure: Optional[Failure] = None
            try:
                with span(f"{self.scope}.epoch"):
                    loss = self.step.run_epoch(self, epoch)
            except Exception as exc:
                failure = Failure(
                    reason=f"{type(exc).__name__}: {exc}", epoch=epoch, error=exc
                )
            else:
                epoch_record = EpochRecord(
                    epoch=epoch, loss=float(loss), elapsed_seconds=self.elapsed()
                )
                self.history.append(epoch_record)
                for hook in self.hooks:
                    hook.on_epoch_end(self, epoch, epoch_record)
                failure = self.failure
            if failure is not None:
                self.failure = None
                if not self._dispatch_failure(epoch, failure):
                    if failure.error is not None:
                        raise failure.error
                    raise TrainingFailure(failure)
                # A handler rolled the run back (loop.restore_from rewound
                # start_epoch); re-enter from the restored epoch.
                epoch = self.start_epoch
                continue
            if self.stop_reason is not None:
                break
            epoch += 1
        self.history.total_seconds = self.elapsed()
        for hook in self.hooks:
            hook.on_stop(self)
        return self.history

    def _dispatch_failure(self, epoch: int, failure: Failure) -> bool:
        """Offer ``failure`` to each hook in order; True once one claims it."""
        for hook in self.hooks:
            if hook.on_failure(self, epoch, failure):
                return True
        return False
