"""Engine hooks that turn any :class:`~repro.engine.TrainLoop` run into a trace.

``TraceHook`` owns the trace lifecycle: it activates its tracer at run
start (unless the caller already did), writes the manifest, wraps every
epoch in a span, and marks checkpoints, failures and the stop reason.
``MetricsHook`` emits the per-epoch series — loss, elapsed seconds, and
the global gradient norm — as metric events.

Because the hooks ride the engine's hook pipeline, E2GCL and every
registered baseline get tracing through the same two lines::

    tracer = Tracer("run.jsonl")
    method.fit(graph, hooks=[TraceHook(tracer, manifest=build_manifest(...)),
                             MetricsHook(tracer)])
"""

from __future__ import annotations

from typing import Optional

from ..autograd import global_grad_norm
from ..engine.hooks import Hook
from .manifest import build_manifest
from .tracer import Tracer


class TraceHook(Hook):
    """Trace a training run: manifest, run/epoch spans, markers.

    Parameters
    ----------
    tracer:
        The tracer events are written to.  If it is not the process-wide
        active tracer when the run starts, the hook activates it for the
        run's duration (so the library's own spans flow in) and
        deactivates it on stop; an already-active tracer is left alone, so
        a caller tracing a larger scope (e.g. the CLI tracing fit *and*
        the final evaluation) keeps ownership.
    manifest:
        Manifest dict to write at run start; defaults to a minimal
        :func:`~repro.obs.manifest.build_manifest` (packages + platform).
    """

    def __init__(self, tracer: Tracer, manifest: Optional[dict] = None) -> None:
        self.tracer = tracer
        self._manifest = manifest
        self._owns_activation = False
        self._run_span = None
        self._epoch_span = None

    def on_run_start(self, loop) -> None:
        """Activate (if needed), write the manifest, open the run span."""
        if not self.tracer.active:
            self.tracer.activate()
            self._owns_activation = True
        manifest = self._manifest if self._manifest is not None else build_manifest()
        self.tracer.manifest(manifest)
        self._run_span = self.tracer.span("run", scope=loop.scope)
        self._run_span.__enter__()

    def on_epoch_start(self, loop, epoch: int) -> None:
        """Open the epoch's span (the step's work nests inside)."""
        self._epoch_span = self.tracer.span("epoch", epoch=epoch)
        self._epoch_span.__enter__()

    def on_epoch_end(self, loop, epoch: int, record) -> None:
        """Close the epoch's span."""
        if self._epoch_span is not None:
            self._epoch_span.__exit__(None, None, None)
            self._epoch_span = None

    def on_checkpoint(self, loop, epoch: int, path) -> None:
        """Mark the checkpoint write in the trace."""
        self.tracer.event("checkpoint", epoch=epoch, path=str(path))

    def on_failure(self, loop, epoch: int, failure) -> bool:
        """Mark the failure in the trace (never claims it as handled)."""
        self.tracer.event("failure", epoch=epoch, reason=failure.reason)
        return False

    def on_stop(self, loop) -> None:
        """Close the run span and release the tracer."""
        if self._epoch_span is not None:  # stop mid-epoch (defensive)
            self._epoch_span.__exit__(None, None, None)
            self._epoch_span = None
        if loop.stop_reason:
            self.tracer.event("stop", reason=loop.stop_reason)
        if self._run_span is not None:
            self._run_span.__exit__(None, None, None)
            self._run_span = None
        if self._owns_activation:
            self.tracer.deactivate()
            self._owns_activation = False
        self.tracer.flush()


class MetricsHook(Hook):
    """Emit per-epoch metric events: loss, elapsed seconds, gradient norm.

    The gradient norm is the global l2 norm over every parameter gradient
    left by the epoch's backward pass (read in ``on_epoch_end``, before
    the next epoch's ``zero_grad``); methods without an optimizer (e.g.
    closed-form skip-gram) simply skip the series.
    """

    def __init__(self, tracer: Tracer, grad_norms: bool = True) -> None:
        self.tracer = tracer
        self.grad_norms = grad_norms

    def on_epoch_end(self, loop, epoch: int, record) -> None:
        """Append this epoch's points to the metric series."""
        self.tracer.metric("loss", record.loss, epoch=epoch)
        self.tracer.metric("elapsed_seconds", record.elapsed_seconds, epoch=epoch)
        if not self.grad_norms or loop.optimizer is None:
            return
        norm = global_grad_norm(loop.optimizer.parameters)
        if norm is not None:
            self.tracer.metric("grad_norm", norm, epoch=epoch)
