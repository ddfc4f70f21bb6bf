"""``repro.engine`` — the unified, hook-driven training engine.

One :class:`TrainLoop` pre-trains E2GCL and every baseline: methods are
reduced to :class:`TrainStep` plugins (build views → forward → loss) while
the engine owns optimizer construction, epoch iteration, the canonical
wall-clock origin, deterministic RNG streams, the hook pipeline, and
method-agnostic checkpoint save/resume (format v2).

Quickstart::

    from repro.engine import TrainLoop, EarlyStopping, PeriodicCheckpoint

    method = get_method("grace", epochs=200)
    method.fit(graph, hooks=[EarlyStopping(patience=20),
                             PeriodicCheckpoint("ckpt.npz", every=10)])
    # later, on the same graph:
    get_method("grace", epochs=200).fit(graph, resume_from="ckpt.npz")
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    atomic_savez,
    checkpoint_digest,
    find_latest_valid,
    load_step_state,
    pack_json,
    payload_digest,
    read_checkpoint,
    save_checkpoint,
    unpack_json,
    verify_checkpoint,
)
from .history import EpochRecord, RunHistory
from .hooks import (
    EarlyStopping,
    Hook,
    PeriodicCheckpoint,
    StopAfter,
    TimedEvalHook,
)
from .loop import Failure, TrainingFailure, TrainLoop
from .rng import RngStreams
from .step import TrainStep, pack_components, unpack_components

__all__ = [
    "TrainLoop",
    "TrainStep",
    "RunHistory",
    "EpochRecord",
    "RngStreams",
    "Hook",
    "EarlyStopping",
    "PeriodicCheckpoint",
    "StopAfter",
    "TimedEvalHook",
    "Failure",
    "TrainingFailure",
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "atomic_savez",
    "payload_digest",
    "checkpoint_digest",
    "verify_checkpoint",
    "find_latest_valid",
    "save_checkpoint",
    "read_checkpoint",
    "load_step_state",
    "pack_json",
    "unpack_json",
    "pack_components",
    "unpack_components",
]
