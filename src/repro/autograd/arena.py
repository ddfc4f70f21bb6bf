"""Gradient buffer arena: pooled, shape/dtype-keyed arrays for backward.

Every backward pass in this engine used to allocate a fresh array per
gradient buffer (the first ``_accumulate_grad`` copies, the scatter
targets of ``index``, every intermediate's ``grad``).  On a full-graph
GCN step that is dozens of ``(n, d)`` allocations, and the allocator —
not arithmetic — shows up in the per-step profile.  The arena removes
them:

* :meth:`GradArena.acquire` hands out a buffer of exactly the requested
  shape/dtype, reusing one released earlier in the run when available;
* :meth:`GradArena.release` returns a buffer to the pool (bounded per
  shape/dtype key, so the pool size plateaus instead of growing with the
  graph's width);
* :meth:`Tensor.backward` releases every *intermediate* tensor's gradient
  right after its backward closure has consumed it, so the same few
  buffers cycle through the whole backward pass.  Leaf gradients
  (``Parameter.grad``) are never pooled — the optimizer and health guards
  read them between steps, so they must stay exclusively owned.

The arena is process-global but explicitly scoped: nothing is pooled
until :func:`enable` (or the :func:`active_arena` context manager) turns
it on.  The training engine enables it for the duration of a run; library
code and tests that inspect intermediate gradients run with it off and
see the historical allocate-per-grad behaviour.

Numerics are unaffected: a pooled buffer is always fully overwritten
(``np.copyto``) before it becomes a gradient, so enabling the arena is
bit-identical to running without it.

Pool statistics (hits, misses, released, dropped, pooled bytes) come
from :meth:`GradArena.stats`; the engine emits them as an
``engine.arena`` ``repro.obs`` event at the end of each run.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

_Key = Tuple[Tuple[int, ...], str]


class GradArena:
    """A bounded pool of reusable gradient arrays, keyed by (shape, dtype).

    Parameters
    ----------
    max_per_key:
        Upper bound on pooled buffers per (shape, dtype) key.  Releases
        beyond the bound drop the array (counted in ``dropped``), which
        is what keeps the pool's footprint flat over arbitrarily many
        steps.
    """

    def __init__(self, max_per_key: int = 8) -> None:
        if max_per_key < 1:
            raise ValueError("max_per_key must be >= 1")
        self.max_per_key = max_per_key
        self._pool: Dict[_Key, List[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.released = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _key(shape: Tuple[int, ...], dtype) -> _Key:
        return (tuple(shape), np.dtype(dtype).str)

    def acquire(self, shape: Tuple[int, ...], dtype, zero: bool = False) -> np.ndarray:
        """A buffer of exactly ``shape``/``dtype``; zero-filled when asked.

        The caller owns the returned array until it releases it (directly
        or via the backward pass's automatic release of intermediate
        gradients).  Contents are undefined unless ``zero`` is True.
        """
        key = self._key(shape, dtype)
        with self._lock:
            stack = self._pool.get(key)
            buffer = stack.pop() if stack else None
            if buffer is not None:
                self.hits += 1
            else:
                self.misses += 1
        if buffer is None:
            return np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
        if zero:
            buffer.fill(0.0)
        return buffer

    def release(self, buffer: Optional[np.ndarray]) -> None:
        """Return ``buffer`` to the pool (dropped when the key is full).

        Only exclusively-owned, base-less arrays are poolable; views and
        None are ignored so callers can release unconditionally.
        """
        if buffer is None or buffer.base is not None or not buffer.flags.writeable:
            return
        key = self._key(buffer.shape, buffer.dtype.str)
        with self._lock:
            stack = self._pool.setdefault(key, [])
            if len(stack) < self.max_per_key:
                stack.append(buffer)
                self.released += 1
            else:
                self.dropped += 1

    # ------------------------------------------------------------------
    def pooled_buffers(self) -> int:
        """Number of arrays currently sitting in the pool."""
        with self._lock:
            return sum(len(stack) for stack in self._pool.values())

    def pooled_bytes(self) -> int:
        """Total bytes of the arrays currently pooled."""
        with self._lock:
            return sum(b.nbytes for stack in self._pool.values() for b in stack)

    def stats(self) -> Dict[str, int]:
        """Snapshot of the pool counters (JSON-serializable)."""
        with self._lock:
            pooled = sum(len(stack) for stack in self._pool.values())
            pooled_bytes = sum(b.nbytes for stack in self._pool.values() for b in stack)
        return {
            "hits": self.hits,
            "misses": self.misses,
            "released": self.released,
            "dropped": self.dropped,
            "pooled_buffers": pooled,
            "pooled_bytes": pooled_bytes,
        }

    def clear(self) -> None:
        """Drop every pooled buffer (counters survive)."""
        with self._lock:
            self._pool.clear()


# ----------------------------------------------------------------------
# Process-global activation
# ----------------------------------------------------------------------
_active: Optional[GradArena] = None


def enable(max_per_key: int = 8) -> GradArena:
    """Activate a fresh process-global arena and return it."""
    global _active
    _active = GradArena(max_per_key=max_per_key)
    return _active


def disable() -> None:
    """Deactivate pooling; subsequent backward passes allocate per-grad."""
    global _active
    _active = None


def is_enabled() -> bool:
    """Whether a gradient arena is currently active."""
    return _active is not None


def current() -> Optional[GradArena]:
    """The active arena, or None when pooling is off."""
    return _active


@contextmanager
def active_arena(max_per_key: int = 8, arena: Optional[GradArena] = None) -> Iterator[GradArena]:
    """Scoped activation: restores the previously active arena on exit.

    Pass an existing :class:`GradArena` to re-enter it (the training
    engine shares one arena across a whole run, including nested eval
    probes); otherwise a fresh arena is created for the scope.
    """
    global _active
    previous = _active
    _active = arena if arena is not None else GradArena(max_per_key=max_per_key)
    try:
        yield _active
    finally:
        _active = previous
