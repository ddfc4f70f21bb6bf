"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper trains GCN encoders with gradient descent through PyTorch, and this
``Tensor`` class provides the equivalent capability on top of numpy.

Design notes
------------
* A :class:`Tensor` wraps an ``np.ndarray`` (``data``) and, when it is the
  result of an operation, remembers its parents and a ``_backward`` closure
  that scatters its output gradient into the parents' ``grad`` buffers.
* ``Tensor.backward()`` performs a topological sort of the recorded graph and
  runs the closures in reverse order.  Gradients accumulate (+=), matching
  the semantics of every mainstream framework.
* Broadcasting is fully supported for elementwise arithmetic; gradients are
  "un-broadcast" (summed over broadcast axes) before accumulation.
* Sparse matrices (scipy CSR) participate as *constants* through
  :func:`repro.autograd.ops.spmm`; graph structure never requires gradients
  in any model of the paper.

* Like PyTorch, only leaves keep their gradients: once a node's closure has
  consumed its ``grad``, :meth:`Tensor.backward` drops it, so a backward
  pass holds at most the gradients still waiting to be propagated.  The
  root keeps its (accumulated) gradient too.

The engine is intentionally eager and minimal: there are no higher-order
gradients and no in-place op tracking, neither of which the models
reproduced here need.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Process-wide dtype every tensor is coerced to.  float64 is the historical
#: (and test-locked) default; float32 halves memory traffic end-to-end and is
#: selected per run via :func:`set_default_dtype` / :func:`default_dtype`.
_DEFAULT_DTYPE = np.dtype(np.float64)

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype) -> None:
    """Set the process-wide tensor dtype (``float32`` or ``float64``).

    Everything downstream follows: tensor coercion, parameter
    initialization, optimizer slot buffers, and (through them) checkpoint
    and serving artifacts.  Training at float32 halves the memory traffic
    of every kernel; see docs/PERFORMANCE.md for the accuracy tolerances
    measured against float64.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported default dtype {dtype!r}; pick float32 or float64"
        )
    _DEFAULT_DTYPE = resolved


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are coerced to (float64 unless configured)."""
    return _DEFAULT_DTYPE


@contextmanager
def default_dtype(dtype) -> Iterator[np.dtype]:
    """Scoped :func:`set_default_dtype`; restores the previous dtype on exit."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield _DEFAULT_DTYPE
    finally:
        set_default_dtype(previous)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``value`` to a float numpy array without copying when possible.

    ``dtype=None`` (the usual case) resolves to the configured default
    dtype, so one :func:`set_default_dtype` call re-types every tensor the
    process creates from then on.
    """
    if dtype is None:
        dtype = _DEFAULT_DTYPE
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, undoing numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the tensor's value.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    parents:
        Tensors this one was computed from (internal, set by operations).
    backward_fn:
        Closure that receives this tensor's output gradient and accumulates
        into the parents (internal, set by operations).
    name:
        Optional debugging label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Iterable["Tensor"] = (),
        backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        from . import ops

        return ops.transpose(self)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the autodiff graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def _accumulate_grad(self, grad: np.ndarray, donate: bool = False) -> None:
        """Add ``grad`` into :attr:`grad` (allocating it on first touch).

        ``donate=True`` promises the caller computed ``grad`` as a fresh
        temporary it will never touch again, letting the first
        accumulation take ownership instead of copying — the zero-copy
        path every fused kernel and hot backward closure uses.
        """
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            if donate and grad.base is None and grad.flags.writeable:
                self.grad = grad
            else:
                self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Each call adds exactly one gradient of this tensor into every leaf
        reached (``requires_grad`` tensors without a backward closure,
        e.g. :class:`~repro.autograd.module.Parameter`) and into this
        tensor's own :attr:`grad`.  Every other node's :attr:`grad` is
        ``None`` afterwards: it holds only this call's contributions while
        the pass runs and is dropped once its closure has consumed it, so
        the closure owns the array and may overwrite it.  Repeated calls,
        on the same graph or on graphs sharing intermediates, accumulate
        like one call on the summed objective.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1`` which is only valid for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor; got shape {self.shape}"
                )
            seed = np.ones_like(self.data)
        else:
            # Private copy: the closures may overwrite it.
            seed = np.array(grad, dtype=self.data.dtype)

        inner = self._topological_order()[:-1]  # post-order: self comes last
        # Intermediates start empty, so a grad left on one (say, by an
        # earlier call that used it as the root) cannot leak into this pass.
        for node in inner:
            if node._backward_fn is not None:
                node.grad = None
        # The root keeps a copy; the seed itself goes to the root's closure,
        # which (like every closure) may overwrite the array it receives.
        self._accumulate_grad(seed)
        if self._backward_fn is not None:
            self._backward_fn(seed)
        for node in reversed(inner):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                # Reverse topological order: every consumer has already
                # contributed, and the closure was the grad's only reader.
                node.grad = None

    def _topological_order(self) -> List["Tensor"]:
        """Iterative post-order DFS (avoids recursion limits on deep graphs)."""
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # Operator overloads (delegated to the functional ops module)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from . import ops

        return ops.div(other, self)

    def __neg__(self):
        from . import ops

        return ops.neg(self)

    def __pow__(self, exponent: float):
        from . import ops

        return ops.power(self, exponent)

    def __matmul__(self, other):
        from . import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from . import ops

        return ops.index(self, index)

    # Convenience reductions / shapes -----------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from . import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from . import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)


def ensure_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Wrap plain arrays/scalars in a constant (non-grad) :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def no_grad_tensor(data: ArrayLike) -> Tensor:
    """Explicit constructor for constants; mirrors ``torch.tensor`` defaults."""
    return Tensor(data, requires_grad=False)
