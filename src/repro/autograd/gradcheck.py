"""Finite-difference gradient verification for the autograd engine.

:func:`gradcheck` compares every analytic gradient produced by a function's
backward pass against central finite differences of its forward pass.  The
function's (possibly non-scalar) output is reduced to a scalar through a
fixed random cotangent, so a single check exercises the full output
Jacobian structure instead of just ``sum(output)``:

    loss(x) = sum(f(x) * c),   c ~ U(-1, 1) fixed per check

For ``float64`` inputs, central differences with ``eps = 1e-6`` carry
roughly ``1e-10`` of combined truncation + roundoff error, so the default
``1e-4`` tolerance detects any genuinely wrong backward formula while
staying robust to conditioning.

Requirements on ``fn``: deterministic (stochastic ops must rebuild their
generator from a fixed seed on every call, so the same mask is drawn) and
differentiable on a neighborhood of the supplied points (keep inputs away
from kinks such as ``relu``'s origin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from . import ops
from .tensor import Tensor, default_dtype


@dataclass
class GradcheckResult:
    """Outcome of one :func:`gradcheck` call.

    Attributes
    ----------
    passed:
        True when every gradient entry matched within tolerance.
    max_abs_error:
        Largest ``|analytic - numeric|`` over all inputs and elements.
    failures:
        Human-readable description of each mismatching entry (empty when
        ``passed``).
    """

    passed: bool
    max_abs_error: float
    failures: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    eps: float = 1e-6,
    atol: float = 1e-4,
    rtol: float = 1e-4,
    cotangent_seed: int = 0,
    raise_on_failure: bool = True,
) -> GradcheckResult:
    """Verify ``fn``'s backward pass against central finite differences.

    Parameters
    ----------
    fn:
        Maps one :class:`Tensor` per entry of ``inputs`` to an output
        tensor (any shape).  Constant arguments (labels, sparse matrices,
        hyperparameters) should be closed over.
    inputs:
        Float arrays; each becomes a ``requires_grad`` leaf tensor.
    eps:
        Central-difference step.
    atol / rtol:
        Entry ``(a, n)`` fails when ``|a - n| > atol + rtol * |n|``.
    cotangent_seed:
        Seed for the fixed random cotangent that scalarizes the output.
    raise_on_failure:
        Raise :class:`AssertionError` listing the mismatches (default)
        instead of returning a failed result.
    """
    # Finite differences need float64 headroom regardless of the process
    # default precision.
    with default_dtype(np.float64):
        return _gradcheck_f64(
            fn, inputs, eps, atol, rtol, cotangent_seed, raise_on_failure
        )


def _gradcheck_f64(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    eps: float,
    atol: float,
    rtol: float,
    cotangent_seed: int,
    raise_on_failure: bool,
) -> GradcheckResult:
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]

    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    cotangent = np.random.default_rng(cotangent_seed).uniform(
        -1.0, 1.0, size=np.shape(out.data)
    )

    def scalar_loss(*tensors: Tensor) -> Tensor:
        return ops.sum(ops.mul(fn(*tensors), cotangent))

    loss = scalar_loss(*leaves)
    loss.backward()
    analytic = [
        np.zeros_like(a) if leaf.grad is None else np.array(leaf.grad, dtype=np.float64)
        for a, leaf in zip(arrays, leaves)
    ]

    def loss_value(perturbed: List[np.ndarray]) -> float:
        value = scalar_loss(*[Tensor(p) for p in perturbed])
        return float(value.data)

    failures: List[str] = []
    max_abs_error = 0.0
    for which, base in enumerate(arrays):
        numeric = np.zeros_like(base)
        flat = numeric.reshape(-1)
        for i in range(base.size):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[which].reshape(-1)[i] += eps
            minus[which].reshape(-1)[i] -= eps
            flat[i] = (loss_value(plus) - loss_value(minus)) / (2.0 * eps)
        diff = np.abs(analytic[which] - numeric)
        max_abs_error = max(max_abs_error, float(diff.max(initial=0.0)))
        bad = diff > atol + rtol * np.abs(numeric)
        for idx in np.argwhere(bad):
            key = tuple(int(v) for v in idx)
            failures.append(
                f"input {which} at {key}: analytic "
                f"{analytic[which][key]:.8g} vs numeric {numeric[key]:.8g}"
            )

    result = GradcheckResult(
        passed=not failures, max_abs_error=max_abs_error, failures=failures
    )
    if raise_on_failure and not result.passed:
        shown = "\n  ".join(failures[:10])
        more = f"\n  ... and {len(failures) - 10} more" if len(failures) > 10 else ""
        raise AssertionError(
            f"gradcheck failed ({len(failures)} mismatching entries, "
            f"max abs error {max_abs_error:.3g}):\n  {shown}{more}"
        )
    return result
