"""Optimizers: SGD (with momentum), Adam, AdamW, and LR schedulers.

The paper (and every baseline it compares) trains with Adam; SGD is kept for
the linear-evaluation decoders and tests.  Weight decay is implemented both
as L2-in-the-gradient (classic, ``SGD``/``Adam``) and decoupled (``AdamW``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .module import Parameter


def global_grad_norm(parameters: Iterable[Parameter]) -> Optional[float]:
    """Global l2 norm over every parameter gradient, or None when no
    parameter has a gradient.

    The norm is NaN/Inf whenever any gradient entry is non-finite, which
    is exactly what health guards check — one scalar summarizes the
    numerical state of the whole backward pass.
    """
    total = 0.0
    seen = False
    for param in parameters:
        if param.grad is not None:
            total += float(np.sum(np.square(param.grad)))
            seen = True
    return float(np.sqrt(total)) if seen else None


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def grad_norm(self) -> Optional[float]:
        """Global l2 norm of the current gradients (see
        :func:`global_grad_norm`)."""
        return global_grad_norm(self.parameters)

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing: slot buffers (momentum/Adam moments) keyed generically
    # so the training engine can snapshot any optimizer uniformly — lists of
    # arrays map one-to-one onto the parameter list, scalars ride along.
    def state_dict(self) -> dict:
        """Internal state to checkpoint (beyond the parameters themselves)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; base optimizer has no state."""
        if state:
            raise ValueError(f"unexpected optimizer state keys: {sorted(state)}")

    def _check_slots(self, arrays, label: str) -> List[np.ndarray]:
        """Validate per-parameter slot arrays against the parameter list.

        Slots are cast to each parameter's own dtype so restoring a
        checkpoint into a float32 run keeps the whole update float32.
        """
        if len(arrays) != len(self.parameters):
            raise ValueError(
                f"optimizer state mismatch: {len(arrays)} {label} buffers for "
                f"{len(self.parameters)} parameters"
            )
        arrays = [
            np.asarray(a, dtype=p.data.dtype) for a, p in zip(arrays, self.parameters)
        ]
        for array, param in zip(arrays, self.parameters):
            if array.shape != param.data.shape:
                raise ValueError(
                    f"optimizer {label} shape {array.shape} does not match "
                    f"parameter shape {param.data.shape}"
                )
        return arrays


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and L2 decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, vel in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                grad = vel
            param.data -= self.lr * grad

    def state_dict(self) -> dict:
        """Velocity buffers (one per parameter)."""
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        """Restore velocity buffers saved by :meth:`state_dict`."""
        self._velocity = self._check_slots(state["velocity"], "velocity")


class Adam(Optimizer):
    """Adam (Kingma & Ba) with optional classic L2 weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        """First/second moment buffers plus the shared step counter."""
        return {
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
            "t": self._t,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore moments and step counter saved by :meth:`state_dict`."""
        self._m = self._check_slots(state["m"], "m")
        self._v = self._check_slots(state["v"], "v")
        self._t = int(state["t"])


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def step(self) -> None:
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            if decay:
                for param in self.parameters:
                    if param.grad is not None:
                        param.data -= self.lr * decay * param.data
            super().step()
        finally:
            self.weight_decay = decay
