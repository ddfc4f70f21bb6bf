"""Lightweight module system: parameters, module trees, state dicts.

Mirrors the shape of ``torch.nn.Module`` closely enough that the GCN /
MLP / baseline code reads like the original paper implementations, while
staying a few hundred lines of plain Python.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as trainable state of a :class:`Module`."""

    def __init__(self, data, name: str = "") -> None:
        # Tensor.__init__ coerces to the configured default dtype, so
        # parameters follow set_default_dtype like every other tensor.
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for models: tracks parameters and sub-modules by attribute.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` walks the resulting tree.  A ``training``
    flag gates dropout and other train-only behaviour.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its descendants (stable order)."""
        params: List[Parameter] = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield (dotted-path, parameter) pairs over the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode on this module and all descendants."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Switch to inference mode (disables dropout etc.)."""
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted path."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters from a :meth:`state_dict` (strict matching)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}")
            param.data = state[name].copy()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.data.size for p in self.parameters())

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        """Compute the module's output; subclasses override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
