"""Reverse-mode autodiff engine (the reproduction's PyTorch substitute).

Public surface::

    from repro.autograd import Tensor, Parameter, Module, ops, functional
    from repro.autograd.optim import Adam, SGD
"""

from . import functional, init, ops
from .gradcheck import GradcheckResult, gradcheck
from .module import Module, Parameter
from .optim import SGD, Adam, AdamW, global_grad_norm
from .tensor import (
    Tensor,
    default_dtype,
    ensure_tensor,
    get_default_dtype,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "ensure_tensor",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "gradcheck",
    "GradcheckResult",
    "Parameter",
    "Module",
    "SGD",
    "Adam",
    "AdamW",
    "global_grad_norm",
    "ops",
    "functional",
    "init",
]
