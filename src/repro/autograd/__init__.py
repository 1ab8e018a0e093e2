"""A small reverse-mode automatic-differentiation engine on numpy.

This subpackage replaces PyTorch autograd in the original BGC implementation.
It provides:

* :class:`~repro.autograd.tensor.Tensor` — an n-d array wrapper carrying a
  gradient and a backward closure,
* differentiable primitives (matmul, sparse matmul, elementwise ops,
  reductions, softmax/log-softmax, …) exposed as ``Tensor`` methods and in
  :mod:`repro.autograd.functional`,
* :class:`~repro.autograd.module.Module` / :class:`~repro.autograd.module.Linear`
  building blocks with parameter management,
* the :class:`~repro.autograd.optim.Adam` optimiser.

The engine supports single backward passes, which is all BGC needs once the
condensation surrogate's parameter gradient is written in closed form (see
``DESIGN.md``).
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd import functional
from repro.autograd.module import Module, Parameter, Linear, Sequential, Dropout, ReLU
from repro.autograd.optim import Adam, Optimizer

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "Sequential",
    "Dropout",
    "ReLU",
    "Adam",
    "Optimizer",
]
