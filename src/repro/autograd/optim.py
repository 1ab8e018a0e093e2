"""First-order optimisers for :class:`~repro.autograd.module.Parameter` lists."""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.exceptions import AutogradError


class Optimizer:
    """Base optimiser: tracks a parameter list and clears their gradients."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise AutogradError("optimizer constructed with an empty parameter list")
        if not 0 < lr < math.inf:
            raise AutogradError(f"learning rate must be positive and finite, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Reset gradients of all tracked parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with optional weight decay.

    :meth:`step` updates each parameter's array in place.  The optimiser's
    state is four flat arrays over the whole parameter list, allocated at
    the first step: the two moments and two scratch arrays, each with one
    reshaped view per parameter.  When every parameter has a gradient, only
    the products that read a parameter's own ``data`` or ``grad`` and the
    final ``data -= update`` run per parameter; every other elementwise
    operation is one call over the flat arrays.  When some gradient is
    ``None``, the same update runs on each other parameter's views alone,
    and the moments of those without a gradient stay as they were.

    Parameters keep their own ``data`` and ``grad`` arrays, never views into
    this state: ``load_state_dict`` rebinds ``data`` and the stage memo
    freezes it.  Every elementwise operation keeps the order of the textbook
    expression, so the result is bit-identical to the allocating update
    (pinned against ``tests/reference/optim.py``).
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise AutogradError(f"betas must lie in [0, 1), got {betas}")
        if not 0.0 <= weight_decay < math.inf:
            raise AutogradError(
                f"weight_decay must be finite and non-negative, got {weight_decay}"
            )
        if len({id(param) for param in self.parameters}) != len(self.parameters):
            raise AutogradError("optimizer lists a parameter more than once")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        #: Flat ``(m, v, update, denom)`` over all parameters, then the
        #: per-parameter views of those four arrays.
        self._flat: Tuple[np.ndarray, ...] = ()
        self._views: List[Tuple[np.ndarray, ...]] = []

    def _allocate(self) -> None:
        sizes = [param.data.size for param in self.parameters]
        self._flat = tuple(np.zeros(sum(sizes)) for _ in range(4))
        offset = 0
        for param, size in zip(self.parameters, sizes):
            shape = param.data.shape
            self._views.append(
                tuple(flat[offset : offset + size].reshape(shape) for flat in self._flat)
            )
            offset += size

    def step(self) -> None:
        self._step_count += 1
        if not self._flat:
            self._allocate()
        pairs = list(zip(self.parameters, self._views))
        for param in self.parameters:
            if param.grad is None:
                break
        else:
            self._update(self._flat, pairs)
            return
        for param, views in pairs:
            if param.grad is not None:
                self._update(views, [(param, views)])

    def _update(self, state: Tuple[np.ndarray, ...], pairs: list) -> None:
        """One Adam update of the parameters in ``pairs`` (each with its views
        of the state), with ``state`` the ``(m, v, update, denom)`` arrays that
        cover exactly those views."""
        m, v, update, denom = state
        beta1, beta2, t = self.beta1, self.beta2, self._step_count
        if self.weight_decay:
            # grad + wd * p; float addition commutes bit for bit.
            for param, (_, _, grad, _) in pairs:
                np.multiply(param.data, self.weight_decay, out=grad)
                grad += param.grad
            # m = beta1 * m + (1 - beta1) * grad
            m *= beta1
            m += np.multiply(update, 1.0 - beta1, out=denom)
            np.multiply(update, update, out=denom)
        else:
            for param, (_, _, scaled, squared) in pairs:
                np.multiply(param.grad, 1.0 - beta1, out=scaled)
                np.multiply(param.grad, param.grad, out=squared)
            m *= beta1
            m += update
        # v = beta2 * v + (1 - beta2) * grad ** 2
        v *= beta2
        denom *= 1.0 - beta2
        v += denom
        # p -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1.0 - beta2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, 1.0 - beta1 ** t, out=update)
        update *= self.lr
        update /= denom
        for param, (_, _, delta, _) in pairs:
            param.data -= delta
