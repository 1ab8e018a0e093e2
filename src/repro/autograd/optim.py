"""First-order optimisers for :class:`~repro.autograd.module.Parameter` lists."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.exceptions import AutogradError


class Optimizer:
    """Base optimiser: tracks a parameter list and clears their gradients."""

    def __init__(self, parameters: Iterable[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise AutogradError("optimizer constructed with an empty parameter list")
        if lr <= 0:
            raise AutogradError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Reset gradients of all tracked parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with optional weight decay.

    :meth:`step` updates each parameter's array in place through persistent
    per-parameter buffers: the two moments plus two scratch arrays, allocated
    at the parameter's first update.  Every elementwise operation keeps the
    order of the textbook expression, so the result is bit-identical to the
    allocating update (pinned against ``tests/reference/optim.py``).
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
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        #: ``(m, v, update, denom)`` per parameter, keyed by ``id(param)``.
        self._buffers: Dict[int, Tuple[np.ndarray, ...]] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        beta1, beta2 = self.beta1, self.beta2
        for param in self.parameters:
            if param.grad is None:
                continue
            buffers = self._buffers.get(id(param))
            if buffers is None:
                buffers = tuple(np.zeros_like(param.data) for _ in range(4))
                self._buffers[id(param)] = buffers
            m, v, update, denom = buffers
            grad = param.grad
            if self.weight_decay:
                # grad + wd * p; float addition commutes bit for bit.
                grad = np.multiply(param.data, self.weight_decay, out=update)
                grad += param.grad
            # m = beta1 * m + (1 - beta1) * grad
            m *= beta1
            m += np.multiply(grad, 1.0 - beta1, out=denom)
            # v = beta2 * v + (1 - beta2) * grad ** 2
            v *= beta2
            np.multiply(grad, grad, out=denom)
            denom *= 1.0 - beta2
            v += denom
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(v, 1.0 - beta2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, 1.0 - beta1 ** t, out=update)
            update *= self.lr
            update /= denom
            param.data -= update
