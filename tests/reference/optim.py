"""The allocating Adam update that :meth:`repro.autograd.Adam.step` replaced."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.autograd import Adam


class ReferenceAdam(Adam):
    """Adam with the textbook expression: new arrays for every intermediate.

    The production :class:`~repro.autograd.Adam` must stay bit-identical to
    this, parameter for parameter and step for step.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._first_moment.get(id(param), np.zeros_like(param.data))
            v = self._second_moment.get(id(param), np.zeros_like(param.data))
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad ** 2
            self._first_moment[id(param)] = m
            self._second_moment[id(param)] = v
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
