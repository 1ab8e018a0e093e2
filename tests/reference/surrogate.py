"""The autograd-tape surrogate fit that
:func:`repro.attack.surrogate.fit_linear_surrogate` replaced."""

from __future__ import annotations

import numpy as np

from repro.autograd import Adam, Parameter, Tensor
from repro.autograd import functional as F


def tape_fit_linear_surrogate(
    inputs: np.ndarray,
    targets: np.ndarray,
    num_classes: int,
    steps: int,
    lr: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """``softmax(inputs @ W)`` fitted to ``targets`` on the tape; a copy of ``W``.

    The shipped fit must return the same bytes and leave ``rng`` in the same
    state.
    """
    weight = Parameter(rng.normal(scale=0.1, size=(inputs.shape[1], num_classes)))
    optimizer = Adam([weight], lr=lr)
    features = Tensor(inputs)
    for _ in range(steps):
        optimizer.zero_grad()
        loss = F.cross_entropy(features.matmul(weight), targets)
        loss.backward()
        optimizer.step()
    return weight.data.copy()
