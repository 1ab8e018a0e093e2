"""The linear SGC surrogate every attack fits.

BGC and DOORPING fit it on each epoch's condensed graph, GTA on the original
graph, PRBCD on the attacker's flipped labels and the injection attack on
the clean graph.  Each caller propagates its own rows and picks its targets;
the fit itself is one autograd Adam run from a fresh weight.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Adam, Parameter, Tensor
from repro.autograd import functional as F


def fit_linear_surrogate(
    inputs: np.ndarray,
    targets: np.ndarray,
    num_classes: int,
    steps: int,
    lr: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fit ``softmax(inputs @ W)`` to ``targets`` with ``steps`` Adam steps.

    ``W`` has shape ``(inputs.shape[1], num_classes)`` and starts from
    ``rng.normal(scale=0.1)``, the fit's only draw from ``rng``.  Returns a
    copy of the fitted ``W``.
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
