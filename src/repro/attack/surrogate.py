"""The linear SGC surrogate every attack fits.

BGC and DOORPING fit it on each epoch's condensed graph, GTA on the original
graph, PRBCD on the attacker's flipped labels and the injection attack on
the clean graph.  Each caller propagates its own rows and picks its targets;
the fit itself is one Adam run from a fresh weight.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Adam, Parameter
from repro.autograd.functional import _weighted_targets
from repro.kernels import active_backend


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

    Each step makes the kernel calls the autograd tape would make for
    ``cross_entropy(Tensor(inputs).matmul(W), targets).backward()``, on the
    same operands in the same order, without building the tape: the logits
    product, the fused softmax cross-entropy, its gradient seeded with ones,
    and ``W.grad = inputsᵀ g``.  The fitted weight is therefore bit-identical
    to the tape loop pinned in ``tests/reference/surrogate.py``.
    """
    weight = Parameter(rng.normal(scale=0.1, size=(inputs.shape[1], num_classes)))
    optimizer = Adam([weight], lr=lr)
    features = np.asarray(inputs, dtype=np.float64)
    features_t = features.T
    weighted = _weighted_targets((features.shape[0], num_classes), targets, None)
    backend = active_backend()
    for _ in range(steps):
        loss, probs = backend.softmax_xent(backend.matmul(features, weight.data), weighted)
        grad = backend.softmax_xent_grad(np.ones_like(loss), probs, weighted)
        weight.grad = backend.matmul(features_t, grad)
        optimizer.step()
    return weight.data.copy()
