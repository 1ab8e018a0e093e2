"""The per-class gradient that the one-pass gradient routine replaced.

:func:`repro.condensation.gradient_matching.all_class_model_gradients`
derives every class's closed-form gradient from one softmax pass;
:func:`per_class_model_gradient` is the routine it replaced, one logits and
softmax pass per class.
"""

from __future__ import annotations

import numpy as np


def per_class_model_gradient(
    propagated: np.ndarray,
    labels: np.ndarray,
    weight: np.ndarray,
    index: np.ndarray,
    num_classes: int,
) -> np.ndarray:
    """Closed-form gradient of the CE loss of a linear model w.r.t. ``weight``.

    Parameters
    ----------
    propagated:
        ``(N, d)`` propagated feature matrix ``H``.
    labels:
        ``(N,)`` integer labels.
    weight:
        ``(d, C)`` current surrogate weight.
    index:
        Node subset over which the loss is computed.
    num_classes:
        Total number of classes ``C``.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        return np.zeros_like(weight)
    h = propagated[index]
    logits = h @ weight
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    targets = np.zeros_like(probs)
    targets[np.arange(index.size), labels[index]] = 1.0
    return h.T @ (probs - targets) / index.size
