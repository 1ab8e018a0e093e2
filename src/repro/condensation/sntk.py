"""Structure-based neural tangent kernels and kernel ridge regression.

GC-SNTK (Wang et al., WebConf 2024) reformulates graph condensation as a
kernel ridge regression (KRR) problem: the condensed node features act as
"support" points of a KRR model whose kernel is a neural tangent kernel
computed on structure-propagated features.  This module provides

* :func:`relu_ntk` — the exact NTK of an ``L``-layer infinitely-wide ReLU MLP,
* :func:`linear_structure_kernel` — the (differentiation-friendly) NTK of a
  linear model on propagated features, used inside the condensation loop,
* :class:`KernelRidgeRegression` — the prediction model used in place of a
  trained GNN when evaluating GC-SNTK condensed graphs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CondensationError


def _pairwise_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ np.asarray(y, dtype=np.float64).T


def relu_ntk(x: np.ndarray, y: np.ndarray, depth: int = 2) -> np.ndarray:
    """NTK of an infinitely wide ``depth``-layer ReLU network between ``x`` and ``y``.

    Uses the standard arc-cosine recursion.  ``depth=2`` corresponds to one
    hidden layer, which is the setting used by GC-SNTK.
    """
    if depth < 1:
        raise CondensationError(f"depth must be >= 1, got {depth}")
    sigma = _pairwise_inner(x, y)
    sigma_xx = np.sum(np.asarray(x, dtype=np.float64) ** 2, axis=1)
    sigma_yy = np.sum(np.asarray(y, dtype=np.float64) ** 2, axis=1)
    theta = sigma.copy()
    for _ in range(depth - 1):
        norms = np.sqrt(np.outer(sigma_xx, sigma_yy)) + 1e-12
        cosine = np.clip(sigma / norms, -1.0, 1.0)
        angle = np.arccos(cosine)
        sigma_next = (norms / (2.0 * np.pi)) * (np.sin(angle) + (np.pi - angle) * cosine)
        derivative = (np.pi - angle) / (2.0 * np.pi)
        theta = theta * derivative + sigma_next
        sigma = sigma_next
        sigma_xx = sigma_xx / 2.0
        sigma_yy = sigma_yy / 2.0
    return theta


def linear_structure_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel of a linear model: the plain Gram matrix ``X Y^T``."""
    return _pairwise_inner(x, y)


class KernelRidgeRegression:
    """Multi-class KRR classifier over a fixed support set.

    Fitting solves ``(K_ss + λ I) α = Y_onehot`` once; prediction multiplies
    the query-support kernel by ``α`` and takes the argmax.

    Parameters
    ----------
    ridge:
        Regularisation strength λ.
    kernel:
        ``"relu"`` for the arc-cosine NTK (:func:`relu_ntk`) or ``"linear"``
        for the plain Gram kernel — the latter matches the differentiable
        kernel used inside the GC-SNTK condensation loop.
    depth:
        Network depth for the ReLU NTK (ignored for the linear kernel).
    """

    def __init__(self, ridge: float = 1e-3, kernel: str = "linear", depth: int = 2) -> None:
        if ridge <= 0:
            raise CondensationError(f"ridge must be positive, got {ridge}")
        if kernel not in ("relu", "linear"):
            raise CondensationError(f"kernel must be 'relu' or 'linear', got {kernel!r}")
        self.ridge = ridge
        self.kernel = kernel
        self.depth = depth
        self._support: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._num_classes = 0

    def _kernel(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kernel == "relu":
            return relu_ntk(x, y, depth=self.depth)
        return linear_structure_kernel(x, y)

    def fit(self, support_features: np.ndarray, support_labels: np.ndarray) -> "KernelRidgeRegression":
        support_features = np.asarray(support_features, dtype=np.float64)
        support_labels = np.asarray(support_labels, dtype=np.int64)
        self._num_classes = int(support_labels.max()) + 1
        targets = np.zeros((support_labels.shape[0], self._num_classes))
        targets[np.arange(support_labels.shape[0]), support_labels] = 1.0
        kernel = self._kernel(support_features, support_features)
        kernel = kernel + self.ridge * np.eye(kernel.shape[0])
        self._alpha = np.linalg.solve(kernel, targets)
        self._support = support_features
        return self

    def decision_function(self, query_features: np.ndarray) -> np.ndarray:
        """Raw per-class scores for ``query_features``."""
        if self._support is None or self._alpha is None:
            raise CondensationError("KernelRidgeRegression.predict called before fit")
        kernel = self._kernel(np.asarray(query_features, dtype=np.float64), self._support)
        return kernel @ self._alpha

    def predict(self, query_features: np.ndarray) -> np.ndarray:
        """Hard class predictions for ``query_features``."""
        return np.argmax(self.decision_function(query_features), axis=1)
