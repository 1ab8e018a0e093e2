"""Differentiable functional building blocks used by the GNN models.

Everything here composes :class:`~repro.autograd.tensor.Tensor` primitives, so
gradients flow without any additional backward rules except for the fused
``log_softmax`` (implemented with its own numerically-stable vjp).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, is_grad_enabled, sparse_matmul
from repro.exceptions import AutogradError
from repro.kernels import active_backend

__all__ = [
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "dropout",
    "dropout_mask",
    "spmm",
    "one_hot",
    "l2_norm_squared",
    "straight_through_binarize",
    "transpose_last2",
    "batched_matmul",
    "batched_gcn_normalize",
    "embed_blocks",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """Leaky rectified linear unit: ``x`` where positive, ``slope * x`` elsewhere.

    Composed as an elementwise product with the constant slope mask, so the
    existing multiply vjp yields the exact piecewise derivative (the
    non-differentiable point at 0 takes the negative-slope branch).
    """
    mask = (x.data > 0).astype(np.float64)
    scale = mask + negative_slope * (1.0 - mask)
    return x * Tensor(scale)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def spmm(matrix, x: Tensor) -> Tensor:
    """Sparse-dense matrix product (alias of :func:`sparse_matmul`)."""
    return sparse_matmul(matrix, x)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=axis, keepdims=True)
    log_probs = shifted - np.log(denom)
    probs = exp / denom

    def vjp(g: np.ndarray) -> np.ndarray:
        return g - probs * g.sum(axis=axis, keepdims=True)

    if not is_grad_enabled() or not x.requires_grad:
        return Tensor(log_probs, requires_grad=False)
    return Tensor(log_probs, requires_grad=True, parents=[(x, vjp)])


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (via :func:`log_softmax` for stability)."""
    return log_softmax(x, axis=axis).exp()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a dense one-hot encoding of integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise AutogradError(f"one_hot expects a 1-D label array, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise AutogradError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoding = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoding[np.arange(labels.shape[0]), labels] = 1.0
    return encoding


def nll_loss(log_probs: Tensor, labels: np.ndarray, weights: Optional[np.ndarray] = None) -> Tensor:
    """Negative log-likelihood given log-probabilities and integer labels.

    Parameters
    ----------
    log_probs:
        Tensor of shape ``(n, C)`` containing log-probabilities.
    labels:
        Integer class indices of shape ``(n,)``.
    weights:
        Optional per-example weights of shape ``(n,)``; defaults to uniform.
    """
    weighted_targets = _weighted_targets(log_probs.shape, labels, weights)
    picked = log_probs * Tensor(weighted_targets)
    return -picked.sum()


def _weighted_targets(
    shape, labels: np.ndarray, weights: Optional[np.ndarray]
) -> np.ndarray:
    """One-hot targets scaled by normalised per-example weights.

    Shared by the unfused :func:`nll_loss` and the fused
    :func:`cross_entropy` so the two paths validate and normalise
    identically (bit for bit).
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, num_classes = shape
    if labels.shape[0] != n:
        raise AutogradError(
            f"labels length {labels.shape[0]} does not match batch size {n}"
        )
    targets = one_hot(labels, num_classes)
    if weights is None:
        weights = np.full(n, 1.0 / max(n, 1))
    else:
        weights = np.asarray(weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            raise AutogradError("weights must sum to a positive value")
        weights = weights / total
    return targets * weights[:, None]


def cross_entropy(
    logits: Tensor, labels: np.ndarray, weights: Optional[np.ndarray] = None
) -> Tensor:
    """Softmax cross-entropy between ``logits`` and integer ``labels``.

    Runs the kernel backend's fused ``softmax_xent`` pass — one traversal
    for the loss and the saved probabilities instead of the
    ``nll_loss(log_softmax(...))`` chain's four tensor nodes.  The fused
    kernels replay the chain's operation order exactly, so loss and
    gradients stay bit-identical to the unfused composition (asserted in
    ``tests/test_kernel_conformance.py``).
    """
    if logits.ndim != 2:
        raise AutogradError(
            f"cross_entropy expects (n, C) logits, got shape {logits.shape}"
        )
    weighted_targets = _weighted_targets(logits.shape, labels, weights)
    loss, probs = active_backend().softmax_xent(logits.data, weighted_targets)

    def vjp(g: np.ndarray) -> np.ndarray:
        return active_backend().softmax_xent_grad(g, probs, weighted_targets)

    if not is_grad_enabled() or not logits.requires_grad:
        return Tensor(loss, requires_grad=False)
    return Tensor(loss, requires_grad=True, parents=[(logits, vjp)])


def mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    target_tensor = Tensor(np.asarray(target, dtype=np.float64))
    diff = prediction - target_tensor
    return (diff * diff).mean()


def l2_norm_squared(x: Tensor) -> Tensor:
    """Squared Frobenius norm of a tensor."""
    return (x * x).sum()


def straight_through_binarize(x: Tensor, threshold: float = 0.5) -> Tensor:
    """Binarise in the forward pass, identity gradient in the backward pass.

    Used for generated trigger adjacencies: the graph structure is discrete,
    so the forward value is ``x > threshold`` while gradients flow as if the
    operation were the identity (straight-through estimator).
    """
    binary = (x.data > threshold).astype(np.float64)
    if not is_grad_enabled() or not x.requires_grad:
        return Tensor(binary, requires_grad=False)
    return Tensor(binary, requires_grad=True, parents=[(x, lambda g: g)])


def transpose_last2(x: Tensor) -> Tensor:
    """Swap the last two axes of an ``(..., m, n)`` tensor.

    The batched counterpart of :attr:`Tensor.T`: applied to a stack of
    matrices it transposes each matrix independently, which is what the
    batched trigger loss needs to symmetrise ``(B, t, t)`` structure blocks.
    """
    if x.ndim < 2:
        raise AutogradError(f"transpose_last2 expects ndim >= 2, got shape {x.shape}")
    out_data = active_backend().transpose_last2(x.data)

    def vjp(g: np.ndarray) -> np.ndarray:
        return np.swapaxes(g, -1, -2)

    if not is_grad_enabled() or not x.requires_grad:
        return Tensor(out_data, requires_grad=False)
    return Tensor(out_data, requires_grad=True, parents=[(x, vjp)])


def batched_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``(B, m, k) @ (B, k, n) -> (B, m, n)``.

    Both operands must carry the same leading batch dimension; the vjps are
    the batched analogues of the 2-D matmul rules.
    """
    a = Tensor._ensure_tensor(a)
    b = Tensor._ensure_tensor(b)
    if a.ndim != 3 or b.ndim != 3:
        raise AutogradError(
            f"batched_matmul expects 3-D operands, got {a.shape} and {b.shape}"
        )
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise AutogradError(
            f"batched_matmul shapes incompatible: {a.shape} and {b.shape}"
        )
    a_data, b_data = a.data, b.data
    out_data = active_backend().batched_matmul(a_data, b_data)
    parents = [
        (a, lambda g: active_backend().batched_matmul(g, np.swapaxes(b_data, -1, -2))),
        (b, lambda g: active_backend().batched_matmul(np.swapaxes(a_data, -1, -2), g)),
    ]
    requires = a.requires_grad or b.requires_grad
    if not is_grad_enabled() or not requires:
        return Tensor(out_data, requires_grad=False)
    return Tensor(out_data, requires_grad=True, parents=parents)


def batched_gcn_normalize(adjacency: Tensor, epsilon: float = 1e-12) -> Tensor:
    """Fused symmetric GCN normalisation of ``(B, m, m)`` adjacency blocks.

    Computes ``D^-1/2 (A + I) D^-1/2`` per block with one analytic vjp
    instead of chaining add / sum / pow / mul / transpose primitives: the
    unfused chain materialises an ``(B, m, m)`` intermediate (plus its
    upstream gradient) per primitive, which made the normalisation the
    dominant cost of a trigger-generator step.  Forward values match the
    primitive chain ``(L * s) * transpose_last2(s)`` exactly — same operation
    order, same ``epsilon`` placement — and the vjp is the sum of the three
    chain-rule paths (direct product term plus the two degree terms through
    ``s = (d + epsilon) ** -0.5``).
    """
    adjacency = Tensor._ensure_tensor(adjacency)
    if adjacency.ndim != 3 or adjacency.shape[-1] != adjacency.shape[-2]:
        raise AutogradError(
            f"batched_gcn_normalize expects (B, m, m) blocks, got {adjacency.shape}"
        )
    m = adjacency.shape[-1]
    with_loops = adjacency.data + np.eye(m)
    degrees = with_loops.sum(axis=2, keepdims=True)
    inv_sqrt = (degrees + epsilon) ** -0.5
    inv_sqrt_t = np.swapaxes(inv_sqrt, -1, -2)
    out_data = (with_loops * inv_sqrt) * inv_sqrt_t

    def vjp(g: np.ndarray) -> np.ndarray:
        ds_row = (g * with_loops * inv_sqrt_t).sum(axis=2, keepdims=True)
        ds_col = (g * with_loops * inv_sqrt).sum(axis=1, keepdims=True)
        ds = ds_row + np.swapaxes(ds_col, -1, -2)
        dd = -0.5 * (degrees + epsilon) ** -1.5 * ds
        return g * inv_sqrt * inv_sqrt_t + dd

    if not is_grad_enabled() or not adjacency.requires_grad:
        return Tensor(out_data, requires_grad=False)
    return Tensor(out_data, requires_grad=True, parents=[(adjacency, vjp)])


def embed_blocks(base: np.ndarray, blocks: Tensor, row_start: int, col_start: int) -> Tensor:
    """Write differentiable sub-blocks into a constant batched matrix.

    ``base`` is a constant ``(B, m, m)`` array; ``blocks`` is a ``(B, t, s)``
    tensor scattered into ``base[:, row_start:row_start+t,
    col_start:col_start+s]``.  The gradient w.r.t. ``blocks`` is the matching
    slice of the upstream gradient; ``base`` receives none (it is constant by
    construction — the host-graph part of a trigger computation graph).
    """
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 3 or blocks.ndim != 3 or base.shape[0] != blocks.shape[0]:
        raise AutogradError(
            f"embed_blocks expects (B, m, n) base and (B, t, s) blocks, got "
            f"{base.shape} and {blocks.shape}"
        )
    t, s = blocks.shape[1], blocks.shape[2]
    rows = slice(row_start, row_start + t)
    cols = slice(col_start, col_start + s)
    if row_start < 0 or col_start < 0 or row_start + t > base.shape[1] or col_start + s > base.shape[2]:
        raise AutogradError(
            f"block ({t}, {s}) at ({row_start}, {col_start}) exceeds base {base.shape}"
        )
    out_data = active_backend().embed_blocks(base, blocks.data, row_start, col_start)

    def vjp(g: np.ndarray) -> np.ndarray:
        return g[:, rows, cols]

    if not is_grad_enabled() or not blocks.requires_grad:
        return Tensor(out_data, requires_grad=False)
    return Tensor(out_data, requires_grad=True, parents=[(blocks, vjp)])


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout with keep-probability ``1 - rate``."""
    mask = dropout_mask(x.shape, rate, rng, training)
    return x if mask is None else x * Tensor(mask)


def dropout_mask(
    shape, rate: float, rng: np.random.Generator, training: bool = True
) -> Optional[np.ndarray]:
    """The scale array :func:`dropout` multiplies by, or ``None`` for the identity.

    Draws from ``rng`` only when it returns an array, so a caller that
    applies the mask itself consumes the stream exactly as :func:`dropout`.
    """
    if not 0.0 <= rate < 1.0:
        raise AutogradError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep
