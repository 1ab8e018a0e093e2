"""Core :class:`Tensor` type and reverse-mode backpropagation.

The design follows the classic tape-based approach: every differentiable
operation returns a new ``Tensor`` holding references to its parents and a
list of ``(parent, vjp)`` pairs, where ``vjp`` maps the upstream gradient to
the contribution for that parent.  Calling :meth:`Tensor.backward` performs a
topological sort of the graph and accumulates gradients.

Dense data is stored as ``numpy.ndarray`` (float64 by default).  Sparse
matrices participate only as *constants* on the left side of
``sparse_matmul`` (graph propagation, and sparse input features times a
weight), which is exactly how GNNs use them.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import AutogradError
from repro.kernels import active_backend

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction inside its block."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != np.float64:
            return data.astype(np.float64)
        return data
    return np.asarray(data, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were of size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and backward graph node.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    parents:
        Internal — ``(parent, vjp)`` pairs populated by primitive ops.
    name:
        Optional human-readable label used in error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Optional[List[Tuple["Tensor", Callable[[np.ndarray], np.ndarray]]]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents = parents or []
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a one-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise AutogradError(f"item() called on tensor of shape {self.shape}")

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a new leaf tensor with copied data."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure_tensor(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: List[Tuple["Tensor", Callable[[np.ndarray], np.ndarray]]],
    ) -> "Tensor":
        requires = any(p.requires_grad for p, _ in parents)
        if not is_grad_enabled() or not requires:
            return Tensor(data, requires_grad=False)
        return Tensor(data, requires_grad=True, parents=parents)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure_tensor(other)
        out_data = self.data + other.data
        parents = [
            (self, lambda g: _unbroadcast(g, self.shape)),
            (other, lambda g: _unbroadcast(g, other.shape)),
        ]
        return self._make(out_data, parents)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self._make(-self.data, [(self, lambda g: -g)])

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure_tensor(other)
        out_data = self.data - other.data
        parents = [
            (self, lambda g: _unbroadcast(g, self.shape)),
            (other, lambda g: _unbroadcast(-g, other.shape)),
        ]
        return self._make(out_data, parents)

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._ensure_tensor(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure_tensor(other)
        out_data = self.data * other.data
        parents = [
            (self, lambda g: _unbroadcast(g * other.data, self.shape)),
            (other, lambda g: _unbroadcast(g * self.data, other.shape)),
        ]
        return self._make(out_data, parents)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._ensure_tensor(other)
        out_data = self.data / other.data
        parents = [
            (self, lambda g: _unbroadcast(g / other.data, self.shape)),
            (other, lambda g: _unbroadcast(-g * self.data / (other.data ** 2), other.shape)),
        ]
        return self._make(out_data, parents)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._ensure_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise AutogradError("tensor exponents are not supported")
        out_data = self.data ** exponent
        base = self.data

        def vjp(g: np.ndarray) -> np.ndarray:
            return g * exponent * base ** (exponent - 1)

        return self._make(out_data, [(self, vjp)])

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Matrix product ``self @ other`` (2-D operands)."""
        other = self._ensure_tensor(other)
        if self.ndim != 2 or other.ndim != 2:
            raise AutogradError(
                f"matmul expects 2-D operands, got {self.shape} and {other.shape}"
            )
        out_data = active_backend().matmul(self.data, other.data)
        a_data, b_data = self.data, other.data
        parents = [
            (self, lambda g: active_backend().matmul(g, b_data.T)),
            (other, lambda g: active_backend().matmul(a_data.T, g)),
        ]
        return self._make(out_data, parents)

    def transpose(self) -> "Tensor":
        """Matrix transpose for 2-D tensors."""
        if self.ndim != 2:
            raise AutogradError(f"transpose expects a 2-D tensor, got shape {self.shape}")
        return self._make(self.data.T.copy(), [(self, lambda g: g.T)])

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        original = self.shape
        out_data = self.data.reshape(*shape)
        return self._make(out_data, [(self, lambda g: g.reshape(original))])

    def inverse(self) -> "Tensor":
        """Matrix inverse of a square 2-D tensor.

        The vjp uses ``d(A^{-1}) = -A^{-1} dA A^{-1}``, i.e.
        ``grad_A = -A^{-T} G A^{-T}``.
        """
        if self.ndim != 2 or self.shape[0] != self.shape[1]:
            raise AutogradError(f"inverse expects a square matrix, got shape {self.shape}")
        inv = np.linalg.inv(self.data)

        def vjp(g: np.ndarray) -> np.ndarray:
            return -inv.T @ g @ inv.T

        return self._make(inv, [(self, vjp)])

    # ------------------------------------------------------------------ #
    # Reductions and elementwise functions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def vjp(g: np.ndarray) -> np.ndarray:
            g_arr = np.asarray(g, dtype=np.float64)
            if axis is None:
                return np.broadcast_to(g_arr, shape).copy()
            g_expanded = g_arr if keepdims else np.expand_dims(g_arr, axis)
            return np.broadcast_to(g_expanded, shape).copy()

        return self._make(np.asarray(out_data, dtype=np.float64), [(self, vjp)])

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return self._make(out_data, [(self, lambda g: g * out_data)])

    def log(self) -> "Tensor":
        data = self.data
        out_data = np.log(data)
        return self._make(out_data, [(self, lambda g: g / data)])

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)
        return self._make(out_data, [(self, lambda g: g * 0.5 / out_data)])

    def abs(self) -> "Tensor":
        data = self.data
        return self._make(np.abs(data), [(self, lambda g: g * np.sign(data))])

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return self._make(self.data * mask, [(self, lambda g: g * mask)])

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return self._make(out_data, [(self, lambda g: g * out_data * (1.0 - out_data))])

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        return self._make(out_data, [(self, lambda g: g * (1.0 - out_data ** 2))])

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)
        return self._make(out_data, [(self, lambda g: g * mask)])

    # ------------------------------------------------------------------ #
    # Indexing / slicing
    # ------------------------------------------------------------------ #
    def index_rows(self, index: np.ndarray) -> "Tensor":
        """Select rows by integer index (gradient scatters back)."""
        idx = np.asarray(index, dtype=np.int64)
        out_data = self.data[idx]
        shape = self.shape
        # Strictly-increasing (hence duplicate-free) indices scatter with
        # plain fancy assignment, far cheaper than the accumulating
        # np.add.at; unsorted indices take the general path even if unique.
        unique_rows = idx.size < 2 or bool(np.all(np.diff(idx) > 0))

        def vjp(g: np.ndarray) -> np.ndarray:
            return active_backend().scatter_add_rows(shape, idx, g, unique_rows)

        return self._make(out_data, [(self, vjp)])

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, (np.ndarray, list)):
            return self.index_rows(np.asarray(index))
        out_data = self.data[index]
        shape = self.shape

        def vjp(g: np.ndarray) -> np.ndarray:
            full = np.zeros(shape, dtype=np.float64)
            full[index] = g
            return full

        return self._make(np.asarray(out_data, dtype=np.float64), [(self, vjp)])

    # ------------------------------------------------------------------ #
    # Composition helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient routing."""
        tensors = [Tensor._ensure_tensor(t) for t in tensors]
        datas = [t.data for t in tensors]
        out_data = np.concatenate(datas, axis=axis)
        parents: List[Tuple[Tensor, Callable[[np.ndarray], np.ndarray]]] = []
        offset = 0
        for t in tensors:
            length = t.shape[axis]
            start, stop = offset, offset + length

            def make_vjp(start_: int, stop_: int):
                def vjp(g: np.ndarray) -> np.ndarray:
                    slicer = [slice(None)] * g.ndim
                    slicer[axis] = slice(start_, stop_)
                    return g[tuple(slicer)]

                return vjp

            parents.append((t, make_vjp(start, stop)))
            offset = stop
        requires = any(t.requires_grad for t in tensors)
        if not is_grad_enabled() or not requires:
            return Tensor(out_data, requires_grad=False)
        return Tensor(out_data, requires_grad=True, parents=parents)

    # ------------------------------------------------------------------ #
    # Backward
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1.0`` for scalar tensors.
        """
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = grad.reshape(self.data.shape)

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and not node._parents:
                # Leaf tensor: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            if node.requires_grad and node._parents:
                # Interior node: optionally keep grad for inspection.
                pass
            for parent, vjp in node._parents:
                if not parent.requires_grad:
                    continue
                contribution = vjp(node_grad)
                existing = grads.get(id(parent))
                grads[id(parent)] = contribution if existing is None else existing + contribution

    def _topological_order(self) -> List["Tensor"]:
        visited: set[int] = set()
        order: List[Tensor] = []

        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order


# ---------------------------------------------------------------------- #
# Sparse propagation
# ---------------------------------------------------------------------- #
def sparse_matmul(matrix: sp.spmatrix, tensor: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``matrix @ tensor``.

    The sparse operand is treated as a constant (no gradient), which matches
    GNN propagation where the normalised adjacency is fixed during a forward
    pass — or sparse input features feeding a :class:`~repro.autograd.module.Linear`
    layer.  The gradient w.r.t. the dense operand is ``matrix.T @ grad``,
    computed on ``csr.T``: a free CSC view whose product accumulates each
    output row in the same order as the materialised CSR transpose.
    """
    if not sp.issparse(matrix):
        raise AutogradError("sparse_matmul expects a scipy sparse matrix as first operand")
    csr = matrix.tocsr()
    out_data = active_backend().spmm(csr, tensor.data)
    if not is_grad_enabled() or not tensor.requires_grad:
        return Tensor(out_data, requires_grad=False)
    transposed = csr.T
    parents = [(tensor, lambda g: active_backend().spmm(transposed, g))]
    return Tensor(out_data, requires_grad=True, parents=parents)
