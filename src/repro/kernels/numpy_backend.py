"""The kernel backend: plain numpy/scipy, pinned expressions.

Every method body is the exact expression that used to live inline at the
call sites in :mod:`repro.autograd` and :mod:`repro.graph` before the
kernels extraction — same operations, same order — so routing through this
backend is bit-identical to the pre-refactor code.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

#: scipy's own multivector kernels, keyed by the exact sparse class:
#: ``matrix @ dense`` for a 2-D ``dense`` ends in one of these calls.
_MATVECS = {
    sp.csr_matrix: _sparsetools.csr_matvecs,
    sp.csc_matrix: _sparsetools.csc_matvecs,
}


class NumpyBackend:
    """Single-threaded numpy/scipy implementation of every hot primitive.

    The instance is stateless, so one process-wide object is shared by every
    caller, including pool workers that inherit it across a ``fork``.
    ``tests/test_kernel_conformance.py`` pins each primitive to the plain
    expression it replaced — bit-identical wherever the primitive fixes a
    floating-point evaluation order — over empty rows, single-row CSR,
    ``F=1``, 1-D operands, non-contiguous inputs and NaN/inf propagation.

    ========================  ================================================
    ``spmm``                  sparse ``(n, m)`` CSR/CSC × dense ``(m, f)`` (or
                              ``(m,)``) product — graph propagation, the
                              single hottest call in the repo (also used per
                              CSR row block by the blocked out-of-core engine)
    ``matmul``                dense 2-D ``(n, k) @ (k, m)``
    ``batched_matmul``        dense 3-D ``(B, n, k) @ (B, k, m)``
    ``transpose_last2``       contiguous copy of ``swapaxes(x, -1, -2)``
    ``embed_blocks``          scatter a ``(B, t, s)`` block stack into a copy
                              of a constant ``(B, m, n)`` base
    ``scatter_add_rows``      row scatter-(add) of ``(k, f)`` values into a
                              zeroed ``shape`` array — the segment reduction
                              behind ``Tensor.index_rows``'s backward pass
    ``gather_scale``          ``data * scale[index]`` — the degree-ratio
                              fix-up of the incremental normalisation splice
    ``scale_csr``             ``diag(row_scale) @ M @ diag(col_scale)`` on CSR
                              data — the two diagonal products of
                              ``gcn_normalize``
    ``softmax_xent``          fused softmax + cross-entropy forward: loss and
                              probabilities in one pass
    ``softmax_xent_grad``     matching backward: d(loss)/d(logits) given the
                              upstream gradient
    ========================  ================================================
    """

    #: Reported as the kernel backend in host facts.
    name = "numpy"

    def spmm(self, matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
        """``matrix @ dense`` for a constant sparse operand.

        ``dense`` is ``(m, f)`` or ``(m,)``; scipy's native product sums
        each output row in stored-index order.  A float64 ``csr_matrix`` or
        ``csc_matrix`` times a 2-D float64 ndarray with ``f > 1`` goes
        straight to the kernel scipy's ``@`` ends in (``csr_matvecs``/
        ``csc_matvecs`` into a fresh zeroed result), skipping its per-call
        dispatch; every other input, ``f == 1`` (scipy's single-vector
        kernel) included, takes ``matrix @ dense``.
        """
        kernel = _MATVECS.get(matrix.__class__)
        if (
            kernel is not None
            and dense.__class__ is np.ndarray
            and dense.ndim == 2
            and dense.shape[1] != 1
            and dense.dtype == np.float64
            and matrix.dtype == np.float64
            and dense.shape[0] == matrix.shape[1]
        ):
            rows, columns = matrix.shape
            result = np.zeros((rows, dense.shape[1]))
            kernel(
                rows, columns, dense.shape[1], matrix.indptr, matrix.indices,
                matrix.data, dense.ravel(), result.ravel(),
            )
            return result
        return matrix @ dense

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense 2-D matrix product ``a @ b`` through numpy (BLAS gemm)."""
        return a @ b

    def batched_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense batched product ``(B, n, k) @ (B, k, m) -> (B, n, m)``."""
        return np.matmul(a, b)

    def transpose_last2(self, x: np.ndarray) -> np.ndarray:
        """Contiguous copy of ``x`` with its last two axes swapped."""
        return np.swapaxes(x, -1, -2).copy()

    def embed_blocks(
        self, base: np.ndarray, blocks: np.ndarray, row_start: int, col_start: int
    ) -> np.ndarray:
        """Copy ``base`` and write ``blocks`` at ``[:, rows, cols]``.

        ``base`` is ``(B, m, n)``, ``blocks`` is ``(B, t, s)``; bounds are
        the caller's responsibility (validated in the autograd wrapper).
        """
        out = base.copy()
        out[
            :,
            row_start : row_start + blocks.shape[1],
            col_start : col_start + blocks.shape[2],
        ] = blocks
        return out

    def scatter_add_rows(
        self,
        shape: Tuple[int, ...],
        index: np.ndarray,
        values: np.ndarray,
        unique: bool,
    ) -> np.ndarray:
        """Zeros of ``shape`` with ``values`` scattered into rows ``index``.

        ``unique=True`` asserts the indices are duplicate-free, allowing
        plain fancy assignment; otherwise duplicate rows *accumulate* (the
        segment-sum semantics of ``np.add.at``).
        """
        full = np.zeros(shape, dtype=np.float64)
        if unique:
            full[index] = values
        else:
            np.add.at(full, index, values)
        return full

    def gather_scale(
        self, data: np.ndarray, index: np.ndarray, scale: np.ndarray
    ) -> np.ndarray:
        """Elementwise ``data * scale[index]`` (1-D ``data`` and ``index``)."""
        return data * scale[index]

    def scale_csr(
        self,
        matrix: sp.csr_matrix,
        row_scale: np.ndarray,
        col_scale: np.ndarray,
    ) -> sp.csr_matrix:
        """``diag(row_scale) @ matrix @ diag(col_scale)`` as CSR.

        Entry ``(i, j)`` becomes ``(matrix[i, j] * row_scale[i]) *
        col_scale[j]`` — multiplication in exactly that order, which is what
        scipy's two diagonal products evaluate, so the result is
        bit-identical to the expression it replaced.
        """
        matrix = matrix.tocsr()
        row_of = np.repeat(
            np.arange(matrix.shape[0]), np.diff(matrix.indptr)
        )
        data = (matrix.data * row_scale[row_of]) * col_scale[matrix.indices]
        result = sp.csr_matrix(
            (data, matrix.indices.copy(), matrix.indptr.copy()), shape=matrix.shape
        )
        result.has_canonical_format = matrix.has_canonical_format
        return result

    def softmax_xent(
        self, logits: np.ndarray, weighted_targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused softmax cross-entropy forward pass.

        Returns ``(loss, probs)``: the scalar
        ``-(log_softmax(logits) * weighted_targets).sum()`` and the softmax
        probabilities (saved for the backward pass).  The steps mirror
        ``log_softmax`` + ``nll_loss`` one for one — shifted → exp → denom →
        log_probs → picked → -(sum) — so the fused loss is bit-identical to
        the unfused chain.  The reductions call the ufuncs' ``reduce``
        directly: the same reductions ``ndarray.max``/``sum`` run, without
        their Python wrappers.
        """
        shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
        exp = np.exp(shifted)
        denom = np.add.reduce(exp, axis=-1, keepdims=True)
        log_probs = shifted - np.log(denom)
        probs = exp / denom
        picked = log_probs * weighted_targets
        loss = -np.add.reduce(picked, axis=None)
        return np.asarray(loss, dtype=np.float64), probs

    def softmax_xent_grad(
        self,
        upstream: np.ndarray,
        probs: np.ndarray,
        weighted_targets: np.ndarray,
    ) -> np.ndarray:
        """d(loss)/d(logits) for :meth:`softmax_xent` given ``upstream``.

        Replays the unfused chain's backward pass exactly — neg vjp (-g),
        sum vjp (broadcast), mul vjp (× targets), log-softmax vjp — keeping
        the fused loss's gradients bit-identical to the reference chain.
        """
        flow = np.full(weighted_targets.shape, -upstream, dtype=np.float64)
        flow *= weighted_targets
        return flow - probs * np.add.reduce(flow, axis=-1, keepdims=True)
