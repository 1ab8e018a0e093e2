"""Whole-array reductions without a full-size temporary.

``np.std(x)`` allocates ``x − mean`` as one array the size of ``x`` (30 MiB
for cora's features) only to square and sum it.  :func:`streamed_std`
computes the same value a leaf at a time.  numpy sums a contiguous float64
array pairwise: a run of more than 128 elements splits at
``n // 2 − (n // 2) % 8`` and the halves' sums are added.  Recursing over
exactly those splits down to leaves of at most ``LEAF_ELEMENTS`` elements,
and letting ``np.add.reduce`` sum each leaf's squared deviations, walks
numpy's own summation tree, so the result is bit for bit ``np.std``'s.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LEAF_ELEMENTS", "streamed_std"]

#: Elements of ``x − mean`` alive at a time (128 KiB of float64).
LEAF_ELEMENTS = 2**14


def _squared_deviations(flat: np.ndarray, mean: np.float64, start: int, count: int):
    """Sum of ``(flat[start:start + count] − mean)²`` along numpy's pairwise tree."""
    if count <= LEAF_ELEMENTS:
        leaf = flat[start : start + count] - mean
        leaf *= leaf
        return np.add.reduce(leaf)
    half = count // 2
    half -= half % 8
    return _squared_deviations(flat, mean, start, half) + _squared_deviations(
        flat, mean, start + half, count - half
    )


def streamed_std(x) -> float:
    """``float(np.std(x))``, holding at most one leaf of ``x − mean`` at a time.

    Bit-identical to ``np.std`` for a non-empty C-contiguous float64
    ndarray, which takes the streamed path; any other input is handed to
    ``np.std`` as it is.
    """
    if not (
        type(x) is np.ndarray
        and x.dtype == np.float64
        and x.flags.c_contiguous
        and x.size
    ):
        return float(np.std(x))
    flat = x.reshape(-1)
    count = flat.size
    mean = np.add.reduce(flat) / count
    return float(np.sqrt(_squared_deviations(flat, mean, 0, count) / count))
