"""Thread-parallel kernel backend: chunked row/batch fan-out over numpy.

``ThreadedBackend`` inherits the reference implementations and overrides
the two primitives whose work factors over an outer axis with no shared
accumulator:

* :meth:`spmm` — the CSR row space splits into contiguous row chunks;
  each chunk is ``matrix[start:stop] @ dense`` through scipy (which
  releases the GIL inside sparsetools), written into a preallocated
  output.  Per-row accumulation order is untouched by row slicing, so the
  result is *bit-identical* to the serial product.
* :meth:`batched_matmul` — the leading batch axis splits into chunks;
  ``np.matmul`` evaluates each batch entry independently, so chunked
  results are bit-identical too.

Small inputs fall back to the serial path (threads would only add
overhead), as does a 1-worker configuration.  The executor is created
lazily and keyed to the owning pid so forked sweep workers transparently
rebuild their own pool instead of deadlocking on inherited locks.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.kernels.numpy_backend import NumpyBackend
from repro.utils.knobs import Knob, at_least, parse_int

#: Below this many scalar multiply-adds the serial kernel wins outright.
_MIN_PARALLEL_WORK = 1 << 16

#: Environment knob for the thread count (default: the visible CPU count).
THREADS_ENV = "REPRO_KERNEL_THREADS"

THREADS = Knob(
    THREADS_ENV,
    max(1, os.cpu_count() or 1),
    parse=parse_int,
    check=at_least(1),
    hint="REPRO_KERNEL_THREADS sets the threaded backend's worker count — set "
    "it to a positive integer, or unset it to use the visible CPU count.",
)


def _chunk_bounds(total: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` near-equal contiguous spans."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    bounds = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class ThreadedBackend(NumpyBackend):
    """Chunked thread-parallel spmm / batched matmul over the numpy reference."""

    name = "threaded"

    def __init__(self, workers: Optional[int] = None) -> None:
        self._configured_workers = workers
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_pid: Optional[int] = None
        self._executor_size = 0

    @property
    def workers(self) -> int:
        if self._configured_workers is not None:
            return max(1, self._configured_workers)
        return THREADS.get()

    def _pool(self, size: int) -> ThreadPoolExecutor:
        # Fork safety: a child inherits this object but must not reuse the
        # parent's executor (its threads do not survive the fork).
        pid = os.getpid()
        if (
            self._executor is None
            or self._executor_pid != pid
            or self._executor_size != size
        ):
            if self._executor is not None and self._executor_pid == pid:
                self._executor.shutdown(wait=False)
            self._executor = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-kernel"
            )
            self._executor_pid = pid
            self._executor_size = size
        return self._executor

    # ------------------------------------------------------------------ #
    # Parallel overrides
    # ------------------------------------------------------------------ #
    def spmm(self, matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
        workers = self.workers
        rows = matrix.shape[0]
        cols = dense.shape[1] if dense.ndim > 1 else 1
        if (
            workers <= 1
            or rows < 2
            or not sp.issparse(matrix)
            or matrix.nnz * cols < _MIN_PARALLEL_WORK
        ):
            return super().spmm(matrix, dense)
        csr = matrix.tocsr()
        out_shape = (rows,) if dense.ndim == 1 else (rows, dense.shape[1])
        out = np.empty(out_shape, dtype=np.result_type(csr.dtype, dense.dtype))
        bounds = _chunk_bounds(rows, workers)

        def _run(span: Tuple[int, int]) -> None:
            start, stop = span
            # Row slicing preserves each row's stored-index accumulation
            # order, so every output row matches the serial product bit
            # for bit.
            out[start:stop] = csr[start:stop] @ dense

        pool = self._pool(workers)
        list(pool.map(_run, bounds))
        return out

    def batched_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        workers = self.workers
        if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0]:
            return super().batched_matmul(a, b)
        batch = a.shape[0]
        work = batch * a.shape[1] * a.shape[2] * b.shape[2]
        if workers <= 1 or batch < 2 or work < _MIN_PARALLEL_WORK:
            return super().batched_matmul(a, b)
        out = np.empty((batch, a.shape[1], b.shape[2]), dtype=np.result_type(a, b))
        bounds = _chunk_bounds(batch, workers)

        def _run(span: Tuple[int, int]) -> None:
            start, stop = span
            # np.matmul treats each batch entry independently; slicing the
            # batch axis cannot change any entry's result.
            np.matmul(a[start:stop], b[start:stop], out=out[start:stop])

        pool = self._pool(workers)
        list(pool.map(_run, bounds))
        return out
