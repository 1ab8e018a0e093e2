"""Blocked, out-of-core propagation: tiled spmm + a memory-mapped block store.

Dense SGC hop chains hold one ``(N, F)`` float64 array per hop.  At Cora
scale that is a few dozen megabytes; at the six-figure node counts of the
Flickr/Reddit stand-ins a two-hop chain would pin gigabytes of RAM per
cached graph.  This module keeps the *values* of the chain bit-compatible
with the dense reference while changing only where they live:

* :func:`blocked_spmm` computes ``Â @ X`` one CSR row block at a time,
  gathering only the source rows each block actually references and walking
  the feature axis in column tiles, so the in-flight working set is bounded
  by the tile sizes rather than by ``N``;
* :class:`BlockedArray` stores the resulting ``(N, F)`` product as one raw
  memory-mapped file per row block under a per-process scratch directory.
  Blocks are mapped on demand and unmapped immediately after use, so pages
  the OS evicts never count against the process RSS.

The per-element summation order of :func:`blocked_spmm` is identical to
``operator @ source``: a CSR row's products are accumulated in stored-index
order by scipy's matvec kernel, and slicing rows / remapping column indices
preserves that order.  Blocked results are therefore *bit-identical* to the
dense path, which is what lets the propagation cache switch engines purely
on size without perturbing condensed-graph fingerprints.

Engine selection is a single size threshold (elements of the ``(N, F)``
product), a :class:`~repro.utils.knobs.Knob` on ``REPRO_BLOCKED_THRESHOLD``
whose default keeps every seed-scale graph on the pinned dense path.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import weakref
from typing import Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphValidationError
from repro.kernels import active_backend
from repro.utils.knobs import Knob, at_least, parse_int

__all__ = [
    "DEFAULT_BLOCKED_THRESHOLD",
    "DEFAULT_BLOCK_ROWS",
    "BlockedArray",
    "blocked_threshold",
    "set_blocked_threshold",
    "block_rows",
    "blocked_spmm",
    "blocked_precompute_hops",
    "scratch_root",
    "set_scratch_root",
    "process_scratch_dir",
    "remove_process_scratch",
]

#: Products with at most this many float64 elements stay on the dense path.
#: 2**24 elements = 128 MiB keeps Cora (2708 x 1433) and Citeseer dense while
#: routing the six-figure Flickr/Reddit stand-ins through the blocked engine.
DEFAULT_BLOCKED_THRESHOLD = 2**24

#: Default row-tile height of the block store and the spmm kernel.
DEFAULT_BLOCK_ROWS = 8192

#: Default feature-column tile width of the spmm kernel.
DEFAULT_COL_BLOCK = 256

BLOCKED_THRESHOLD = Knob(
    "REPRO_BLOCKED_THRESHOLD",
    DEFAULT_BLOCKED_THRESHOLD,
    parse=parse_int,
    check=at_least(0),
    hint="REPRO_BLOCKED_THRESHOLD selects the element count above which hop "
    "chains go out of core — set it to a non-negative integer (e.g. 16777216), "
    "to 0 to force the blocked engine, or unset it to use the default.",
)
BLOCK_ROWS = Knob(
    "REPRO_BLOCK_ROWS",
    DEFAULT_BLOCK_ROWS,
    parse=parse_int,
    check=at_least(1),
    hint="REPRO_BLOCK_ROWS sets the row-tile height of the blocked engine — "
    f"set it to a positive integer, or unset it to use {DEFAULT_BLOCK_ROWS}.",
)
SCRATCH_ROOT = Knob("REPRO_BLOCKED_DIR", None)

#: The element-count threshold above which hop chains go blocked (the
#: ``ExecutionSpec.blocked_threshold`` override, ``REPRO_BLOCKED_THRESHOLD``,
#: then :data:`DEFAULT_BLOCKED_THRESHOLD`); chain builds call it per build.
blocked_threshold = BLOCKED_THRESHOLD.get
#: Install (or with ``None`` clear) the threshold override; returns the previous.
set_blocked_threshold = BLOCKED_THRESHOLD.set
#: Row-tile height of the block store and the spmm kernel.
block_rows = BLOCK_ROWS.get


# ------------------------------------------------------------------ #
# Scratch-directory lifecycle
# ------------------------------------------------------------------ #
#: Pin (or with ``None`` clear) the scratch root; returns the previous pin.
#: Pool workers pin the root their parent resolved at start, so a worker
#: whose environment diverges still writes where crash cleanup looks.
set_scratch_root = SCRATCH_ROOT.set


def scratch_root() -> str:
    """Directory under which per-process scratch dirs are created.

    The :func:`set_scratch_root` pin or ``REPRO_BLOCKED_DIR`` (created if
    missing), else the platform temp dir (``tempfile.gettempdir()``).
    """
    root = SCRATCH_ROOT.get()
    if not root:
        return tempfile.gettempdir()
    os.makedirs(root, exist_ok=True)
    return root


def process_scratch_dir(pid: Optional[int] = None, root: Optional[str] = None) -> str:
    """Path of the scratch directory owned by ``pid`` (default: this process).

    ``root`` overrides the resolved scratch root — the parallel executor
    passes the root it pinned at sweep start so cleanup of a dead worker
    targets the directory the worker actually used, not whatever the
    parent's environment resolves to at cleanup time.
    """
    if pid is None:
        pid = os.getpid()
    return os.path.join(root if root is not None else scratch_root(),
                        f"repro-blocked-{pid}")


def remove_process_scratch(pid: Optional[int] = None, root: Optional[str] = None) -> None:
    """Best-effort removal of the scratch directory owned by ``pid``.

    Used by the parallel executor to reclaim the block files of worker
    processes that were killed or timed out before their own cleanup ran;
    ``root`` is forwarded to :func:`process_scratch_dir`.
    """
    try:
        shutil.rmtree(process_scratch_dir(pid, root=root), ignore_errors=True)
    except OSError:  # pragma: no cover - rmtree already suppresses most errors
        pass


_ARRAY_COUNTER = 0


def _new_array_dir() -> str:
    """A fresh directory for one BlockedArray's block files."""
    global _ARRAY_COUNTER
    _ARRAY_COUNTER += 1
    path = os.path.join(process_scratch_dir(), f"array-{_ARRAY_COUNTER:06d}")
    os.makedirs(path, exist_ok=True)
    return path


@atexit.register
def _cleanup_own_scratch() -> None:  # pragma: no cover - exercised at exit
    """Safety net: remove this process's scratch dir on interpreter exit."""
    remove_process_scratch(os.getpid())


def _delete_array_dir(directory: str, owner_pid: int) -> None:
    """Finalizer for a BlockedArray: delete its files, but only in the owner.

    Forked sweep workers and unpickled copies share the same block files;
    gating on the creating pid means only the process that wrote the files
    ever deletes them.
    """
    if os.getpid() != owner_pid:
        return
    shutil.rmtree(directory, ignore_errors=True)


# ------------------------------------------------------------------ #
# The block store
# ------------------------------------------------------------------ #
class BlockedArray:
    """A 2-D float64 array stored as memory-mapped row-block files on disk.

    Behaves like a read-mostly ``(N, F)`` ndarray for the access patterns the
    propagation stack needs — row gathers, full materialisation, ``std`` —
    while holding no resident block between accesses.  Blocks are
    ``np.memmap`` views opened per call and dropped immediately, so the OS
    page cache (not the process heap) holds whatever is warm.

    Instances pickle by metadata + file paths: the receiving process maps the
    same files read-only and never deletes them (deletion is gated on the
    creating process's pid).  Writes are never flushed to disk: the blocks
    are scratch that their owner deletes, and every reader, in this process
    or a forked or spawned worker, maps the same files through the page
    cache, which already holds the written pages.
    """

    def __init__(self, shape: Tuple[int, int], block_size: Optional[int] = None):
        if len(shape) != 2 or shape[0] < 0 or shape[1] <= 0:
            raise GraphValidationError(
                f"BlockedArray expects a (rows, cols) shape with cols >= 1, got {shape}"
            )
        self.shape = (int(shape[0]), int(shape[1]))
        self.dtype = np.dtype(np.float64)
        self.block_size = int(block_size) if block_size else block_rows()
        if self.block_size < 1:
            raise GraphValidationError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        self._directory = _new_array_dir()
        self._owner_pid = os.getpid()
        self._paths: List[str] = []
        rows, cols = self.shape
        for index, start in enumerate(range(0, max(rows, 1), self.block_size)):
            stop = min(start + self.block_size, rows)
            if stop <= start:
                break
            path = os.path.join(self._directory, f"block-{index:05d}.bin")
            block = np.memmap(path, dtype=self.dtype, mode="w+", shape=(stop - start, cols))
            del block
            self._paths.append(path)
        self._finalizer = weakref.finalize(
            self, _delete_array_dir, self._directory, self._owner_pid
        )

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #
    @property
    def ndim(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def num_blocks(self) -> int:
        return len(self._paths)

    @property
    def directory(self) -> str:
        """The directory holding this array's block files."""
        return self._directory

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockedArray(shape={self.shape}, block_size={self.block_size}, "
            f"blocks={self.num_blocks}, dir={self._directory!r})"
        )

    # -------------------------------------------------------------- #
    # Block access
    # -------------------------------------------------------------- #
    def _block_bounds(self, index: int) -> Tuple[int, int]:
        start = index * self.block_size
        return start, min(start + self.block_size, self.shape[0])

    def _open_block(self, index: int, mode: str = "r") -> np.memmap:
        start, stop = self._block_bounds(index)
        return np.memmap(
            self._paths[index], dtype=self.dtype, mode=mode,
            shape=(stop - start, self.shape[1]),
        )

    def blocks(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, block)`` over row blocks (read-only maps).

        Each yielded block is only valid until the next iteration — the map
        is dropped as soon as the consumer advances, keeping at most one
        block resident.
        """
        for index in range(self.num_blocks):
            start, stop = self._block_bounds(index)
            block = self._open_block(index, mode="r")
            yield start, stop, block
            del block

    def write_rows(self, start: int, values: np.ndarray) -> None:
        """Write consecutive rows beginning at ``start`` (may span blocks)."""
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.ndim != 2 or values.shape[1] != self.shape[1]:
            raise GraphValidationError(
                f"write_rows expects (k, {self.shape[1]}) values, got {values.shape}"
            )
        if start < 0 or start + values.shape[0] > self.shape[0]:
            raise GraphValidationError(
                f"rows [{start}, {start + values.shape[0]}) out of bounds for "
                f"{self.shape[0]} rows"
            )
        offset = 0
        while offset < values.shape[0]:
            row = start + offset
            index = row // self.block_size
            block_start, block_stop = self._block_bounds(index)
            take = min(block_stop - row, values.shape[0] - offset)
            block = self._open_block(index, mode="r+")
            block[row - block_start : row - block_start + take] = values[
                offset : offset + take
            ]
            del block
            offset += take

    # -------------------------------------------------------------- #
    # ndarray-compatible reads
    # -------------------------------------------------------------- #
    def gather(self, rows: np.ndarray, cols: Optional[slice] = None) -> np.ndarray:
        """Dense ``rows`` (optionally a column slice) in the given row order."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        rows = rows.astype(np.int64, copy=False)
        if rows.size and (rows.min() < -self.shape[0] or rows.max() >= self.shape[0]):
            raise IndexError(
                f"row index out of bounds for BlockedArray with {self.shape[0]} rows"
            )
        rows = np.where(rows < 0, rows + self.shape[0], rows)
        col_slice = cols if cols is not None else slice(None)
        width = len(range(*col_slice.indices(self.shape[1])))
        out = np.empty((rows.size, width), dtype=self.dtype)
        if rows.size == 0:
            return out
        block_ids = rows // self.block_size
        for index in np.unique(block_ids):
            mask = block_ids == index
            start, _ = self._block_bounds(int(index))
            block = self._open_block(int(index), mode="r")
            out[mask] = block[rows[mask] - start, col_slice]
            del block
        return out

    def materialize(self) -> np.ndarray:
        """The full dense array (allocates ``(N, F)`` — caller opts in)."""
        out = np.empty(self.shape, dtype=self.dtype)
        for start, stop, block in self.blocks():
            out[start:stop] = block
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = self.materialize()
        if dtype is not None:
            dense = dense.astype(dtype, copy=False)
        return dense

    def __getitem__(self, key):
        if isinstance(key, tuple):
            if len(key) != 2:
                raise TypeError(f"unsupported BlockedArray index: {key!r}")
            rows, cols = key
            if isinstance(cols, slice):
                return self._row_select(rows, cols=cols)
            return self._row_select(rows)[..., cols]
        return self._row_select(key)

    def _row_select(self, rows, cols: Optional[slice] = None):
        if isinstance(rows, (int, np.integer)):
            return self.gather(np.array([int(rows)]), cols=cols)[0]
        if isinstance(rows, slice):
            start, stop, step = rows.indices(self.shape[0])
            return self.gather(np.arange(start, stop, step), cols=cols)
        if isinstance(rows, (np.ndarray, list)):
            return self.gather(np.asarray(rows), cols=cols)
        raise TypeError(f"unsupported BlockedArray row index: {rows!r}")

    def std(self) -> np.float64:
        """Standard deviation over all elements.

        The single-block case defers to ``np.std`` of the mapped block, so it
        is bit-identical to the dense path; the multi-block case streams a
        two-pass mean/moment computation.
        """
        if self.num_blocks <= 1:
            if self.num_blocks == 0:
                return np.float64(np.std(np.empty(self.shape, dtype=self.dtype)))
            block = self._open_block(0, mode="r")
            value = np.std(np.asarray(block))
            del block
            return value
        total = 0.0
        for _, _, block in self.blocks():
            total += float(np.sum(block, dtype=np.float64))
        mean = total / float(self.size)
        moment = 0.0
        for _, _, block in self.blocks():
            centered = np.asarray(block) - mean
            moment += float(np.sum(centered * centered, dtype=np.float64))
        return np.float64(np.sqrt(moment / float(self.size)))

    def __matmul__(self, other):
        return self.materialize() @ np.asarray(other)

    # -------------------------------------------------------------- #
    # Pickling (path-based: receivers share the files, never delete them)
    # -------------------------------------------------------------- #
    def __getstate__(self):
        return {
            "shape": self.shape,
            "block_size": self.block_size,
            "paths": list(self._paths),
            "owner_pid": self._owner_pid,
            "directory": self._directory,
        }

    def __setstate__(self, state):
        self.shape = tuple(state["shape"])
        self.dtype = np.dtype(np.float64)
        self.block_size = int(state["block_size"])
        self._paths = list(state["paths"])
        self._owner_pid = int(state["owner_pid"])
        self._directory = state["directory"]
        # Unpickled copies never own the files: gate the finalizer on a pid
        # that cannot match (deletion remains the creator's job).
        self._finalizer = weakref.finalize(
            self, _delete_array_dir, self._directory, -1
        )


# ------------------------------------------------------------------ #
# The tiled kernel
# ------------------------------------------------------------------ #
def _gather_source_rows(source, rows: np.ndarray, col_slice: slice) -> np.ndarray:
    """Rows x column-slice of ``source`` without materialising full width."""
    if isinstance(source, BlockedArray):
        return source.gather(rows, cols=col_slice)
    dense = np.asarray(source)
    # Slice the columns first (a view), then gather rows: allocates only the
    # (rows, tile) working block.
    return dense[:, col_slice][rows]


def blocked_spmm(
    operator: sp.csr_matrix,
    source,
    out: Optional[BlockedArray] = None,
    row_block: Optional[int] = None,
    col_block: int = DEFAULT_COL_BLOCK,
) -> BlockedArray:
    """``operator @ source`` computed tile by tile into a :class:`BlockedArray`.

    For each output row block the kernel compresses the operator's column
    space down to the source rows the block actually references (a
    ``np.unique`` gather + ``np.searchsorted`` remap), then walks the feature
    axis in ``col_block``-wide tiles.  The bounded working set per tile is

    ``nnz(block) + |referenced rows| * col_block + row_block * col_block``

    independent of the total node count.  Summation order per output element
    matches the dense product exactly (scipy accumulates a CSR row's products
    in stored order, which slicing and index remapping preserve), so results
    are bit-identical to ``operator @ np.asarray(source)``.
    """
    operator = operator.tocsr()
    rows_total = operator.shape[0]
    num_features = source.shape[1]
    if operator.shape[1] != source.shape[0]:
        raise GraphValidationError(
            f"operator {operator.shape} and source {source.shape} do not align"
        )
    if row_block is None:
        row_block = block_rows()
    if out is None:
        out = BlockedArray((rows_total, num_features), block_size=row_block)
    elif out.shape != (rows_total, num_features):
        raise GraphValidationError(
            f"out has shape {out.shape}, expected {(rows_total, num_features)}"
        )
    col_block = max(1, int(col_block))
    for start in range(0, rows_total, row_block):
        stop = min(start + row_block, rows_total)
        block = operator[start:stop]
        referenced = np.unique(block.indices)
        if referenced.size == 0:
            out.write_rows(start, np.zeros((stop - start, num_features)))
            continue
        compressed = sp.csr_matrix(
            (
                block.data,
                np.searchsorted(referenced, block.indices),
                block.indptr,
            ),
            shape=(stop - start, referenced.size),
        )
        result = np.empty((stop - start, num_features), dtype=np.float64)
        for col_start in range(0, num_features, col_block):
            col_stop = min(col_start + col_block, num_features)
            tile = _gather_source_rows(
                source, referenced, slice(col_start, col_stop)
            )
            result[:, col_start:col_stop] = active_backend().spmm(compressed, tile)
        out.write_rows(start, result)
    return out


def blocked_precompute_hops(
    normalized: sp.csr_matrix,
    features,
    num_hops: int,
    row_block: Optional[int] = None,
    col_block: int = DEFAULT_COL_BLOCK,
) -> List[object]:
    """The SGC hop chain ``[X, ÂX, ..., Â^K X]`` with blocked hops >= 1.

    Hop 0 is the feature matrix itself (kept as given — features are shared
    with the graph object and already resident); every propagated hop lives
    in a :class:`BlockedArray`.  Mirrors
    :func:`repro.graph.propagation.sgc_precompute_hops` hop for hop.
    """
    if num_hops < 0:
        raise GraphValidationError(f"num_hops must be >= 0, got {num_hops}")
    if not isinstance(features, BlockedArray):
        features = np.asarray(features, dtype=np.float64)
    hops: List[object] = [features]
    current = features
    for _ in range(num_hops):
        current = blocked_spmm(
            normalized, current, row_block=row_block, col_block=col_block
        )
        hops.append(current)
    return hops
