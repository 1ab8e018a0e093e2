"""Adjacency normalisation schemes used by the GNN models.

Besides the full-matrix kernels this module provides
:func:`incremental_gcn_normalize`: when a graph differs from an
already-normalised base only in a few rows (plus appended rows), the new
normalised operator is assembled by CSR row surgery — changed rows are
renormalised from scratch, unchanged rows are copied with a degree-ratio
fix-up on the columns whose endpoint degree moved — instead of paying the
self-loop merge, degree pass and two diagonal products of a full
:func:`gcn_normalize` over the whole matrix.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphValidationError
from repro.kernels import active_backend


def add_self_loops(adjacency: sp.spmatrix, weight: float = 1.0) -> sp.csr_matrix:
    """Return ``A + weight * I`` as CSR."""
    n = adjacency.shape[0]
    return (adjacency + weight * sp.eye(n, format="csr")).tocsr()


def gcn_normalize(adjacency: sp.spmatrix, add_loops: bool = True) -> sp.csr_matrix:
    """Symmetric GCN normalisation ``D^{-1/2} (A + I) D^{-1/2}``.

    Isolated nodes (zero degree after self-loop handling) receive zero rows
    rather than NaNs.
    """
    if adjacency.shape[0] != adjacency.shape[1]:
        raise GraphValidationError(f"adjacency must be square, got {adjacency.shape}")
    matrix = add_self_loops(adjacency) if add_loops else adjacency.tocsr()
    degrees = np.asarray(matrix.sum(axis=1)).reshape(-1)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    # diag(inv_sqrt) @ matrix @ diag(inv_sqrt) as one data-array pass over
    # the CSR arrays — bit-identical to the sparse diagonal products.
    return active_backend().scale_csr(matrix, inv_sqrt, inv_sqrt)


def self_loop_degrees(adjacency: sp.spmatrix) -> np.ndarray:
    """Row degrees of ``A + I`` — the degree vector :func:`gcn_normalize` uses."""
    return np.asarray(adjacency.sum(axis=1)).reshape(-1) + 1.0


def incremental_gcn_normalize(
    derived_adjacency: sp.spmatrix,
    base_normalized: sp.csr_matrix,
    base_degrees: np.ndarray,
    changed_nodes: np.ndarray,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """``gcn_normalize(derived_adjacency)`` rebuilt from a normalised base.

    Parameters
    ----------
    derived_adjacency:
        Adjacency of the derived graph, shape ``(N', N')`` with ``N' >= N``.
    base_normalized:
        ``gcn_normalize(base_adjacency)`` (with self-loops), shape ``(N, N)``.
    base_degrees:
        Self-loop-inclusive degree vector of the base
        (:func:`self_loop_degrees` of the base adjacency).
    changed_nodes:
        Pre-existing rows whose feature row or incident edge set differs from
        the base — the :class:`~repro.graph.data.GraphDelta` contract set:
        every changed edge between pre-existing nodes has *both* endpoints
        listed, edges to appended rows have their pre-existing endpoint
        listed.

    Returns
    -------
    normalized, degrees:
        The derived graph's normalised operator and its self-loop-inclusive
        degree vector (callers cache the latter for the next increment).

    Why this is exact: entry ``Â'_{ij} = (A'+I)_{ij} / sqrt(d'_i d'_j)``.
    Outside the seed set (changed ∪ appended) neither the entry ``(A'+I)_{ij}``
    nor the row degree ``d'_i`` can differ from the base, so an unchanged row
    keeps its sparsity pattern and only the columns ``j`` with a changed
    degree need rescaling by ``sqrt(d_j / d'_j)``.  Seed rows are renormalised
    from the derived adjacency directly.  The result is assembled with one
    CSR row splice — cost proportional to ``nnz`` copies plus the seed rows,
    with no full-matrix sparse add or diagonal products.
    """
    derived = derived_adjacency.tocsr()
    n_total = derived.shape[0]
    n_base = base_normalized.shape[0]
    if derived.shape[0] != derived.shape[1]:
        raise GraphValidationError(f"adjacency must be square, got {derived.shape}")
    if n_total < n_base:
        raise GraphValidationError(
            f"derived graph has {n_total} rows but base has {n_base}; "
            "deltas may only append rows"
        )
    base_degrees = np.asarray(base_degrees, dtype=np.float64).reshape(-1)
    if base_degrees.shape[0] != n_base:
        raise GraphValidationError(
            f"base_degrees has {base_degrees.shape[0]} entries for {n_base} rows"
        )
    changed = np.unique(np.asarray(changed_nodes, dtype=np.int64))
    if changed.size and (changed[0] < 0 or changed[-1] >= n_base):
        raise GraphValidationError(
            f"changed_nodes out of range for base graph with {n_base} nodes"
        )
    seed_rows = np.concatenate(
        [changed, np.arange(n_base, n_total, dtype=np.int64)]
    )

    # Degrees: copy the base vector, recompute only the seed rows.
    degrees = np.empty(n_total, dtype=np.float64)
    degrees[:n_base] = base_degrees
    seed = derived[seed_rows]
    degrees[seed_rows] = np.asarray(seed.sum(axis=1)).reshape(-1) + 1.0

    # A changed column whose degree *recovers* from non-positive (zeroed in
    # the base, possible with negative edge weights) to positive cannot be
    # fixed by rescaling — the base stored no entry to rescale — so every row
    # adjacent to it joins the full-recompute set.  (The reverse transition,
    # positive to non-positive, rescales cleanly to zero.)
    changed_base = base_degrees[changed]
    recovered = changed[(changed_base <= 0.0) & (degrees[changed] > 0.0)]
    if recovered.size:
        adjacent = np.unique(derived[:, recovered].tocoo().row)
        seed_rows = np.union1d(seed_rows, adjacent)
        seed = derived[seed_rows]
        # Adjacent rows keep their base degrees (their edges are unchanged);
        # recomputing is idempotent and keeps one code path.
        degrees[seed_rows] = np.asarray(seed.sum(axis=1)).reshape(-1) + 1.0

    # Same guard as gcn_normalize: non-positive degrees (possible with
    # negative edge weights) give zero rows, not NaNs.
    inv_sqrt = np.zeros(n_total, dtype=np.float64)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])

    # Column fix-up factor for unchanged rows: 1 everywhere except on columns
    # whose degree moved.  Recovered columns never appear in unchanged rows
    # (those rows were just moved into the seed set), so their factor
    # multiplies nothing; 1.0 inside the sqrt avoids a NaN.
    ratio = np.ones(n_base, dtype=np.float64)
    ratio[changed] = (
        np.sqrt(np.where(changed_base > 0, changed_base, 1.0)) * inv_sqrt[changed]
    )

    # Seed rows, renormalised from scratch (self-loop inserted sparsely).
    loops = sp.csr_matrix(
        (
            np.ones(seed_rows.size, dtype=np.float64),
            (np.arange(seed_rows.size, dtype=np.int64), seed_rows),
        ),
        shape=seed.shape,
    )
    seed = (seed + loops).tocsr()
    seed_row_of = np.repeat(np.arange(seed_rows.size), np.diff(seed.indptr))
    backend = active_backend()
    seed_data = backend.gather_scale(
        backend.gather_scale(seed.data, seed_rows[seed_row_of], inv_sqrt),
        seed.indices,
        inv_sqrt,
    )

    # Row splice: unchanged base rows + seed rows into one preallocated CSR.
    in_seed = np.zeros(n_total, dtype=bool)
    in_seed[seed_rows] = True
    base_indptr = base_normalized.indptr.astype(np.int64)
    base_counts = np.diff(base_indptr)
    counts = np.zeros(n_total, dtype=np.int64)
    counts[:n_base] = base_counts
    counts[seed_rows] = np.diff(seed.indptr)
    indptr = np.empty(n_total + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz, dtype=np.float64)

    entry_row = np.repeat(np.arange(n_base), base_counts)
    kept = np.flatnonzero(~in_seed[entry_row])
    if kept.size:
        kept_rows = entry_row[kept]
        dest = kept - base_indptr[kept_rows] + indptr[kept_rows]
        kept_cols = base_normalized.indices[kept]
        indices[dest] = kept_cols
        data[dest] = backend.gather_scale(base_normalized.data[kept], kept_cols, ratio)
    if seed.nnz:
        seed_indptr = seed.indptr.astype(np.int64)
        dest = (
            np.arange(seed.nnz, dtype=np.int64)
            - seed_indptr[seed_row_of]
            + indptr[seed_rows[seed_row_of]]
        )
        indices[dest] = seed.indices
        data[dest] = seed_data

    result = sp.csr_matrix((data, indices, indptr), shape=(n_total, n_total))
    # Both sources are canonical CSR rows copied in order.
    result.has_canonical_format = True
    return result, degrees


def row_normalize(matrix: sp.spmatrix | np.ndarray):
    """Row-normalise a sparse adjacency or a dense feature matrix."""
    if sp.issparse(matrix):
        sums = np.asarray(matrix.sum(axis=1)).reshape(-1)
        inv = np.zeros_like(sums)
        nonzero = sums > 0
        inv[nonzero] = 1.0 / sums[nonzero]
        return (sp.diags(inv) @ matrix).tocsr()
    dense = np.asarray(matrix, dtype=np.float64)
    sums = dense.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return dense / sums


def dense_gcn_normalize(adjacency: np.ndarray, add_loops: bool = True) -> np.ndarray:
    """Dense counterpart of :func:`gcn_normalize` for small condensed graphs."""
    matrix = np.asarray(adjacency, dtype=np.float64)
    if matrix.shape[0] != matrix.shape[1]:
        raise GraphValidationError(f"adjacency must be square, got {matrix.shape}")
    if add_loops:
        matrix = matrix + np.eye(matrix.shape[0])
    degrees = matrix.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    return matrix * inv_sqrt[:, None] * inv_sqrt[None, :]
