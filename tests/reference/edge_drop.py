"""The two inline sparse edge removals that ``drop_undirected_edges`` folded.

DropEdge's :func:`~repro.defenses.drop_edges` and RandSmooth's
``SmoothedModel._subsample`` each carried their own copy of the
canonical-id (``min·N + max``) removal.  Both now draw their Bernoulli mask
and hand it to :func:`repro.graph.subgraph.drop_undirected_edges`; these
copies pin that the draws and the result stayed bit-identical.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _remove_by_canonical_id(
    coo: sp.coo_matrix, rows: np.ndarray, cols: np.ndarray, shape
) -> sp.csr_matrix:
    """Every entry whose undirected pair is one of ``(rows[k], cols[k])`` removed."""
    num_nodes = shape[0]
    dropped_ids = rows.astype(np.int64) * num_nodes + cols.astype(np.int64)
    lo = np.minimum(coo.row, coo.col).astype(np.int64)
    hi = np.maximum(coo.row, coo.col).astype(np.int64)
    keep = ~np.isin(lo * num_nodes + hi, dropped_ids)
    return sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=shape)


def drop_edges_inline(
    adjacency: sp.spmatrix, drop_rate: float, rng: np.random.Generator
) -> sp.csr_matrix:
    """The sparse branch of ``drop_edges`` as it was written inline."""
    coo = adjacency.tocoo()
    mask_upper = coo.row < coo.col
    rows, cols = coo.row[mask_upper], coo.col[mask_upper]
    dropped = rng.random(rows.size) < drop_rate
    if not dropped.any():
        return adjacency.tocsr()
    return _remove_by_canonical_id(coo, rows[dropped], cols[dropped], adjacency.shape)


def subsample_inline(
    adjacency: sp.spmatrix, keep_probability: float, rng: np.random.Generator
) -> sp.csr_matrix:
    """The sparse branch of ``SmoothedModel._subsample`` as it was written inline."""
    coo = adjacency.tocoo()
    mask_upper = coo.row < coo.col
    rows, cols = coo.row[mask_upper], coo.col[mask_upper]
    kept = rng.random(rows.size) < keep_probability
    if kept.all():
        return adjacency.tocsr()
    return _remove_by_canonical_id(coo, rows[~kept], cols[~kept], adjacency.shape)
