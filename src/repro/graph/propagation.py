"""Feature propagation kernels shared by the GNN models and condensers.

Besides the classic full-graph kernels this module provides the *incremental*
K-hop update used by :class:`repro.graph.cache.PropagationCache`: when a graph
differs from a base graph only in a small set of rows ``S`` (plus appended
nodes), ``Â'^K X'`` is recovered from the base's cached hop products by
recomputing only the rows reachable from ``S`` within K hops.

Incremental propagation math
----------------------------
Let ``Â`` be the normalised base operator, ``Â'`` the normalised operator of
the derived graph, and ``P`` the zero-padded embedding of ``Â`` into the
derived shape.  Write ``H'_k = Â'^k X'`` and ``H_k = Â^k X``.  An entry
``Â'_{ij}`` can differ from ``P_{ij}`` only if ``i`` or ``j`` lies in the
*seed* set (changed rows plus appended rows): a changed edge has a seed
endpoint by the :class:`~repro.graph.data.GraphDelta` contract, and a changed
degree rescales only seed rows/columns.  Hence the support of ``Δ = Â' - P``
is confined to the closed 1-hop neighbourhood ``N[seed]`` of the seed.

With ``E_k = H'_k - embed(H_k)`` one gets the recursion
``E_k = Δ·embed(H_{k-1}) + Â'·E_{k-1}``, so the *dirty* rows satisfy
``D_k ⊆ rows(Δ) ∪ N[D_{k-1}]`` and every clean row of ``H'_k`` equals the
corresponding row of the base product ``H_k``.  The kernel keeps the update
in this *difference form* throughout: per hop it evaluates only

``H'_k[D_k] = Â'[D_k, :N]·H_{k-1}  +  Â'[D_k, D_{k-1}]·E_{k-1}``

— two sparse products whose cost is proportional to the dirty neighbourhood,
not the graph — and returns the final hop's dirty rows and their values.  It
never allocates an ``(N', F)`` buffer: the cache wraps the result in a
:class:`~repro.graph.view.PropagatedView`, which reads clean rows from the
cached base product and materialises the full matrix only when asked.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphValidationError
from repro.graph.normalize import gcn_normalize
from repro.kernels import active_backend


def sgc_precompute(
    adjacency: sp.spmatrix, features: np.ndarray, num_hops: int
) -> np.ndarray:
    """Return ``(D^{-1/2}(A+I)D^{-1/2})^K X`` — the SGC propagated features."""
    if num_hops < 0:
        raise GraphValidationError(f"num_hops must be non-negative, got {num_hops}")
    normalized = gcn_normalize(adjacency)
    propagated = np.asarray(features, dtype=np.float64)
    backend = active_backend()
    for _ in range(num_hops):
        propagated = backend.spmm(normalized, propagated)
    return propagated


def sgc_precompute_hops(
    normalized: sp.spmatrix, features: np.ndarray, num_hops: int
) -> List[np.ndarray]:
    """All intermediate SGC products ``[X, ÂX, ..., Â^K X]`` for a normalised operator.

    The full chain is what :class:`~repro.graph.cache.PropagationCache` stores
    per graph version: incremental updates of a derived graph need the base's
    product at *every* hop, not just the final one.
    """
    if num_hops < 0:
        raise GraphValidationError(f"num_hops must be non-negative, got {num_hops}")
    hops = [np.asarray(features, dtype=np.float64)]
    backend = active_backend()
    for _ in range(num_hops):
        hops.append(backend.spmm(normalized, hops[-1]))
    return hops


def reachable_rows(
    operator: sp.spmatrix, mask: np.ndarray, nonnegative: bool = False
) -> np.ndarray:
    """Closed in-neighbourhood of ``mask`` under ``operator``.

    Returns the boolean mask of rows ``i`` such that ``operator[i, j] != 0``
    for some ``j`` with ``mask[j]`` — plus ``mask`` itself.  Works for
    arbitrary (also signed / asymmetric) sparse operators because the
    expansion runs on ``|operator|``, so entries cannot cancel.  Pass
    ``nonnegative=True`` when the operator is known entry-wise non-negative
    (e.g. a GCN-normalised adjacency) to skip the O(nnz) ``abs`` copy —
    callers expanding hop by hop should take it once instead.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return mask.copy()
    indicator = mask.astype(np.float64)
    magnitude = operator if nonnegative else abs(operator)
    reached = np.asarray(active_backend().spmm(magnitude, indicator)).reshape(-1)
    return mask | (reached > 0.0)


def _matmul_hop_product(matrix: sp.spmatrix, product) -> np.ndarray:
    """``matrix @ product`` where ``product`` may be a blocked hop array.

    Dense products go straight through scipy.  For a
    :class:`~repro.graph.blocked.BlockedArray` the product is accumulated one
    row block at a time (``matrix[:, start:stop] @ block``), so no full
    ``(N, F)`` materialisation happens.  The single-block case multiplies the
    whole (identically-sliced) matrix against the one block and is therefore
    bit-identical to the dense product; multi-block accumulation changes only
    the summation order (differences bounded well below the 1e-10 equivalence
    tolerance).
    """
    from repro.graph.blocked import BlockedArray

    backend = active_backend()
    if not isinstance(product, BlockedArray):
        return backend.spmm(matrix, product)
    matrix = matrix.tocsc()
    out: Optional[np.ndarray] = None
    for start, stop, block in product.blocks():
        term = backend.spmm(matrix[:, start:stop], np.asarray(block))
        out = term if out is None else out + term
    if out is None:  # zero-row product
        out = np.zeros((matrix.shape[0], product.shape[1]), dtype=np.float64)
    return out


def incremental_sgc_delta(
    normalized: sp.spmatrix,
    features,
    base_hops: Sequence[np.ndarray],
    changed_nodes: np.ndarray,
    num_hops: int,
    nonnegative: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Incremental ``Â'^K X'`` of a graph derived from a cached base, in
    difference form: dirty rows only.

    Runs the exact K-hop recursion of the module docstring but never
    materialises the full ``(N', F)`` result: it returns ``(dirty_rows,
    dirty_values)`` where every row outside ``dirty_rows`` of ``Â'^K X'``
    equals the corresponding row of the cached base product
    ``base_hops[num_hops]`` (appended rows are always dirty).  This is the
    kernel behind :meth:`repro.graph.cache.PropagationCache.propagated_view`,
    whose consumers only ever gather a handful of rows (the training set)
    from the propagated matrix.

    Parameters
    ----------
    normalized:
        Normalised operator ``Â'`` of the *derived* graph, shape ``(N', N')``.
    features:
        Feature matrix ``X'`` of the derived graph, shape ``(N', F)``: any
        object exposing either numpy fancy indexing or a ``gather(rows)``
        method (``(len(rows), F)`` float64 copy) — in particular a
        :class:`repro.graph.view.StackedFeatures`, which is how the poisoned
        feature matrix avoids its ``(N', F)`` vstack entirely.
    base_hops:
        The base graph's hop chain ``[X, ÂX, ..., Â^K X]`` (at least
        ``num_hops + 1`` entries), as produced by :func:`sgc_precompute_hops`.
    changed_nodes:
        Pre-existing rows violating prefix equality with the base — the
        :class:`~repro.graph.data.GraphDelta` contract set.
    num_hops:
        Number of propagation hops ``K``.
    nonnegative:
        Declare the operator entry-wise non-negative (true for any
        GCN-normalised adjacency of a non-negative graph): frontier expansion
        then runs on ``normalized`` directly instead of taking a full O(nnz)
        ``abs`` copy per call.

    Returns
    -------
    dirty_rows, dirty_values:
        Sorted row indices that differ from (or are appended past) the base
        product, and their ``(len(dirty_rows), F)`` values.
    """
    if num_hops < 0:
        raise GraphValidationError(f"num_hops must be non-negative, got {num_hops}")
    if len(base_hops) < num_hops + 1:
        raise GraphValidationError(
            f"base_hops provides {len(base_hops)} hop products, need {num_hops + 1}"
        )
    n_total = normalized.shape[0]
    n_base = base_hops[0].shape[0]
    if n_total < n_base:
        raise GraphValidationError(
            f"derived graph has {n_total} rows but base has {n_base}; "
            "deltas may only append rows"
        )
    if features.shape[1] != base_hops[0].shape[1]:
        raise GraphValidationError(
            f"feature dim {features.shape[1]} does not match base dim "
            f"{base_hops[0].shape[1]}"
        )
    gather = getattr(features, "gather", None)
    if gather is None:
        array = np.asarray(features, dtype=np.float64)

        def gather(rows: np.ndarray) -> np.ndarray:
            return array[rows]

    normalized = normalized.tocsr()
    seed = np.zeros(n_total, dtype=bool)
    seed[np.asarray(changed_nodes, dtype=np.int64)] = True
    seed[n_base:] = True

    rows = np.flatnonzero(seed)
    values = gather(rows)  # fresh array: both gather flavours copy
    if num_hops == 0:
        return rows, values

    # One |Â'| for all K+1 frontier expansions (it's a full O(nnz) copy,
    # skipped entirely when the caller vouches for a non-negative operator).
    magnitude = normalized if nonnegative else abs(normalized)
    # Rows where the derived operator can differ from the embedded base one.
    operator_dirty = reachable_rows(magnitude, seed, nonnegative=True)

    # Difference form: delta[i] = H'_k[i] - embed(H_k)[i], kept only on the
    # dirty rows (appended rows have no base counterpart, so their delta is
    # their full value).
    dirty = seed
    delta = values
    base_part = rows < n_base
    delta[base_part] -= base_hops[0][rows[base_part]]

    for hop in range(1, num_hops + 1):
        previous_rows, previous_delta = rows, delta
        dirty = operator_dirty | reachable_rows(magnitude, dirty, nonnegative=True)
        rows = np.flatnonzero(dirty)
        sliced = normalized[rows]
        # Â'[D_k, :N] · H_{k-1}  +  Â'[D_k, D_{k-1}] · E_{k-1}
        values = _matmul_hop_product(sliced[:, :n_base], base_hops[hop - 1])
        if previous_rows.size:
            values += active_backend().spmm(sliced[:, previous_rows], previous_delta)
        if hop < num_hops:
            # The final hop's difference form is never read — only its
            # materialised rows are — so skip the dirty-block copy there.
            delta = values.copy()
            base_part = rows < n_base
            delta[base_part] -= base_hops[hop][rows[base_part]]

    return rows, values
