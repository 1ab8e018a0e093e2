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

The recursion reads an intermediate base hop ``H_k`` (``0 < k < K``) only at
``D_k`` and at the base columns ``Â'[D_{k+1}, :N]`` references, so the cache
need not keep it: such a hop is recomputed at just those rows, as
``Â[R, :]·H_{k-1}`` with ``Â``'s columns compressed to the rows of
``H_{k-1}`` it references.  A CSR row sums its products in stored order,
which row slicing and column renumbering keep, so every row read this way is
byte-equal to the row of the full product.  The same reader serves a base
graph's requested hop ``H_K`` itself: a
:class:`~repro.graph.view.PropagatedRows` computes each row on its first
read, recursively down to ``X``, and keeps it, so the cache holds no
``(N, F)`` product for a graph nobody reads whole.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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

    A :class:`~repro.graph.view.PropagatedRows` materialises its hop with
    it when a caller asks for the whole product; otherwise rows are read
    one at a time through :func:`_read_unstored_hops`, byte-equal to this
    product's rows.
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
    tolerance).  Terms accumulate in place into the first block's term, so
    the sum holds one output-size array however many blocks there are (and
    one term at a time beside it).
    """
    from repro.graph.blocked import BlockedArray

    backend = active_backend()
    if not isinstance(product, BlockedArray):
        return backend.spmm(matrix, product)
    matrix = matrix.tocsc()
    out: Optional[np.ndarray] = None
    for start, stop, block in product.blocks():
        term = backend.spmm(matrix[:, start:stop], np.asarray(block))
        if out is None:
            out = term
        else:
            out += term
        del term  # the next block's term is the only other array alive
    if out is None:  # zero-row product
        out = np.zeros((matrix.shape[0], product.shape[1]), dtype=np.float64)
    return out


def _base_columns(
    operator: sp.csr_matrix, n_base: int, rows: Optional[np.ndarray] = None
) -> sp.csr_matrix:
    """``operator[:, :n_base]``, its columns renumbered to their positions in
    the sorted ``rows`` when given (``rows`` holds every base column the
    operator stores).

    Every kept entry keeps its place in its row, so a product with the
    matching rows of a hop sums each row in the order the uncompressed
    product does, as :func:`~repro.graph.blocked.blocked_spmm`'s compression
    does.
    """
    indices = operator.indices
    keep = indices < n_base
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    indices = indices[keep]
    if rows is not None:
        indices = np.searchsorted(rows, indices)
    return sp.csr_matrix(
        (operator.data[keep], indices, kept[operator.indptr]),
        shape=(operator.shape[0], n_base if rows is None else rows.size),
    )


def _read_unstored_hops(
    base_normalized: Optional[sp.spmatrix],
    base_hops: Sequence[Optional[np.ndarray]],
    wanted: Dict[int, Sequence[np.ndarray]],
    n_base: int,
) -> dict:
    """The rows read of each base hop that ``base_hops`` does not store.

    ``wanted`` maps a hop to the row index arrays read of it directly (rows
    past ``n_base`` are ignored).  Returns ``{hop: (rows, values)}``, rows
    sorted, for every unstored hop (``None`` in ``base_hops``) up to the
    highest one wanted: each is read at its wanted rows and, when the hop
    above is read too, at the base columns that read references.  Each read
    is one product of the base operator's rows with the hop below
    (compressed to the rows read of it, when that hop is read too).  The
    incremental update reads the hops between 0 and K this way, and a
    :class:`~repro.graph.view.PropagatedRows` reads hop K itself.
    """
    top = max(wanted, default=0)
    missing = [hop for hop in range(1, top + 1) if base_hops[hop] is None]
    if not missing:
        return {}
    if base_normalized is None:
        raise GraphValidationError(
            f"base hops {missing} are not stored; pass base_normalized to read them"
        )
    base_normalized = base_normalized.tocsr()
    operators: dict = {}
    for hop in reversed(missing):
        read = np.zeros(n_base, dtype=bool)
        for rows in wanted.get(hop, ()):
            read[rows[rows < n_base]] = True
        if hop + 1 in operators:
            read[operators[hop + 1][1].indices] = True
        rows = np.flatnonzero(read)
        operators[hop] = (rows, base_normalized[rows])
    reads: dict = {}
    for hop in missing:
        rows, operator = operators[hop]
        below = reads.get(hop - 1)
        if below is None:
            values = _matmul_hop_product(operator, base_hops[hop - 1])
        else:
            values = active_backend().spmm(
                _base_columns(operator, n_base, below[0]), below[1]
            )
        reads[hop] = (rows, values)
    return reads


def incremental_sgc_delta(
    normalized: sp.spmatrix,
    features,
    base_hops: Sequence[Optional[np.ndarray]],
    changed_nodes: np.ndarray,
    num_hops: int,
    nonnegative: bool = False,
    base_normalized: Optional[sp.spmatrix] = None,
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
        Hop 0 must be present; any hop between 0 and ``num_hops`` may be
        ``None``, and is then read at the rows the recursion touches from
        ``base_normalized`` (hop ``num_hops`` itself is never read here).
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
    base_normalized:
        The base graph's normalised operator ``Â`` that produced
        ``base_hops``; needed only when an intermediate hop is ``None``.

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

    # Every hop's dirty rows D_k and operator rows Â'[D_k] first: an unstored
    # base hop is read only at the rows the hop after it references.
    dirty_rows = [rows]
    dirty = seed
    for _ in range(num_hops):
        dirty = operator_dirty | reachable_rows(magnitude, dirty, nonnegative=True)
        dirty_rows.append(np.flatnonzero(dirty))
    slices = [None] + [normalized[hop_rows] for hop_rows in dirty_rows[1:]]
    wanted = {
        hop: (dirty_rows[hop], slices[hop + 1].indices) for hop in range(1, num_hops)
    }
    reads = _read_unstored_hops(base_normalized, base_hops, wanted, n_base)

    # Difference form: delta[i] = H'_k[i] - embed(H_k)[i], kept only on the
    # dirty rows (appended rows have no base counterpart, so their delta is
    # their full value).
    delta = values
    base_part = rows < n_base
    delta[base_part] -= base_hops[0][rows[base_part]]

    for hop in range(1, num_hops + 1):
        previous_rows, previous_delta = rows, delta
        rows, sliced = dirty_rows[hop], slices[hop]
        # Â'[D_k, :N] · H_{k-1}  +  Â'[D_k, D_{k-1}] · E_{k-1}
        below = reads.get(hop - 1)
        if below is None:
            values = _matmul_hop_product(_base_columns(sliced, n_base), base_hops[hop - 1])
        else:
            values = active_backend().spmm(_base_columns(sliced, n_base, below[0]), below[1])
        if previous_rows.size:
            values += active_backend().spmm(sliced[:, previous_rows], previous_delta)
        if hop < num_hops:
            # The final hop's difference form is never read — only its
            # materialised rows are — so skip the dirty-block copy there.
            delta = values.copy()
            base_part = rows < n_base
            read = reads.get(hop)
            if read is None:
                delta[base_part] -= base_hops[hop][rows[base_part]]
            else:
                delta[base_part] -= read[1][np.searchsorted(read[0], rows[base_part])]

    return rows, values
