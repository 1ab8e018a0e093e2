"""Subgraph extraction and graph-surgery primitives.

Three operations matter for BGC:

* extracting the k-hop *computation graph* of a node (the receptive field a
  GNN prediction for that node depends on),
* attaching a small trigger subgraph's structure to a target node
  (:func:`attach_trigger_adjacency`; :func:`~repro.graph.view.poison_graph_view`
  overlays the trigger features), and
* editing edge sets: the sampled attacks' toggles and injections, and the
  defenses' undirected edge removal (:func:`drop_undirected_edges`).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphValidationError


def k_hop_subgraph(
    adjacency: sp.spmatrix, center: int, num_hops: int
) -> Tuple[np.ndarray, sp.csr_matrix]:
    """Return the nodes and induced adjacency of the k-hop ball around ``center``.

    Returns
    -------
    nodes:
        Sorted node indices inside the ball (the center is always included).
    sub_adjacency:
        Induced adjacency among ``nodes`` (rows/cols follow ``nodes`` order).
    """
    n = adjacency.shape[0]
    if not 0 <= center < n:
        raise GraphValidationError(f"center {center} out of range for {n} nodes")
    csr = adjacency.tocsr()
    frontier = {center}
    visited = {center}
    for _ in range(num_hops):
        next_frontier: set[int] = set()
        for node in frontier:
            neighbors = csr.indices[csr.indptr[node] : csr.indptr[node + 1]]
            for neighbor in neighbors.tolist():
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.add(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    nodes = np.asarray(sorted(visited), dtype=np.int64)
    sub_adjacency = csr[nodes][:, nodes].tocsr()
    return nodes, sub_adjacency


def induced_subgraph(
    adjacency: sp.spmatrix,
    features: np.ndarray,
    labels: np.ndarray,
    nodes: np.ndarray,
) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray, Dict[int, int]]:
    """Extract the subgraph induced by ``nodes`` with relabelled indices.

    Returns the induced adjacency, features, labels and a mapping from
    original node id to new (0-based) id.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    csr = adjacency.tocsr()
    sub_adj = csr[nodes][:, nodes].tocsr()
    sub_features = np.asarray(features)[nodes]
    sub_labels = np.asarray(labels)[nodes]
    mapping = {int(original): new for new, original in enumerate(nodes.tolist())}
    return sub_adj, sub_features, sub_labels, mapping


def attach_trigger_adjacency(
    adjacency: sp.spmatrix,
    target_nodes: np.ndarray,
    trigger_adjacency: np.ndarray,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Attach one trigger block's structure per target node (CSR surgery).

    Parameters
    ----------
    adjacency:
        ``(N, N)`` host adjacency.
    target_nodes:
        ``(P,)`` node indices to poison.
    trigger_adjacency:
        ``(P, t, t)`` binary internal adjacency of each trigger block; only
        the strict upper triangle of each block is read (mirrored).

    Returns
    -------
    new_adjacency, trigger_node_index:
        The ``(N + P*t, N + P*t)`` poisoned adjacency and, per target node,
        the indices of its trigger nodes in the new graph (shape ``(P, t)``).

    Each trigger node is connected to its host target node; internal trigger
    edges follow ``trigger_adjacency``.  The original nodes keep their ids
    *and their edge weights*: pre-existing entries are copied unchanged
    (clamping them would silently mutate rows outside a delta's
    ``changed_nodes`` and break the :class:`~repro.graph.data.GraphDelta`
    contract that incremental propagation and renormalisation rely on), while
    every new trigger/connector edge has weight exactly 1.

    The output CSR is built directly: the ``indptr`` / ``indices`` / ``data``
    arrays are preallocated at their final size, pre-existing rows are copied
    (host rows gain their trigger column in place — trigger columns exceed
    every host column, so sortedness is free) and the trigger-block rows are
    scattered in vectorised form.  No intermediate COO matrix, no sparse add,
    no re-sort: the cost is one pass over the old arrays plus work
    proportional to the trigger blocks.
    """
    target_nodes = np.asarray(target_nodes, dtype=np.int64)
    trigger_adjacency = np.asarray(trigger_adjacency, dtype=np.float64)
    if trigger_adjacency.ndim != 3 or trigger_adjacency.shape[1] != trigger_adjacency.shape[2]:
        raise GraphValidationError(
            f"trigger_adjacency must have shape (P, t, t), got {trigger_adjacency.shape}"
        )
    num_targets, trigger_size = trigger_adjacency.shape[:2]
    if target_nodes.shape[0] != num_targets:
        raise GraphValidationError(
            f"got {target_nodes.shape[0]} target nodes but {num_targets} trigger blocks"
        )

    csr = adjacency.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    n = csr.shape[0]
    total_trigger_nodes = num_targets * trigger_size
    new_n = n + total_trigger_nodes

    old_indptr = csr.indptr.astype(np.int64)
    old_degrees = np.diff(old_indptr)
    extra = np.zeros(n, dtype=np.int64)
    np.add.at(extra, target_nodes, 1)

    # Internal trigger edges: strict upper triangle mirrored (the reference
    # path ignores the lower triangle too).
    upper = np.triu(trigger_adjacency, k=1) != 0.0
    symmetric = upper | np.transpose(upper, (0, 2, 1))
    internal_counts = symmetric.reshape(total_trigger_nodes, trigger_size).sum(
        axis=1, dtype=np.int64
    )
    trigger_counts = internal_counts.copy()
    if num_targets:
        trigger_counts[0::trigger_size] += 1  # first trigger row holds the host edge

    counts = np.concatenate([old_degrees + extra, trigger_counts])
    new_indptr = np.empty(new_n + 1, dtype=np.int64)
    new_indptr[0] = 0
    np.cumsum(counts, out=new_indptr[1:])
    nnz = int(new_indptr[-1])
    new_indices = np.empty(nnz, dtype=np.int64)
    new_data = np.ones(nnz, dtype=np.float64)

    # Host rows: existing entries keep their relative positions (every new
    # column lies past n, so per-row sorted order is preserved by appending).
    if csr.nnz:
        entry_row = np.repeat(np.arange(n), old_degrees)
        dest = np.arange(csr.nnz, dtype=np.int64) + (new_indptr[:n] - old_indptr[:n])[entry_row]
        new_indices[dest] = csr.indices
        new_data[dest] = csr.data

    trigger_node_index = (n + np.arange(total_trigger_nodes, dtype=np.int64)).reshape(
        num_targets, trigger_size
    )
    if num_targets:
        sequence = np.arange(num_targets, dtype=np.int64)
        block_start = n + sequence * trigger_size

        # Host -> trigger connector columns.  A host poisoned twice gains two
        # columns; stable-sort ranks keep them in ascending block order.
        order = np.argsort(target_nodes, kind="stable")
        sorted_targets = target_nodes[order]
        group_start = np.flatnonzero(
            np.r_[True, sorted_targets[1:] != sorted_targets[:-1]]
        )
        group_sizes = np.diff(np.r_[group_start, num_targets])
        ranks = np.empty(num_targets, dtype=np.int64)
        ranks[order] = sequence - np.repeat(group_start, group_sizes)
        positions = new_indptr[target_nodes] + old_degrees[target_nodes] + ranks
        new_indices[positions] = block_start

        # Trigger rows: the host column (always the smallest: target < n)
        # first, then internal columns, which np.nonzero yields row-major and
        # hence already column-sorted.
        new_indices[new_indptr[block_start]] = target_nodes
        flat_rows, internal_cols = np.nonzero(
            symmetric.reshape(total_trigger_nodes, trigger_size)
        )
        if flat_rows.size:
            row_offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(internal_counts)[:-1]]
            )
            within_row = np.arange(flat_rows.size, dtype=np.int64) - row_offsets[flat_rows]
            shift = (flat_rows % trigger_size == 0).astype(np.int64)
            dest = new_indptr[n + flat_rows] + shift + within_row
            new_indices[dest] = n + (flat_rows // trigger_size) * trigger_size + internal_cols

    new_adjacency = sp.csr_matrix(
        (new_data, new_indices, new_indptr), shape=(new_n, new_n)
    )
    # Construction guarantees per-row sorted, duplicate-free indices.
    new_adjacency.has_canonical_format = True
    return new_adjacency, trigger_node_index


def _expand(adjacency: sp.spmatrix, new_size: int) -> sp.csr_matrix:
    """Embed ``adjacency`` in the top-left corner of a larger zero matrix."""
    coo = adjacency.tocoo()
    return sp.csr_matrix(
        (coo.data, (coo.row, coo.col)), shape=(new_size, new_size)
    )


def drop_undirected_edges(adjacency: sp.spmatrix, drop: np.ndarray) -> sp.csr_matrix:
    """``adjacency`` without the undirected edges flagged in ``drop``.

    ``drop`` is a boolean mask over the strictly-upper stored entries
    (``row < col``) of ``adjacency.tocoo()``, in stored order: the entries
    of ``sp.triu(adjacency, k=1)``.  Each flagged edge goes together with
    its mirror, because ``(r, c)`` and ``(c, r)`` share the canonical id
    ``min·N + max``.  Diagonal entries are never candidates, and surviving
    entries keep their weights.  With nothing flagged the result is
    ``adjacency.tocsr()``.
    """
    if not drop.any():
        return adjacency.tocsr()
    coo = adjacency.tocoo()
    upper = coo.row < coo.col
    num_nodes = adjacency.shape[0]
    dropped_ids = (
        coo.row[upper][drop].astype(np.int64) * num_nodes
        + coo.col[upper][drop].astype(np.int64)
    )
    lo = np.minimum(coo.row, coo.col).astype(np.int64)
    hi = np.maximum(coo.row, coo.col).astype(np.int64)
    keep = ~np.isin(lo * num_nodes + hi, dropped_ids)
    return sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=adjacency.shape
    )


# ------------------------------------------------------------------ #
# Sampled-attack delta primitives (edge toggles + injected nodes)
# ------------------------------------------------------------------ #
def toggle_edges(
    adjacency: sp.spmatrix, rows: np.ndarray, cols: np.ndarray
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Flip the undirected pairs ``(rows[k], cols[k])`` in ``adjacency``.

    Each listed pair is toggled symmetrically: a present edge is removed
    (whatever its weight), an absent edge is inserted with weight 1.  Cost is
    ``O(nnz + pairs)`` — one additive sparse update — never ``O(N^2)``, which
    is what lets a sampled-block attacker apply a handful of flips per step
    on six-figure-node graphs.

    Returns
    -------
    (new_adjacency, changed_nodes):
        The toggled CSR matrix and the sorted unique endpoints of every
        toggled pair — exactly the :class:`~repro.graph.data.GraphDelta`
        contract set a view built on the result must declare.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise GraphValidationError(
            f"rows/cols must be matching 1-D arrays, got {rows.shape} and {cols.shape}"
        )
    if rows.size == 0:
        return adjacency.tocsr().copy(), np.empty(0, dtype=np.int64)
    n = adjacency.shape[0]
    if rows.min() < 0 or cols.min() < 0 or rows.max() >= n or cols.max() >= n:
        raise GraphValidationError("edge endpoints out of range")
    if np.any(rows == cols):
        raise GraphValidationError("self-loop toggles are not supported")
    stacked = np.stack([np.minimum(rows, cols), np.maximum(rows, cols)], axis=1)
    if np.unique(stacked, axis=0).shape[0] != rows.size:
        raise GraphValidationError("duplicate pairs in one toggle batch")
    adjacency = adjacency.tocsr()
    current = np.asarray(adjacency[rows, cols]).reshape(-1)
    delta = np.where(current != 0.0, -current, 1.0)
    sym_rows = np.concatenate([rows, cols])
    sym_cols = np.concatenate([cols, rows])
    update = sp.coo_matrix(
        (np.concatenate([delta, delta]), (sym_rows, sym_cols)), shape=adjacency.shape
    )
    toggled = (adjacency + update.tocsr()).tocsr()
    toggled.eliminate_zeros()
    toggled.sort_indices()
    return toggled, np.unique(sym_rows)


def append_node_edges(
    adjacency: sp.spmatrix, host_index: np.ndarray
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Append one node per row of ``host_index``, wired to its listed hosts.

    ``host_index`` has shape ``(M, k)``: appended node ``N + m`` gains an
    undirected unit edge to each pre-existing node in ``host_index[m]``.
    Appended nodes are not wired to each other (an injection attacker wants
    its fake nodes to blend into real neighbourhoods, not form a clique).

    Returns
    -------
    (new_adjacency, changed_nodes):
        The ``(N + M, N + M)`` CSR matrix and the sorted unique hosts — the
        pre-existing endpoints a :class:`~repro.graph.data.GraphDelta` built
        on the result must declare (appended nodes are implicit).
    """
    host_index = np.asarray(host_index, dtype=np.int64)
    if host_index.ndim != 2:
        raise GraphValidationError(
            f"host_index must have shape (M, k), got {host_index.shape}"
        )
    n = adjacency.shape[0]
    num_injected, per_node = host_index.shape
    if num_injected == 0 or per_node == 0:
        return adjacency.tocsr().copy(), np.empty(0, dtype=np.int64)
    if host_index.min() < 0 or host_index.max() >= n:
        raise GraphValidationError("injection hosts out of range")
    for m in range(num_injected):
        if np.unique(host_index[m]).size != per_node:
            raise GraphValidationError(f"duplicate hosts for injected node {m}")
    total = n + num_injected
    rows = np.repeat(np.arange(n, total, dtype=np.int64), per_node)
    cols = host_index.reshape(-1)
    data = np.ones(rows.size, dtype=np.float64)
    cross = sp.coo_matrix(
        (np.concatenate([data, data]),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(total, total),
    )
    expanded = (_expand(adjacency, total) + cross.tocsr()).tocsr()
    expanded.sort_indices()
    return expanded, np.unique(cols)
