"""The materialised trigger attachment that the graph overlay replaced.

Every attack and the ASR evaluation attach triggers through
:func:`repro.graph.view.poison_graph_view`, which keeps the host feature
matrix and the trigger rows as two stacked blocks.  These references build
the same poisoned graph with one ``(N + P*t, d)`` feature vstack: the CSR
surgery :func:`attach_trigger_subgraph`, the original COO rebuild
:func:`attach_trigger_subgraph_coo`, and :class:`MaterialisedBGC`, the BGC
attack poisoning through a delta-carrying ``GraphData`` instead of a view.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.attack.bgc import BGC
from repro.attack.trigger import TriggerGenerator, generate_hard_triggers
from repro.exceptions import GraphValidationError
from repro.graph.data import GraphData
from repro.graph.subgraph import attach_trigger_adjacency


def _validate_trigger_blocks(
    features: np.ndarray,
    target_nodes: np.ndarray,
    trigger_features: np.ndarray,
    trigger_adjacency: np.ndarray,
) -> Tuple[int, int, int]:
    """Shared validation of the trigger-attachment arguments; returns (P, t, d)."""
    if trigger_features.ndim != 3:
        raise GraphValidationError(
            f"trigger_features must have shape (P, t, d), got {trigger_features.shape}"
        )
    num_targets, trigger_size, feature_dim = trigger_features.shape
    if target_nodes.shape[0] != num_targets:
        raise GraphValidationError(
            f"got {target_nodes.shape[0]} target nodes but {num_targets} trigger blocks"
        )
    if trigger_adjacency.shape != (num_targets, trigger_size, trigger_size):
        raise GraphValidationError(
            "trigger_adjacency must have shape (P, t, t), got "
            f"{trigger_adjacency.shape}"
        )
    if features.shape[1] != feature_dim:
        raise GraphValidationError(
            f"trigger feature dim {feature_dim} does not match graph dim {features.shape[1]}"
        )
    return num_targets, trigger_size, feature_dim


def attach_trigger_subgraph(
    adjacency: sp.spmatrix,
    features: np.ndarray,
    target_nodes: np.ndarray,
    trigger_features: np.ndarray,
    trigger_adjacency: np.ndarray,
) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Attach one trigger subgraph per target node (CSR surgery, no COO rebuild).

    Parameters
    ----------
    adjacency, features:
        The host graph.
    target_nodes:
        ``(P,)`` node indices to poison.
    trigger_features:
        ``(P, t, d)`` features of each node's trigger (``t`` trigger nodes).
    trigger_adjacency:
        ``(P, t, t)`` binary internal adjacency of each trigger.  Only the
        strict upper triangle of each block is read; it is mirrored to keep
        the result symmetric (matching the reference COO path).

    Returns
    -------
    new_adjacency, new_features, trigger_node_index:
        The poisoned graph plus, for each target node, the indices of its
        trigger nodes in the new graph (shape ``(P, t)``).

    The adjacency surgery is :func:`~repro.graph.subgraph.attach_trigger_adjacency`;
    this wrapper additionally materialises the poisoned feature matrix with
    one ``(N + P*t, d)`` vstack — the copy
    :func:`~repro.graph.view.poison_graph_view` exists to avoid.  Semantics
    are pinned to :func:`attach_trigger_subgraph_coo` by equivalence tests.
    """
    target_nodes = np.asarray(target_nodes, dtype=np.int64)
    trigger_features = np.asarray(trigger_features, dtype=np.float64)
    trigger_adjacency = np.asarray(trigger_adjacency, dtype=np.float64)
    num_targets, trigger_size, feature_dim = _validate_trigger_blocks(
        features, target_nodes, trigger_features, trigger_adjacency
    )
    new_adjacency, trigger_node_index = attach_trigger_adjacency(
        adjacency, target_nodes, trigger_adjacency
    )
    total_trigger_nodes = num_targets * trigger_size
    new_features = np.vstack([np.asarray(features, dtype=np.float64),
                              trigger_features.reshape(total_trigger_nodes, feature_dim)])
    return new_adjacency, new_features, trigger_node_index


def attach_trigger_subgraph_coo(
    adjacency: sp.spmatrix,
    features: np.ndarray,
    target_nodes: np.ndarray,
    trigger_features: np.ndarray,
    trigger_adjacency: np.ndarray,
) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """COO-rebuild implementation of :func:`attach_trigger_subgraph`.

    This is the original (slow) path: build the trigger edges as a COO
    matrix, embed the host graph in the enlarged shape and add the two.  It
    is the semantic reference that the CSR surgery is pinned against in the
    equivalence tests and the hot-path benchmark.  The
    one deviation from the seed implementation: host edge weights are no
    longer clamped to 1 — the clamp defended against a host/trigger entry
    overlap that cannot occur (trigger columns are brand new) and silently
    rewrote rows outside any recorded delta, corrupting incremental
    propagation over weighted graphs.
    """
    target_nodes = np.asarray(target_nodes, dtype=np.int64)
    trigger_features = np.asarray(trigger_features, dtype=np.float64)
    trigger_adjacency = np.asarray(trigger_adjacency, dtype=np.float64)
    num_targets, trigger_size, feature_dim = _validate_trigger_blocks(
        features, target_nodes, trigger_features, trigger_adjacency
    )

    n = adjacency.shape[0]
    total_trigger_nodes = num_targets * trigger_size
    new_n = n + total_trigger_nodes

    new_features = np.vstack([np.asarray(features, dtype=np.float64),
                              trigger_features.reshape(total_trigger_nodes, feature_dim)])

    rows = []
    cols = []
    trigger_node_index = np.zeros((num_targets, trigger_size), dtype=np.int64)
    for i, target in enumerate(target_nodes.tolist()):
        base = n + i * trigger_size
        trigger_node_index[i] = np.arange(base, base + trigger_size)
        # Connect the host node to the first trigger node (and symmetrically).
        rows.extend([target, base])
        cols.extend([base, target])
        # Internal trigger edges.
        block = trigger_adjacency[i]
        internal_rows, internal_cols = np.nonzero(np.triu(block, k=1))
        for r, c in zip(internal_rows.tolist(), internal_cols.tolist()):
            rows.extend([base + r, base + c])
            cols.extend([base + c, base + r])

    data = np.ones(len(rows), dtype=np.float64)
    trigger_edges = sp.csr_matrix((data, (rows, cols)), shape=(new_n, new_n))
    coo = adjacency.tocoo()
    expanded = sp.csr_matrix((coo.data, (coo.row, coo.col)), shape=(new_n, new_n))
    new_adjacency = (expanded + trigger_edges).tocsr()
    return new_adjacency, new_features, trigger_node_index


class MaterialisedBGC(BGC):
    """BGC whose per-epoch poisoned graph is a materialised ``GraphData``.

    The branch :meth:`BGC._build_poisoned_graph` used to take when its view
    was switched off: same triggers, same adjacency and the same delta, with
    the feature matrix vstacked.  Runs must stay bit-identical to
    :class:`~repro.attack.bgc.BGC`.
    """

    def _build_poisoned_graph(
        self,
        working: GraphData,
        base_poisoned: GraphData,
        generator: TriggerGenerator,
        poisoned_nodes: np.ndarray,
        encoder_inputs: np.ndarray | None = None,
    ) -> GraphData:
        features, adjacency = generate_hard_triggers(
            generator, working.adjacency, working.features, poisoned_nodes, encoder_inputs
        )
        new_adjacency, new_features, _ = attach_trigger_subgraph(
            working.adjacency, working.features, poisoned_nodes, features, adjacency
        )
        num_new = new_features.shape[0] - working.num_nodes
        trigger_labels = np.full(num_new, self.config.target_class, dtype=np.int64)
        return working.with_delta(
            poisoned_nodes,
            adjacency=new_adjacency,
            features=new_features,
            labels=np.concatenate([base_poisoned.labels, trigger_labels]),
            split=base_poisoned.split.copy(),
            name=f"{working.name}-poisoned",
            metadata=dict(working.metadata),
        )
