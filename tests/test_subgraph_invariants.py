"""Property-based invariants of trigger attachment over randomized graphs.

Both materialised attachment references in ``tests/reference/subgraph.py``
— the CSR surgery (:func:`attach_trigger_subgraph`, over the production
:func:`~repro.graph.subgraph.attach_trigger_adjacency`) and the COO rebuild
(:func:`attach_trigger_subgraph_coo`) — must satisfy the same structural
invariants on arbitrary inputs drawn from the library's own graph
generators:

* original node ids are preserved (the host block of the result equals the
  input adjacency, the feature prefix is untouched);
* a symmetric input yields a symmetric output;
* every trigger node is reachable from its host target node;
* the returned ``(P, t)`` trigger index map is consistent with the matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.generators import (
    class_correlated_features,
    degree_corrected_sbm,
    stochastic_block_model,
)
from repro.utils.seed import new_rng

from reference.subgraph import attach_trigger_subgraph, attach_trigger_subgraph_coo

ATTACH_PATHS = [
    pytest.param(attach_trigger_subgraph, id="csr-surgery"),
    pytest.param(attach_trigger_subgraph_coo, id="coo-reference"),
]

SEEDS = [0, 1, 2, 3, 4, 5, 6, 7]


def random_attachment_case(seed: int):
    """A randomized host graph plus trigger blocks (may repeat target nodes)."""
    rng = new_rng(seed)
    num_blocks = int(rng.integers(2, 5))
    sizes = rng.integers(5, 30, size=num_blocks)
    if seed % 2:
        adjacency = degree_corrected_sbm(sizes, p_in=0.3, p_out=0.05, rng=rng)
    else:
        adjacency = stochastic_block_model(sizes, p_in=0.25, p_out=0.04, rng=rng)
    labels = np.repeat(np.arange(num_blocks), sizes)
    num_features = int(rng.integers(4, 12))
    features = class_correlated_features(
        labels,
        num_features=num_features,
        signal_words_per_class=1,
        signal_strength=0.5,
        density=0.2,
        rng=rng,
    )
    n = adjacency.shape[0]
    num_targets = int(rng.integers(1, 6))
    trigger_size = int(rng.integers(1, 5))
    targets = rng.integers(0, n, size=num_targets)
    trigger_features = rng.normal(size=(num_targets, trigger_size, num_features))
    trigger_adjacency = (rng.random((num_targets, trigger_size, trigger_size)) < 0.4).astype(
        np.float64
    )
    return adjacency, features, targets, trigger_features, trigger_adjacency


@pytest.mark.parametrize("attach", ATTACH_PATHS)
@pytest.mark.parametrize("seed", SEEDS)
class TestAttachmentInvariants:
    def test_original_node_ids_preserved(self, attach, seed):
        adjacency, features, targets, trig_feat, trig_adj = random_attachment_case(seed)
        n = adjacency.shape[0]
        new_adj, new_feat, _ = attach(adjacency, features, targets, trig_feat, trig_adj)
        host_block = new_adj[:n, :n]
        assert (host_block != adjacency).nnz == 0
        np.testing.assert_array_equal(new_feat[:n], features)

    def test_symmetric_input_gives_symmetric_output(self, attach, seed):
        adjacency, features, targets, trig_feat, trig_adj = random_attachment_case(seed)
        assert (adjacency != adjacency.T).nnz == 0  # generators emit symmetric graphs
        new_adj, _, _ = attach(adjacency, features, targets, trig_feat, trig_adj)
        assert (new_adj != new_adj.T).nnz == 0

    def test_trigger_nodes_reachable_from_host(self, attach, seed):
        adjacency, features, targets, trig_feat, trig_adj = random_attachment_case(seed)
        new_adj, _, index_map = attach(adjacency, features, targets, trig_feat, trig_adj)
        for i, (host, trigger_nodes) in enumerate(zip(targets.tolist(), index_map)):
            # BFS from the host, restricted to nothing: every trigger node of a
            # *connected* trigger block must be reached; the first trigger node
            # always is (direct edge).  Internal blocks may be disconnected, in
            # which case only the component of trigger node 0 is required.
            reachable = {host}
            frontier = [host]
            while frontier:
                node = frontier.pop()
                row = new_adj.indices[new_adj.indptr[node] : new_adj.indptr[node + 1]]
                for neighbor in row.tolist():
                    if neighbor not in reachable:
                        reachable.add(neighbor)
                        frontier.append(neighbor)
            assert int(trigger_nodes[0]) in reachable
            block = np.triu(trig_adj[i], k=1)
            block = ((block + block.T) > 0).astype(np.float64)
            component = {0}
            changed = True
            while changed:
                changed = False
                for r in range(block.shape[0]):
                    if r in component:
                        for c in np.flatnonzero(block[r]).tolist():
                            if c not in component:
                                component.add(c)
                                changed = True
            for local in component:
                assert int(trigger_nodes[local]) in reachable

    def test_index_map_consistent(self, attach, seed):
        adjacency, features, targets, trig_feat, trig_adj = random_attachment_case(seed)
        n = adjacency.shape[0]
        num_targets, trigger_size, _ = trig_feat.shape
        new_adj, new_feat, index_map = attach(
            adjacency, features, targets, trig_feat, trig_adj
        )
        assert index_map.shape == (num_targets, trigger_size)
        np.testing.assert_array_equal(
            index_map.reshape(-1), n + np.arange(num_targets * trigger_size)
        )
        dense = new_adj.toarray()
        for i, (host, trigger_nodes) in enumerate(zip(targets.tolist(), index_map)):
            # The host-trigger connector edge exists, symmetrically.
            assert dense[host, trigger_nodes[0]] == 1.0
            assert dense[trigger_nodes[0], host] == 1.0
            # Internal edges match the symmetrised upper triangle of the block.
            upper = np.triu(trig_adj[i], k=1) != 0
            expected = (upper | upper.T).astype(np.float64)
            block = dense[np.ix_(trigger_nodes, trigger_nodes)]
            np.testing.assert_array_equal(block, expected)
            # Trigger features land on the mapped rows.
            np.testing.assert_array_equal(new_feat[trigger_nodes], trig_feat[i])

    def test_no_stray_edges_between_blocks(self, attach, seed):
        adjacency, features, targets, trig_feat, trig_adj = random_attachment_case(seed)
        n = adjacency.shape[0]
        new_adj, _, index_map = attach(adjacency, features, targets, trig_feat, trig_adj)
        dense = new_adj.toarray()
        for i, trigger_nodes in enumerate(index_map):
            others = np.setdiff1d(
                np.arange(n, dense.shape[0]), np.asarray(trigger_nodes)
            )
            # Trigger nodes never connect to other blocks' trigger nodes.
            assert dense[np.ix_(trigger_nodes, others)].sum() == 0.0
            # And only trigger node 0 touches the host graph.
            host_cols = dense[np.ix_(trigger_nodes[1:], np.arange(n))]
            assert host_cols.sum() == 0.0


@pytest.mark.parametrize("attach", ATTACH_PATHS)
def test_empty_target_set(attach):
    adjacency, features, _, _, _ = random_attachment_case(0)
    trig_feat = np.zeros((0, 3, features.shape[1]))
    trig_adj = np.zeros((0, 3, 3))
    new_adj, new_feat, index_map = attach(
        adjacency, features, np.zeros(0, dtype=np.int64), trig_feat, trig_adj
    )
    assert new_adj.shape == adjacency.shape
    assert (new_adj != adjacency).nnz == 0
    np.testing.assert_array_equal(new_feat, features)
    assert index_map.shape == (0, 3)
