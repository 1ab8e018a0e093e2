"""Unit tests for subgraph extraction and trigger attachment."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphValidationError
from repro.graph.subgraph import drop_undirected_edges, induced_subgraph, k_hop_subgraph

from reference.subgraph import attach_trigger_subgraph


@pytest.fixture
def chain():
    """A 5-node chain 0-1-2-3-4."""
    adjacency = np.zeros((5, 5))
    for i in range(4):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return sp.csr_matrix(adjacency)


class TestKHopSubgraph:
    def test_zero_hops_is_just_center(self, chain):
        nodes, sub = k_hop_subgraph(chain, 2, 0)
        np.testing.assert_array_equal(nodes, [2])
        assert sub.shape == (1, 1)

    def test_one_hop_of_chain_center(self, chain):
        nodes, sub = k_hop_subgraph(chain, 2, 1)
        np.testing.assert_array_equal(nodes, [1, 2, 3])
        assert sub.nnz == 4  # edges 1-2 and 2-3, both directions

    def test_two_hops_covers_whole_chain(self, chain):
        nodes, _ = k_hop_subgraph(chain, 2, 2)
        np.testing.assert_array_equal(nodes, [0, 1, 2, 3, 4])

    def test_hops_beyond_diameter_saturate(self, chain):
        nodes, _ = k_hop_subgraph(chain, 0, 100)
        assert nodes.size == 5

    def test_out_of_range_center_rejected(self, chain):
        with pytest.raises(GraphValidationError):
            k_hop_subgraph(chain, 10, 1)

    def test_isolated_node(self):
        adjacency = sp.csr_matrix((3, 3))
        nodes, sub = k_hop_subgraph(adjacency, 1, 2)
        np.testing.assert_array_equal(nodes, [1])
        assert sub.nnz == 0


class TestInducedSubgraph:
    def test_relabelling(self, chain):
        features = np.arange(10.0).reshape(5, 2)
        labels = np.array([0, 1, 0, 1, 0])
        sub_adj, sub_feat, sub_labels, mapping = induced_subgraph(
            chain, features, labels, np.array([1, 3, 4])
        )
        assert sub_adj.shape == (3, 3)
        np.testing.assert_allclose(sub_feat, features[[1, 3, 4]])
        np.testing.assert_array_equal(sub_labels, labels[[1, 3, 4]])
        assert mapping == {1: 0, 3: 1, 4: 2}

    def test_edges_preserved_within_selection(self, chain):
        sub_adj, *_ = induced_subgraph(
            chain, np.zeros((5, 1)), np.zeros(5, dtype=int), np.array([2, 3])
        )
        assert sub_adj[0, 1] == 1.0  # edge 2-3 survives

    def test_edges_to_outside_dropped(self, chain):
        sub_adj, *_ = induced_subgraph(
            chain, np.zeros((5, 1)), np.zeros(5, dtype=int), np.array([0, 4])
        )
        assert sub_adj.nnz == 0


class TestAttachTrigger:
    def make_triggers(self, num_targets, trigger_size=2, dim=3):
        features = np.ones((num_targets, trigger_size, dim))
        adjacency = np.zeros((num_targets, trigger_size, trigger_size))
        adjacency[:, 0, 1] = adjacency[:, 1, 0] = 1.0
        return features, adjacency

    def test_node_count_grows(self, chain):
        features = np.zeros((5, 3))
        trig_feat, trig_adj = self.make_triggers(2)
        new_adj, new_feat, index = attach_trigger_subgraph(
            chain, features, np.array([0, 4]), trig_feat, trig_adj
        )
        assert new_adj.shape == (9, 9)
        assert new_feat.shape == (9, 3)
        assert index.shape == (2, 2)

    def test_host_connected_to_first_trigger_node(self, chain):
        features = np.zeros((5, 3))
        trig_feat, trig_adj = self.make_triggers(1)
        new_adj, _, index = attach_trigger_subgraph(
            chain, features, np.array([2]), trig_feat, trig_adj
        )
        first_trigger = index[0, 0]
        assert new_adj[2, first_trigger] == 1.0
        assert new_adj[first_trigger, 2] == 1.0

    def test_internal_trigger_edges_present(self, chain):
        features = np.zeros((5, 3))
        trig_feat, trig_adj = self.make_triggers(1)
        new_adj, _, index = attach_trigger_subgraph(
            chain, features, np.array([2]), trig_feat, trig_adj
        )
        a, b = index[0]
        assert new_adj[a, b] == 1.0

    def test_original_edges_preserved(self, chain):
        features = np.zeros((5, 3))
        trig_feat, trig_adj = self.make_triggers(1)
        new_adj, *_ = attach_trigger_subgraph(
            chain, features, np.array([2]), trig_feat, trig_adj
        )
        original = new_adj[:5, :5].toarray()
        np.testing.assert_allclose(original, chain.toarray())

    def test_trigger_features_copied(self, chain):
        features = np.zeros((5, 3))
        trig_feat, trig_adj = self.make_triggers(1)
        trig_feat[0, 1] = [7.0, 8.0, 9.0]
        _, new_feat, index = attach_trigger_subgraph(
            chain, features, np.array([2]), trig_feat, trig_adj
        )
        np.testing.assert_allclose(new_feat[index[0, 1]], [7.0, 8.0, 9.0])

    def test_shape_validation(self, chain):
        features = np.zeros((5, 3))
        trig_feat, trig_adj = self.make_triggers(2)
        with pytest.raises(GraphValidationError):
            attach_trigger_subgraph(chain, features, np.array([0]), trig_feat, trig_adj)

    def test_feature_dim_validation(self, chain):
        features = np.zeros((5, 4))
        trig_feat, trig_adj = self.make_triggers(1, dim=3)
        with pytest.raises(GraphValidationError):
            attach_trigger_subgraph(chain, features, np.array([0]), trig_feat, trig_adj)

    def test_adjacency_remains_binary(self, chain):
        features = np.zeros((5, 3))
        trig_feat, trig_adj = self.make_triggers(3)
        new_adj, *_ = attach_trigger_subgraph(
            chain, features, np.array([1, 2, 3]), trig_feat, trig_adj
        )
        assert new_adj.max() <= 1.0


class TestDropUndirectedEdges:
    @pytest.fixture
    def weighted(self):
        """Weighted symmetric adjacency with a stored diagonal."""
        dense = np.zeros((5, 5))
        for i, weight in enumerate([0.5, 1.5, 2.0, 3.0]):
            dense[i, i + 1] = dense[i + 1, i] = weight
        dense[0, 3] = dense[3, 0] = 4.0
        np.fill_diagonal(dense, 9.0)
        return sp.csr_matrix(dense)

    def test_flagged_edges_go_with_their_mirrors(self, weighted):
        upper = sp.triu(weighted, k=1).tocoo()
        drop = np.zeros(upper.nnz, dtype=bool)
        drop[[0, 2]] = True
        expected = weighted.toarray()
        for r, c in zip(upper.row[drop], upper.col[drop]):
            expected[r, c] = expected[c, r] = 0.0
        result = drop_undirected_edges(weighted, drop)
        np.testing.assert_array_equal(result.toarray(), expected)
        np.testing.assert_array_equal(result.diagonal(), weighted.diagonal())

    def test_nothing_flagged_returns_the_input(self, weighted):
        drop = np.zeros(sp.triu(weighted, k=1).nnz, dtype=bool)
        assert drop_undirected_edges(weighted, drop) is weighted

    def test_everything_flagged_leaves_only_the_diagonal(self, weighted):
        drop = np.ones(sp.triu(weighted, k=1).nnz, dtype=bool)
        result = drop_undirected_edges(weighted, drop)
        np.testing.assert_array_equal(result.toarray(), np.diag(weighted.diagonal()))

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_mask_follows_the_inputs_own_stored_order(self, weighted, fmt):
        """Whatever the format, the mask indexes ``sp.triu`` of that input,
        and the result is CSR."""
        adjacency = weighted.asformat(fmt)
        upper = sp.triu(adjacency, k=1).tocoo()
        drop = np.isin(upper.row * 5 + upper.col, [0 * 5 + 1, 2 * 5 + 3])
        assert drop.sum() == 2
        expected = weighted.toarray()
        expected[[0, 1, 2, 3], [1, 0, 3, 2]] = 0.0
        result = drop_undirected_edges(adjacency, drop)
        assert result.format == "csr"
        np.testing.assert_array_equal(result.toarray(), expected)
