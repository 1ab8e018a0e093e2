"""Unit tests for adjacency normalisation and propagation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphValidationError
from repro.graph.normalize import (
    add_self_loops,
    dense_gcn_normalize,
    gcn_normalize,
    row_normalize,
)
from repro.graph.propagation import sgc_precompute

from reference.propagation import dense_sgc_precompute


@pytest.fixture
def path_graph():
    """A 4-node path graph 0-1-2-3."""
    adjacency = np.zeros((4, 4))
    for i in range(3):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return sp.csr_matrix(adjacency)


class TestNormalization:
    def test_add_self_loops(self, path_graph):
        looped = add_self_loops(path_graph)
        np.testing.assert_allclose(looped.diagonal(), np.ones(4))

    def test_gcn_normalize_spectrum_bounded_by_one(self, path_graph):
        normalized = gcn_normalize(path_graph).toarray()
        eigenvalues = np.linalg.eigvalsh(normalized)
        assert eigenvalues.max() <= 1.0 + 1e-9
        assert eigenvalues.min() >= -1.0 - 1e-9

    def test_gcn_normalize_symmetric(self, path_graph):
        normalized = gcn_normalize(path_graph).toarray()
        np.testing.assert_allclose(normalized, normalized.T)

    def test_gcn_normalize_isolated_node_no_nan(self):
        adjacency = sp.csr_matrix((3, 3))
        normalized = gcn_normalize(adjacency, add_loops=False)
        assert np.all(np.isfinite(normalized.toarray()))

    def test_gcn_normalize_rejects_non_square(self):
        with pytest.raises(GraphValidationError):
            gcn_normalize(sp.csr_matrix(np.ones((2, 3))))

    def test_dense_matches_sparse(self, path_graph):
        dense = dense_gcn_normalize(path_graph.toarray())
        sparse = gcn_normalize(path_graph).toarray()
        np.testing.assert_allclose(dense, sparse, atol=1e-12)

    def test_row_normalize_sparse(self, path_graph):
        normalized = row_normalize(path_graph)
        sums = np.asarray(normalized.sum(axis=1)).reshape(-1)
        np.testing.assert_allclose(sums, np.ones(4))

    def test_row_normalize_dense_handles_zero_rows(self):
        matrix = np.array([[1.0, 1.0], [0.0, 0.0]])
        normalized = row_normalize(matrix)
        np.testing.assert_allclose(normalized[0], [0.5, 0.5])
        np.testing.assert_allclose(normalized[1], [0.0, 0.0])


class TestPropagation:
    def test_sgc_zero_hops_is_identity(self, path_graph, rng):
        features = rng.normal(size=(4, 3))
        np.testing.assert_allclose(sgc_precompute(path_graph, features, 0), features)

    def test_sgc_matches_manual_one_hop(self, path_graph, rng):
        features = rng.normal(size=(4, 3))
        normalized = gcn_normalize(path_graph)
        expected = normalized @ features
        np.testing.assert_allclose(sgc_precompute(path_graph, features, 1), expected)

    def test_sgc_negative_hops_rejected(self, path_graph):
        with pytest.raises(GraphValidationError):
            sgc_precompute(path_graph, np.ones((4, 2)), -1)

    def test_dense_sgc_matches_sparse(self, path_graph, rng):
        features = rng.normal(size=(4, 3))
        sparse_result = sgc_precompute(path_graph, features, 2)
        dense_result = dense_sgc_precompute(path_graph.toarray(), features, 2)
        np.testing.assert_allclose(dense_result, sparse_result, atol=1e-12)
