"""Property-based tests (hypothesis) for core invariants across the library."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.condensation.gradient_matching import normalize_dense_tensor, per_class_model_gradient
from repro.evaluation.metrics import attack_success_rate, clean_test_accuracy
from repro.graph.normalize import dense_gcn_normalize, gcn_normalize
from repro.utils.seed import new_rng

from reference.subgraph import attach_trigger_subgraph

import scipy.sparse as sp


def random_symmetric_adjacency(rng, n, density=0.3):
    upper = np.triu((rng.random((n, n)) < density).astype(float), k=1)
    return upper + upper.T


class TestAutogradProperties:
    @given(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_are_distributions(self, rows, cols, seed):
        logits = new_rng(seed).normal(scale=5.0, size=(rows, cols))
        probs = F.softmax(Tensor(logits)).data
        assert np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(rows), rtol=1e-9)

    @given(
        n=st.integers(min_value=1, max_value=10),
        c=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_cross_entropy_is_non_negative(self, n, c, seed):
        generator = new_rng(seed)
        logits = Tensor(generator.normal(size=(n, c)))
        labels = generator.integers(0, c, size=n)
        assert F.cross_entropy(logits, labels).item() >= 0.0

    @given(
        n=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_ones(self, n, seed):
        data = new_rng(seed).normal(size=(n, n))
        t = Tensor(data, requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((n, n)))


class TestNormalizationProperties:
    @given(
        n=st.integers(min_value=2, max_value=12),
        density=st.floats(min_value=0.0, max_value=0.8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_normalized_adjacency_spectrum_bounded(self, n, density, seed):
        adjacency = random_symmetric_adjacency(new_rng(seed), n, density)
        normalized = dense_gcn_normalize(adjacency)
        eigenvalues = np.linalg.eigvalsh(normalized)
        assert eigenvalues.max() <= 1.0 + 1e-8
        assert eigenvalues.min() >= -1.0 - 1e-8

    @given(
        n=st.integers(min_value=2, max_value=10),
        density=st.floats(min_value=0.0, max_value=0.8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparse_and_dense_normalisation_agree(self, n, density, seed):
        adjacency = random_symmetric_adjacency(new_rng(seed), n, density)
        sparse_version = gcn_normalize(sp.csr_matrix(adjacency)).toarray()
        dense_version = dense_gcn_normalize(adjacency)
        np.testing.assert_allclose(sparse_version, dense_version, atol=1e-10)

    @given(
        n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_tensor_normalisation_matches_numpy(self, n, seed):
        adjacency = random_symmetric_adjacency(new_rng(seed), n, 0.4)
        tensor_version = normalize_dense_tensor(Tensor(adjacency)).data
        numpy_version = dense_gcn_normalize(adjacency)
        np.testing.assert_allclose(tensor_version, numpy_version, atol=1e-9)


class TestGradientMatchingProperties:
    @given(
        n=st.integers(min_value=2, max_value=12),
        d=st.integers(min_value=1, max_value=6),
        c=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_closed_form_gradient_matches_autograd(self, n, d, c, seed):
        generator = new_rng(seed)
        propagated = generator.normal(size=(n, d))
        labels = generator.integers(0, c, size=n)
        weight = generator.normal(size=(d, c))
        closed = per_class_model_gradient(propagated, labels, weight, np.arange(n), c)
        weight_tensor = Tensor(weight.copy(), requires_grad=True)
        F.cross_entropy(Tensor(propagated).matmul(weight_tensor), labels).backward()
        np.testing.assert_allclose(closed, weight_tensor.grad, rtol=1e-7, atol=1e-10)


class TestTriggerAttachmentProperties:
    @given(
        n=st.integers(min_value=3, max_value=15),
        num_targets=st.integers(min_value=1, max_value=3),
        trigger_size=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_attachment_preserves_host_graph(self, n, num_targets, trigger_size, seed):
        generator = new_rng(seed)
        num_targets = min(num_targets, n)
        adjacency = sp.csr_matrix(random_symmetric_adjacency(generator, n, 0.3))
        features = generator.normal(size=(n, 4))
        targets = generator.choice(n, size=num_targets, replace=False)
        trig_feat = generator.normal(size=(num_targets, trigger_size, 4))
        trig_adj = np.zeros((num_targets, trigger_size, trigger_size))
        new_adj, new_feat, index = attach_trigger_subgraph(
            adjacency, features, targets, trig_feat, trig_adj
        )
        # Host block unchanged, features preserved, trigger indices valid.
        np.testing.assert_allclose(new_adj[:n, :n].toarray(), adjacency.toarray())
        np.testing.assert_allclose(new_feat[:n], features)
        assert index.min() >= n
        assert index.max() < new_feat.shape[0]
        # Every target gained exactly one edge to its first trigger node.
        for target, block in zip(targets, index):
            assert new_adj[target, block[0]] == 1.0


class TestMetricProperties:
    @given(
        n=st.integers(min_value=1, max_value=30),
        c=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_cta_bounds(self, n, c, seed):
        generator = new_rng(seed)
        predictions = generator.integers(0, c, size=n)
        labels = generator.integers(0, c, size=n)
        cta = clean_test_accuracy(predictions, labels, np.arange(n))
        assert 0.0 <= cta <= 1.0

    @given(
        n=st.integers(min_value=2, max_value=30),
        c=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_asr_bounds_and_perfect_attack(self, n, c, seed):
        generator = new_rng(seed)
        labels = generator.integers(1, c, size=n)  # nobody is class 0
        predictions = np.zeros(n, dtype=int)
        asr = attack_success_rate(predictions, labels, np.arange(n), target_class=0)
        assert asr == 1.0
        random_predictions = generator.integers(0, c, size=n)
        asr_random = attack_success_rate(random_predictions, labels, np.arange(n), target_class=0)
        assert 0.0 <= asr_random <= 1.0
