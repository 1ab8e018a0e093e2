"""Unit tests for gradient-matching condensation (DC-Graph / GCond / GCond-X)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.condensation import CondensationConfig, make_condenser
from repro.condensation.gradient_matching import (
    GradientMatchingCondenser,
    StructureGenerator,
    all_class_model_gradients,
    gradient_distance,
    normalize_dense_tensor,
)
from repro.exceptions import CondensationError
from repro.utils.seed import new_rng

from reference.gradient_matching import per_class_model_gradient


class TestPerClassGradient:
    def test_matches_autograd_gradient(self, rng):
        n, d, c = 12, 6, 3
        propagated = rng.normal(size=(n, d))
        labels = rng.integers(0, c, size=n)
        weight = rng.normal(size=(d, c))
        index = np.arange(n)

        closed_form = per_class_model_gradient(propagated, labels, weight, index, c)

        weight_tensor = Tensor(weight.copy(), requires_grad=True)
        loss = F.cross_entropy(Tensor(propagated).matmul(weight_tensor), labels)
        loss.backward()
        np.testing.assert_allclose(closed_form, weight_tensor.grad, rtol=1e-8)

    def test_empty_index_returns_zeros(self, rng):
        weight = rng.normal(size=(4, 2))
        gradient = per_class_model_gradient(
            rng.normal(size=(5, 4)), np.zeros(5, dtype=int), weight, np.array([], dtype=int), 2
        )
        np.testing.assert_allclose(gradient, np.zeros_like(weight))

    def test_subset_index_uses_only_those_rows(self, rng):
        propagated = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 0, 1, 1, 1])
        weight = rng.normal(size=(3, 2))
        full = per_class_model_gradient(propagated, labels, weight, np.arange(6), 2)
        class0 = per_class_model_gradient(propagated, labels, weight, np.arange(3), 2)
        assert not np.allclose(full, class0)


class TestAllClassGradients:
    """The vectorised one-pass routine must agree with the scalar per-class one."""

    def test_matches_per_class_routine(self, rng):
        n, d, c = 40, 7, 4
        propagated = rng.normal(size=(n, d))
        labels = rng.integers(0, c, size=n)
        weight = rng.normal(size=(d, c))
        # A shuffled, strict-subset index mirrors how train splits look.
        index = rng.permutation(n)[: n - 5]

        vectorised = all_class_model_gradients(propagated, labels, weight, index, c)
        for cls in range(c):
            class_index = index[labels[index] == cls]
            if class_index.size == 0:
                assert cls not in vectorised
                continue
            expected = per_class_model_gradient(propagated, labels, weight, class_index, c)
            np.testing.assert_allclose(vectorised[cls], expected, rtol=1e-12, atol=1e-14)

    def test_absent_class_is_omitted(self, rng):
        propagated = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 0, 2, 2, 2])
        weight = rng.normal(size=(3, 3))
        gradients = all_class_model_gradients(propagated, labels, weight, np.arange(6), 3)
        assert set(gradients) == {0, 2}

    def test_empty_index_returns_empty_mapping(self, rng):
        weight = rng.normal(size=(4, 2))
        gradients = all_class_model_gradients(
            rng.normal(size=(5, 4)), np.zeros(5, dtype=int), weight, np.array([], dtype=int), 2
        )
        assert gradients == {}


class TestGradientDistance:
    def test_cosine_distance_zero_for_identical(self, rng):
        gradient = rng.normal(size=(5, 3))
        distance = gradient_distance(gradient, Tensor(gradient.copy(), requires_grad=True))
        assert distance.item() == pytest.approx(0.0, abs=1e-8)

    def test_cosine_distance_scale_invariant(self, rng):
        gradient = rng.normal(size=(5, 3))
        scaled = gradient_distance(gradient, Tensor(2.0 * gradient, requires_grad=True))
        assert scaled.item() == pytest.approx(0.0, abs=1e-6)

    def test_cosine_distance_max_for_opposite(self, rng):
        gradient = rng.normal(size=(5, 3))
        distance = gradient_distance(gradient, Tensor(-gradient, requires_grad=True))
        assert distance.item() == pytest.approx(2.0 * 3, rel=1e-6)

    def test_euclidean_distance(self, rng):
        gradient = rng.normal(size=(4, 2))
        other = gradient + 1.0
        distance = gradient_distance(gradient, Tensor(other, requires_grad=True), metric="euclidean")
        assert distance.item() == pytest.approx(float(((other - gradient) ** 2).sum()))

    def test_unknown_metric_rejected(self, rng):
        with pytest.raises(CondensationError):
            gradient_distance(np.ones((2, 2)), Tensor(np.ones((2, 2))), metric="chebyshev")

    def test_distance_is_differentiable(self, rng):
        target = rng.normal(size=(4, 2))
        synthetic = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        gradient_distance(target, synthetic).backward()
        assert synthetic.grad is not None
        assert synthetic.grad.shape == (4, 2)


class TestNormalizeDenseTensor:
    def test_matches_numpy_normalisation(self, rng):
        from repro.graph.normalize import dense_gcn_normalize

        adjacency = (rng.random((6, 6)) < 0.4).astype(float)
        adjacency = np.triu(adjacency, 1)
        adjacency = adjacency + adjacency.T
        tensor_version = normalize_dense_tensor(Tensor(adjacency)).data
        numpy_version = dense_gcn_normalize(adjacency)
        np.testing.assert_allclose(tensor_version, numpy_version, atol=1e-10)

    def test_gradient_flows_through_normalisation(self, rng):
        adjacency = Tensor(rng.random((4, 4)), requires_grad=True)
        normalize_dense_tensor(adjacency).sum().backward()
        assert adjacency.grad is not None


class TestStructureGenerator:
    def test_output_is_symmetric_valid_adjacency(self, rng):
        generator = StructureGenerator(num_features=6, hidden=8, rng=rng)
        features = Tensor(rng.normal(size=(5, 6)))
        adjacency = generator(features).data
        np.testing.assert_allclose(adjacency, adjacency.T, atol=1e-10)
        assert np.all(adjacency >= 0.0)
        assert np.all(adjacency <= 1.0)
        np.testing.assert_allclose(np.diag(adjacency), np.zeros(5))

    def test_fresh_generator_is_sparse_leaning(self, rng):
        generator = StructureGenerator(num_features=6, hidden=8, rng=rng)
        adjacency = generator(Tensor(rng.normal(size=(8, 6)))).data
        # The score bias keeps a freshly initialised structure well below 0.5.
        assert adjacency.mean() < 0.5


class TestCondensers:
    @pytest.mark.parametrize("name", ["dc-graph", "gcond", "gcond-x"])
    def test_condense_produces_expected_budget(self, name, small_graph, rng):
        config = CondensationConfig(epochs=3, ratio=0.2)
        condenser = make_condenser(name, config)
        condensed = condenser.condense(small_graph, rng)
        assert condensed.num_nodes >= small_graph.num_classes
        assert condensed.method == condenser.name
        assert condensed.features.shape[1] == small_graph.num_features
        assert set(np.unique(condensed.labels)) <= set(range(small_graph.num_classes))

    def test_structure_free_condensers_use_identity(self, small_graph, rng):
        for name in ("dc-graph", "gcond-x"):
            condenser = make_condenser(name, CondensationConfig(epochs=2, ratio=0.2))
            condensed = condenser.condense(small_graph, rng)
            np.testing.assert_allclose(condensed.adjacency, np.eye(condensed.num_nodes))

    def test_gcond_learns_structure(self, small_graph, rng):
        condenser = make_condenser("gcond", CondensationConfig(epochs=2, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        assert condensed.adjacency.shape == (condensed.num_nodes, condensed.num_nodes)
        np.testing.assert_allclose(np.diag(condensed.adjacency), 0.0)

    def test_outer_step_before_initialize_raises(self):
        condenser = make_condenser("gcond")
        with pytest.raises(CondensationError):
            condenser.outer_step()

    def test_synthetic_before_initialize_raises(self):
        condenser = make_condenser("dc-graph")
        with pytest.raises(CondensationError):
            condenser.synthetic()

    def test_matching_loss_decreases_over_epochs(self, small_graph):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=1, ratio=0.3))
        generator = new_rng(0)
        condenser.initialize(small_graph, generator)
        condenser.reset_surrogate()
        condenser.train_surrogate()
        losses = [condenser.outer_step() for _ in range(15)]
        assert losses[-1] < losses[0]

    def test_surrogate_training_reduces_loss(self, small_graph):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=1, ratio=0.3))
        condenser.initialize(small_graph, new_rng(0))
        condenser.reset_surrogate()
        first = condenser.train_surrogate(steps=1)
        later = condenser.train_surrogate(steps=30)
        assert later < first

    def test_epoch_step_accepts_external_graph(self, small_graph, rng):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=1, ratio=0.3))
        condenser.initialize(small_graph, rng)
        loss = condenser.epoch_step(small_graph)
        assert np.isfinite(loss)

    def test_inductive_graph_condenses_training_view(self, small_graph, rng):
        inductive = small_graph.with_(inductive=True)
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=2, ratio=0.5))
        condensed = condenser.condense(inductive, rng)
        # Budget is computed against the 18-node training view.
        assert condensed.num_nodes <= inductive.split.train.size

    def test_synthetic_labels_cover_training_classes(self, small_graph, rng):
        condenser = make_condenser("dc-graph", CondensationConfig(epochs=2, ratio=0.2))
        condensed = condenser.condense(small_graph, rng)
        train_classes = set(np.unique(small_graph.labels[small_graph.split.train]))
        assert set(np.unique(condensed.labels)) == train_classes


class TestGradientMatchingAsClass:
    def test_base_class_flags(self):
        assert GradientMatchingCondenser.use_structure is False
        assert GradientMatchingCondenser.propagate_real is True
