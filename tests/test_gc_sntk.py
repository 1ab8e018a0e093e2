"""Unit tests for the SNTK kernels, KRR and the GC-SNTK condenser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.condensation import CondensationConfig
from repro.condensation.gc_sntk import GCSNTK, SNTKPredictor
from repro.condensation.sntk import (
    KernelRidgeRegression,
    linear_structure_kernel,
    relu_ntk,
)
from repro.exceptions import CondensationError
from repro.utils.seed import new_rng


class TestKernels:
    def test_linear_kernel_is_gram_matrix(self, rng):
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(linear_structure_kernel(x, x), x @ x.T)

    def test_relu_ntk_symmetric_psd(self, rng):
        x = rng.normal(size=(8, 4))
        kernel = relu_ntk(x, x, depth=2)
        np.testing.assert_allclose(kernel, kernel.T, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(kernel)
        assert eigenvalues.min() >= -1e-8

    def test_relu_ntk_depth_one_is_linear(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(4, 3))
        np.testing.assert_allclose(relu_ntk(x, y, depth=1), x @ y.T)

    def test_relu_ntk_rectangular_shape(self, rng):
        kernel = relu_ntk(rng.normal(size=(6, 3)), rng.normal(size=(4, 3)), depth=2)
        assert kernel.shape == (6, 4)

    def test_relu_ntk_invalid_depth(self, rng):
        with pytest.raises(CondensationError):
            relu_ntk(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), depth=0)


class TestKernelRidgeRegression:
    def test_fits_separable_data(self, rng):
        x0 = rng.normal(loc=-2.0, size=(20, 4))
        x1 = rng.normal(loc=2.0, size=(20, 4))
        features = np.vstack([x0, x1])
        labels = np.array([0] * 20 + [1] * 20)
        model = KernelRidgeRegression(ridge=1e-2, kernel="linear").fit(features, labels)
        accuracy = float(np.mean(model.predict(features) == labels))
        assert accuracy > 0.95

    def test_relu_kernel_variant(self, rng):
        features = rng.normal(size=(10, 3))
        labels = rng.integers(0, 2, size=10)
        model = KernelRidgeRegression(ridge=1e-1, kernel="relu").fit(features, labels)
        assert model.predict(features).shape == (10,)

    def test_predict_before_fit_raises(self):
        with pytest.raises(CondensationError):
            KernelRidgeRegression().predict(np.ones((2, 2)))

    def test_invalid_ridge_rejected(self):
        with pytest.raises(CondensationError):
            KernelRidgeRegression(ridge=0.0)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(CondensationError):
            KernelRidgeRegression(kernel="rbf")

    def test_decision_function_shape(self, rng):
        features = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, size=12)
        model = KernelRidgeRegression(ridge=1e-1).fit(features, labels)
        scores = model.decision_function(rng.normal(size=(7, 3)))
        assert scores.shape == (7, 3)


class TestGCSNTKCondenser:
    def test_condense_shapes(self, small_graph, rng):
        condenser = GCSNTK(CondensationConfig(epochs=5, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        assert condensed.method == "gc-sntk"
        assert condensed.features.shape[1] == small_graph.num_features
        np.testing.assert_allclose(condensed.adjacency, np.eye(condensed.num_nodes))

    def test_invalid_ridge_rejected(self):
        with pytest.raises(CondensationError):
            GCSNTK(ridge=-1.0)

    def test_epoch_step_before_initialize_raises(self):
        with pytest.raises(CondensationError):
            GCSNTK().epoch_step()

    def test_loss_decreases(self, small_graph):
        condenser = GCSNTK(CondensationConfig(epochs=1, ratio=0.3))
        condenser.initialize(small_graph, new_rng(1))
        losses = [condenser.epoch_step() for _ in range(20)]
        assert losses[-1] <= losses[0]

    def test_predictor_accuracy_on_small_graph(self, small_graph):
        condenser = GCSNTK(CondensationConfig(epochs=20, ratio=0.4))
        condensed = condenser.condense(small_graph, new_rng(2))
        predictor = SNTKPredictor(
            condensed, ridge=condenser.ridge, num_hops=condenser.config.num_hops
        )
        predictions = predictor.predict(small_graph.adjacency, small_graph.features)
        test = small_graph.split.test
        accuracy = float(np.mean(predictions[test] == small_graph.labels[test]))
        assert accuracy > 0.6

    def test_standalone_predictor(self, small_graph, rng):
        condenser = GCSNTK(CondensationConfig(epochs=3, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        predictor = SNTKPredictor(condensed, ridge=1e-2, num_hops=2)
        predictions = predictor.predict(small_graph.adjacency, small_graph.features)
        assert predictions.shape == (small_graph.num_nodes,)
