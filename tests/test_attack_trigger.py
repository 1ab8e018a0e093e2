"""Unit tests for trigger generation and the local trigger loss."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack.trigger import (
    TriggerConfig,
    TriggerGenerator,
    UniversalTriggerGenerator,
    generate_hard_triggers,
)
from repro.autograd import Adam, Tensor
from repro.exceptions import AttackError
from repro.utils.seed import new_rng

from reference.trigger import local_trigger_loss, trigger_for_node


class TestTriggerConfig:
    def test_defaults_valid(self):
        config = TriggerConfig()
        assert config.trigger_size == 4
        assert config.encoder == "mlp"

    @pytest.mark.parametrize(
        "kwargs",
        [{"trigger_size": 0}, {"encoder": "rnn"}, {"learning_rate": 0.0}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(AttackError):
            TriggerConfig(**kwargs)


MAGNITUDE_FEATURES = {
    "all-negative": lambda rng: -0.1 - 2.0 * rng.random((30, 12)),
    "all-zero": lambda rng: np.zeros((30, 12)),
    "mixed-sign": lambda rng: rng.normal(size=(30, 12)) * np.linspace(0.5, 3.0, 12),
    "negative-extreme": lambda rng: np.r_[rng.random((29, 12)), [[-7.5] * 12]],
}


class TestCalibrate:
    """Both generators' bound is ``feature_scale · np.abs(X).max()`` (1.0
    for an all-zero X), computed without the ``abs`` copy."""

    @pytest.mark.parametrize("kind", sorted(MAGNITUDE_FEATURES))
    @pytest.mark.parametrize("generator_cls", [TriggerGenerator, UniversalTriggerGenerator])
    def test_bound_equals_abs_max_reference(self, generator_cls, kind):
        features = MAGNITUDE_FEATURES[kind](new_rng(5))
        generator = generator_cls(12, new_rng(6), TriggerConfig(feature_scale=0.3))
        generator.calibrate(features)
        magnitude = float(np.abs(features).max())
        expected = 0.3 * (magnitude if magnitude > 0.0 else 1.0)
        assert generator._feature_bound == expected

    def test_nan_propagates(self):
        features = np.ones((4, 3))
        features[2, 1] = np.nan
        generator = TriggerGenerator(3, new_rng(6))
        generator.calibrate(features)
        assert np.isnan(generator._feature_bound)


class TestTriggerGenerator:
    @pytest.mark.parametrize("encoder", ["mlp", "gcn", "transformer"])
    def test_generate_shapes(self, encoder, small_graph, rng):
        config = TriggerConfig(trigger_size=3, hidden=16, encoder=encoder)
        generator = TriggerGenerator(small_graph.num_features, rng, config)
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        features, adjacency = generator.generate(inputs[:5])
        assert features.shape == (5, 3, small_graph.num_features)
        assert adjacency.shape == (5, 3, 3)

    def test_generated_adjacency_is_binary_symmetric_no_loops(self, small_graph, rng):
        generator = TriggerGenerator(small_graph.num_features, rng, TriggerConfig(trigger_size=4))
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        _, adjacency = generator.generate(inputs[:7])
        assert set(np.unique(adjacency)).issubset({0.0, 1.0})
        np.testing.assert_allclose(adjacency, np.transpose(adjacency, (0, 2, 1)))
        for block in adjacency:
            np.testing.assert_allclose(np.diag(block), 0.0)

    def test_gcn_encoder_uses_propagated_inputs(self, small_graph, rng):
        mlp = TriggerGenerator(small_graph.num_features, new_rng(0), TriggerConfig(encoder="mlp"))
        gcn = TriggerGenerator(small_graph.num_features, new_rng(0), TriggerConfig(encoder="gcn"))
        raw = mlp.encode_inputs(small_graph.adjacency, small_graph.features)
        propagated = gcn.encode_inputs(small_graph.adjacency, small_graph.features)
        assert not np.allclose(raw, propagated)

    def test_trigger_for_node_is_differentiable(self, small_graph, rng):
        generator = TriggerGenerator(small_graph.num_features, rng, TriggerConfig(trigger_size=2))
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        features, structure = trigger_for_node(generator, inputs[0])
        (features.sum() + structure.sum()).backward()
        assert any(p.grad is not None for p in generator.parameters())

    def test_generate_rejects_1d_input(self, rng):
        generator = TriggerGenerator(8, rng)
        with pytest.raises(AttackError):
            generator.generate(np.ones(8))

    def test_generate_hard_triggers_wrapper(self, small_graph, rng):
        generator = TriggerGenerator(small_graph.num_features, rng, TriggerConfig(trigger_size=2))
        nodes = np.array([0, 3, 5])
        features, adjacency = generate_hard_triggers(
            generator, small_graph.adjacency, small_graph.features, nodes
        )
        assert features.shape == (3, 2, small_graph.num_features)
        assert adjacency.shape == (3, 2, 2)

    def test_different_nodes_get_different_triggers(self, small_graph, rng):
        generator = TriggerGenerator(small_graph.num_features, rng, TriggerConfig(trigger_size=2))
        features, _ = generate_hard_triggers(
            generator, small_graph.adjacency, small_graph.features, np.array([0, 50])
        )
        assert not np.allclose(features[0], features[1])


class TestUniversalTriggerGenerator:
    def test_same_trigger_for_all_nodes(self, small_graph, rng):
        generator = UniversalTriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=3)
        )
        features, adjacency = generate_hard_triggers(
            generator, small_graph.adjacency, small_graph.features, np.array([0, 10, 20])
        )
        np.testing.assert_allclose(features[0], features[1])
        np.testing.assert_allclose(features[1], features[2])
        np.testing.assert_allclose(adjacency[0], adjacency[1])

    def test_structure_is_fully_connected(self, rng):
        generator = UniversalTriggerGenerator(6, rng, TriggerConfig(trigger_size=3))
        _, adjacency = generator.generate(np.zeros((1, 6)))
        expected = 1.0 - np.eye(3)
        np.testing.assert_allclose(adjacency[0], expected)

    def test_trigger_parameters_are_trainable(self, rng):
        generator = UniversalTriggerGenerator(6, rng, TriggerConfig(trigger_size=2))
        assert len(generator.parameters()) == 1
        features, _ = trigger_for_node(generator, np.zeros(6))
        features.sum().backward()
        assert generator.trigger_features.grad is not None


class TestLocalTriggerLoss:
    def test_loss_is_finite_and_differentiable(self, small_graph, rng):
        generator = TriggerGenerator(small_graph.num_features, rng, TriggerConfig(trigger_size=2))
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        weight = Tensor(rng.normal(size=(small_graph.num_features, small_graph.num_classes)))
        loss = local_trigger_loss(0, small_graph, inputs, generator, weight, target_class=1)
        assert np.isfinite(loss.item())
        loss.backward()
        assert any(p.grad is not None for p in generator.parameters())

    def test_optimising_the_generator_reduces_the_loss(self, small_graph):
        generator_rng = new_rng(3)
        generator = TriggerGenerator(
            small_graph.num_features, generator_rng, TriggerConfig(trigger_size=2, hidden=16)
        )
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        weight = Tensor(new_rng(4).normal(size=(small_graph.num_features, small_graph.num_classes)))
        optimizer = Adam(generator.parameters(), lr=0.05)
        nodes = [0, 5, 10, 33]

        def batch_loss() -> float:
            total = 0.0
            for node in nodes:
                total += local_trigger_loss(
                    node, small_graph, inputs, generator, weight, target_class=2
                ).item()
            return total / len(nodes)

        before = batch_loss()
        for _ in range(25):
            optimizer.zero_grad()
            total = None
            for node in nodes:
                loss = local_trigger_loss(
                    node, small_graph, inputs, generator, weight, target_class=2
                )
                total = loss if total is None else total + loss
            (total * (1.0 / len(nodes))).backward()
            optimizer.step()
        after = batch_loss()
        assert after < before

    def test_isolated_node_still_works(self, small_graph, rng):
        """A node with no neighbours gets a pure star computation graph."""
        import scipy.sparse as sp

        adjacency = small_graph.adjacency.tolil()
        adjacency[0, :] = 0
        adjacency[:, 0] = 0
        isolated = small_graph.with_(adjacency=sp.csr_matrix(adjacency))
        generator = TriggerGenerator(isolated.num_features, rng, TriggerConfig(trigger_size=2))
        inputs = generator.encode_inputs(isolated.adjacency, isolated.features)
        weight = Tensor(rng.normal(size=(isolated.num_features, isolated.num_classes)))
        loss = local_trigger_loss(0, isolated, inputs, generator, weight, target_class=0)
        assert np.isfinite(loss.item())

    def test_max_neighbors_caps_subgraph(self, small_graph, rng):
        generator = TriggerGenerator(small_graph.num_features, rng, TriggerConfig(trigger_size=2))
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        weight = Tensor(rng.normal(size=(small_graph.num_features, small_graph.num_classes)))
        loss = local_trigger_loss(
            0, small_graph, inputs, generator, weight, target_class=1, max_neighbors=1
        )
        assert np.isfinite(loss.item())
