"""Unit tests for the GNN architectures and the shared trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.models import (
    APPNP,
    GAT,
    GCN,
    MLP,
    SGC,
    ChebyNet,
    GraphSAGE,
    Trainer,
    TrainingConfig,
    available_architectures,
    make_model,
)
from repro.models.transformer import MultiHeadSelfAttention, TransformerEncoderLayer
from repro.autograd import Tensor
from repro.utils.seed import new_rng

ARCHITECTURES = [GCN, SGC, GraphSAGE, MLP, APPNP, ChebyNet, GAT]


class TestForwardShapes:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_sparse_adjacency_forward(self, architecture, small_graph, rng):
        model = architecture(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=16)
        logits = model.forward(small_graph.adjacency, small_graph.features)
        assert logits.shape == (small_graph.num_nodes, small_graph.num_classes)

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_dense_adjacency_forward(self, architecture, rng):
        n, d, c = 10, 8, 3
        adjacency = np.eye(n)
        features = rng.normal(size=(n, d))
        model = architecture(d, c, rng=rng, hidden=16)
        logits = model.forward(adjacency, features)
        assert logits.shape == (n, c)

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_predict_returns_valid_labels(self, architecture, small_graph, rng):
        model = architecture(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=16)
        predictions = model.predict(small_graph.adjacency, small_graph.features)
        assert predictions.shape == (small_graph.num_nodes,)
        assert predictions.min() >= 0
        assert predictions.max() < small_graph.num_classes

    def test_predict_restores_training_mode(self, small_graph, rng):
        model = GCN(small_graph.num_features, small_graph.num_classes, rng=rng)
        model.train()
        model.predict(small_graph.adjacency, small_graph.features)
        assert model.training


class TestArchitectureSpecifics:
    def test_gcn_invalid_layers(self, rng):
        with pytest.raises(ConfigurationError):
            GCN(4, 2, rng=rng, num_layers=0)

    def test_gcn_layer_count_configurable(self, small_graph, rng):
        for layers in (1, 2, 3):
            model = GCN(small_graph.num_features, small_graph.num_classes, rng=rng, num_layers=layers)
            logits = model.forward(small_graph.adjacency, small_graph.features)
            assert logits.shape[1] == small_graph.num_classes

    def test_mlp_ignores_structure(self, small_graph, rng):
        model = MLP(small_graph.num_features, small_graph.num_classes, rng=new_rng(0), hidden=16)
        model.eval()
        with_graph = model.forward(small_graph.adjacency, small_graph.features).data
        without_graph = model.forward(np.eye(small_graph.num_nodes), small_graph.features).data
        np.testing.assert_allclose(with_graph, without_graph)

    def test_sgc_is_linear_in_weight(self, small_graph, rng):
        model = SGC(small_graph.num_features, small_graph.num_classes, rng=rng)
        model.eval()
        logits = model.forward(small_graph.adjacency, small_graph.features).data
        model.linear.weight.data *= 2.0
        model.linear.bias.data *= 2.0
        doubled = model.forward(small_graph.adjacency, small_graph.features).data
        np.testing.assert_allclose(doubled, 2.0 * logits, rtol=1e-9)

    def test_appnp_invalid_teleport(self, rng):
        with pytest.raises(ConfigurationError):
            APPNP(4, 2, rng=rng, teleport=0.0)

    def test_cheby_invalid_order(self, rng):
        with pytest.raises(ConfigurationError):
            ChebyNet(4, 2, rng=rng, cheb_order=0)

    def test_gat_invalid_config(self, rng):
        with pytest.raises(ConfigurationError):
            GAT(4, 2, rng=rng, num_layers=0)
        with pytest.raises(ConfigurationError):
            GAT(4, 2, rng=rng, heads=0)

    def test_gat_heads_configurable(self, small_graph, rng):
        for heads in (1, 2, 4):
            model = GAT(
                small_graph.num_features, small_graph.num_classes, rng=rng, hidden=8, heads=heads
            )
            logits = model.forward(small_graph.adjacency, small_graph.features)
            assert logits.shape == (small_graph.num_nodes, small_graph.num_classes)

    def test_gat_deterministic_given_seed(self, small_graph):
        def run():
            model = GAT(small_graph.num_features, small_graph.num_classes, rng=new_rng(3), hidden=8)
            model.eval()
            return model.forward(small_graph.adjacency, small_graph.features).data

        np.testing.assert_array_equal(run(), run())

    def test_gat_attention_weights_sum_to_one(self, small_graph, rng):
        """Segment softmax normalises incoming-edge attention per destination."""
        from repro.models.gat import _edge_list, _segment_softmax
        import scipy.sparse as sp

        dst, src, weight = _edge_list(small_graph.adjacency)
        incidence = sp.csr_matrix(
            (np.ones(dst.size), (dst, np.arange(dst.size))),
            shape=(small_graph.num_nodes, dst.size),
        )
        scores = Tensor(rng.normal(size=(dst.size, 1)))
        attention = _segment_softmax(scores, weight, dst, incidence)
        sums = np.zeros(small_graph.num_nodes)
        np.add.at(sums, dst, attention.data[:, 0])
        np.testing.assert_allclose(sums, np.ones(small_graph.num_nodes), rtol=1e-9)

    def test_gat_gradients_flow(self, small_graph, rng):
        model = GAT(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=8)
        model.eval()
        logits = model.forward(small_graph.adjacency, small_graph.features)
        logits.sum().backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_sage_uses_row_normalised_neighbours(self, rng):
        operator = GraphSAGE._mean_operator(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(operator.sum(axis=1), np.ones(3))


class TestMakeModel:
    def test_registry_contains_table3_architectures(self):
        names = available_architectures()
        for expected in ("gcn", "sgc", "sage", "mlp", "appnp", "cheby", "gat"):
            assert expected in names

    def test_make_model_unknown_raises(self, rng):
        with pytest.raises(ConfigurationError):
            make_model("no-such-model", 4, 2, rng)

    @pytest.mark.parametrize("name", ["gcn", "sgc", "sage", "mlp", "appnp", "cheby", "gat"])
    def test_make_model_instantiates(self, name, rng):
        model = make_model(name, 6, 3, rng, hidden=8)
        logits = model.forward(np.eye(4), rng.normal(size=(4, 6)))
        assert logits.shape == (4, 3)


class TestTransformer:
    def test_attention_shape(self, rng):
        attention = MultiHeadSelfAttention(16, 4, rng)
        out = attention(Tensor(rng.normal(size=(5, 16))))
        assert out.shape == (5, 16)

    def test_attention_dim_divisibility(self, rng):
        with pytest.raises(ConfigurationError):
            MultiHeadSelfAttention(10, 3, rng)

    def test_encoder_layer_shape(self, rng):
        layer = TransformerEncoderLayer(16, 8, rng)
        out = layer(Tensor(rng.normal(size=(6, 16))))
        assert out.shape == (6, 16)

    def test_encoder_gradients_flow(self, rng):
        layer = TransformerEncoderLayer(8, 2, rng)
        out = layer(Tensor(rng.normal(size=(4, 8))))
        out.sum().backward()
        assert all(p.grad is not None for p in layer.parameters())


class TestTrainer:
    def test_training_improves_accuracy(self, small_graph, rng):
        model = GCN(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=16)
        trainer = Trainer(model, TrainingConfig(epochs=60, patience=60))
        before = trainer.evaluate(
            small_graph.adjacency, small_graph.features, small_graph.labels, small_graph.split.test
        )
        trainer.fit(
            small_graph.adjacency,
            small_graph.features,
            small_graph.labels,
            small_graph.split.train,
            small_graph.split.val,
        )
        after = trainer.evaluate(
            small_graph.adjacency, small_graph.features, small_graph.labels, small_graph.split.test
        )
        assert after > before
        assert after > 0.6

    def test_early_stopping_stops_before_budget(self, small_graph, rng):
        model = GCN(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=16)
        trainer = Trainer(model, TrainingConfig(epochs=500, patience=5))
        result = trainer.fit(
            small_graph.adjacency,
            small_graph.features,
            small_graph.labels,
            small_graph.split.train,
            small_graph.split.val,
        )
        assert len(result.history) < 500

    def test_no_validation_runs_full_budget(self, small_graph, rng):
        model = MLP(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=8)
        trainer = Trainer(model, TrainingConfig(epochs=15, patience=5))
        result = trainer.fit(
            small_graph.adjacency,
            small_graph.features,
            small_graph.labels,
            small_graph.split.train,
        )
        assert len(result.history) == 15
        assert np.isnan(result.best_val_accuracy)

    def test_evaluate_empty_index_is_nan(self, small_graph, rng):
        model = MLP(small_graph.num_features, small_graph.num_classes, rng=rng)
        trainer = Trainer(model)
        assert np.isnan(
            trainer.evaluate(
                small_graph.adjacency, small_graph.features, small_graph.labels, np.array([], dtype=int)
            )
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainingConfig(lr=-1.0)
        with pytest.raises(ConfigurationError):
            TrainingConfig(patience=0)

    @pytest.mark.parametrize("architecture", [GCN, MLP])
    def test_early_stopping_restores_first_best_epoch(self, architecture, small_graph):
        """GCN trains through the fused loop, MLP on the tape: one protocol."""
        graph, epochs, patience = small_graph, 200, 5

        def fit(validate: bool, budget: int):
            model = architecture(graph.num_features, graph.num_classes, rng=new_rng(3), hidden=8)
            trainer = Trainer(model, TrainingConfig(epochs=budget, patience=patience))
            val_index = graph.split.val if validate else None
            result = trainer.fit(
                graph.adjacency, graph.features, graph.labels, graph.split.train, val_index
            )
            return model, trainer, result

        model, trainer, result = fit(True, epochs)
        accuracies = [entry["val_accuracy"] for entry in result.history]
        assert len(result.history) < epochs, "the fit must stop early"
        assert len(result.history) == result.best_epoch + patience + 1
        assert result.history[result.best_epoch]["val_accuracy"] == result.best_val_accuracy
        assert result.best_val_accuracy == max(accuracies)
        assert result.best_epoch == accuracies.index(max(accuracies))
        assert trainer.evaluate(
            graph.adjacency, graph.features, graph.labels, graph.split.val
        ) == result.best_val_accuracy
        # Validation draws nothing and writes no weight, so the restored
        # parameters are those of a fit that simply stops after best_epoch.
        truncated, _, _ = fit(False, result.best_epoch + 1)
        for name, value in truncated.state_dict().items():
            np.testing.assert_array_equal(model.state_dict()[name], value)
