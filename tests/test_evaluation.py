"""Unit tests for metrics, the evaluation pipeline and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack.trigger import TriggerConfig, TriggerGenerator, generate_hard_triggers
from repro.condensation import CondensationConfig, CondensedGraph, make_condenser
from repro.evaluation import (
    EvaluationConfig,
    attack_success_rate,
    clean_test_accuracy,
    format_percent,
    format_table,
)
from repro.defenses import RandSmoothConfig, SmoothedModel
from repro.evaluation.pipeline import (
    evaluate_backdoor,
    evaluate_clean,
    predict_on_graph,
    train_model_on_condensed,
    triggered_test_graph,
)
from repro.exceptions import ConfigurationError
from repro.graph.view import GraphView
from repro.utils.seed import new_rng

from reference.subgraph import attach_trigger_subgraph, with_delta


class TestMetrics:
    def test_cta_perfect(self):
        predictions = np.array([0, 1, 2, 1])
        labels = np.array([0, 1, 2, 1])
        assert clean_test_accuracy(predictions, labels, np.arange(4)) == 1.0

    def test_cta_subset_only(self):
        predictions = np.array([0, 9, 9, 9])
        labels = np.array([0, 1, 2, 1])
        assert clean_test_accuracy(predictions, labels, np.array([0])) == 1.0

    def test_cta_empty_test_set_rejected(self):
        with pytest.raises(ConfigurationError):
            clean_test_accuracy(np.array([0]), np.array([0]), np.array([], dtype=int))

    def test_asr_excludes_target_class_nodes(self):
        predictions = np.array([1, 1, 1, 1])
        labels = np.array([1, 0, 2, 0])  # node 0 is already class 1
        asr = attack_success_rate(predictions, labels, np.arange(4), target_class=1)
        assert asr == 1.0  # 3 of 3 non-target nodes hit the target

    def test_asr_include_target_class(self):
        predictions = np.array([1, 0, 1])
        labels = np.array([1, 0, 2])
        asr = attack_success_rate(
            predictions, labels, np.arange(3), target_class=1, exclude_target_class=False
        )
        assert asr == pytest.approx(2.0 / 3.0)

    def test_asr_all_target_class_rejected(self):
        with pytest.raises(ConfigurationError):
            attack_success_rate(np.array([0]), np.array([0]), np.array([0]), target_class=0)

    def test_asr_zero_when_attack_fails(self):
        predictions = np.array([0, 2, 1])
        labels = np.array([0, 2, 1])
        asr = attack_success_rate(predictions, labels, np.arange(3), target_class=4)
        assert asr == 0.0


class TestPipeline:
    def test_train_model_on_condensed_gnn(self, small_graph, rng):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=3, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        model = train_model_on_condensed(
            condensed, small_graph, EvaluationConfig(epochs=30, hidden=8), rng
        )
        cta = evaluate_clean(model, small_graph)
        assert 0.0 <= cta <= 1.0

    def test_train_model_on_gc_sntk_uses_krr(self, small_graph, rng):
        from repro.condensation.gc_sntk import SNTKPredictor

        condenser = make_condenser("gc-sntk", CondensationConfig(epochs=3, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        model = train_model_on_condensed(condensed, small_graph, EvaluationConfig(), rng)
        assert isinstance(model, SNTKPredictor)

    def test_evaluate_backdoor_returns_fraction(self, small_graph, rng):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=3, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        model = train_model_on_condensed(
            condensed, small_graph, EvaluationConfig(epochs=20, hidden=8), rng
        )
        generator = TriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=2, hidden=8)
        )
        asr = evaluate_backdoor(model, small_graph, generator, target_class=0)
        assert 0.0 <= asr <= 1.0

    def test_different_architectures_supported(self, small_graph, rng):
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=2, ratio=0.3))
        condensed = condenser.condense(small_graph, rng)
        for architecture in ("gcn", "sgc", "mlp"):
            model = train_model_on_condensed(
                condensed,
                small_graph,
                EvaluationConfig(architecture=architecture, epochs=10, hidden=8),
                rng,
            )
            assert evaluate_clean(model, small_graph) >= 0.0

    def test_invalid_evaluation_config(self):
        with pytest.raises(ConfigurationError):
            EvaluationConfig(epochs=0)


def _materialised_triggered_graph(graph, generator, target_class, test_index=None):
    """The triggered test graph built the pre-overlay way: CSR surgery, a
    feature vstack and a ``with_delta`` on the test nodes."""
    test_index = graph.split.test if test_index is None else test_index
    features, structures = generate_hard_triggers(
        generator, graph.adjacency, graph.features, test_index
    )
    adjacency, node_features, _ = attach_trigger_subgraph(
        graph.adjacency, graph.features, test_index, features, structures
    )
    num_new = node_features.shape[0] - graph.num_nodes
    return with_delta(
        graph,
        test_index,
        adjacency=adjacency,
        features=node_features,
        labels=np.concatenate([graph.labels, np.full(num_new, target_class, dtype=np.int64)]),
        name=f"{graph.name}-triggered",
    )


class TestTriggeredTestGraph:
    """The overlay triggered graph equals the materialised reference, and
    every predictor family scores the same ASR on both."""

    TARGET = 1

    @pytest.fixture
    def pair(self, small_graph, rng):
        generator = TriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=3, hidden=8)
        )
        overlay = triggered_test_graph(small_graph, generator, self.TARGET)
        reference = _materialised_triggered_graph(small_graph, generator, self.TARGET)
        return overlay, reference

    @staticmethod
    def assert_same_graph(overlay, reference, base, test_index):
        assert isinstance(overlay, GraphView)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(overlay.adjacency, part), getattr(reference.adjacency, part)
            )
        np.testing.assert_array_equal(np.asarray(overlay.features), reference.features)
        np.testing.assert_array_equal(overlay.labels, reference.labels)
        assert overlay.derivation.base is base
        np.testing.assert_array_equal(overlay.derivation.changed_nodes, test_index)

    def test_overlay_matches_materialised_reference(self, pair, small_graph):
        overlay, reference = pair
        self.assert_same_graph(overlay, reference, small_graph, small_graph.split.test)

    @pytest.mark.parametrize("trigger_size", [1, 2, 5])
    def test_overlay_matches_reference_at_every_trigger_size(
        self, small_graph, rng, trigger_size
    ):
        generator = TriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=trigger_size, hidden=8)
        )
        overlay = triggered_test_graph(small_graph, generator, self.TARGET)
        reference = _materialised_triggered_graph(small_graph, generator, self.TARGET)
        assert overlay.num_nodes == small_graph.num_nodes + trigger_size * len(
            small_graph.split.test
        )
        self.assert_same_graph(overlay, reference, small_graph, small_graph.split.test)

    def test_overlay_on_an_explicit_test_index(self, small_graph, rng):
        generator = TriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=2, hidden=8)
        )
        subset = small_graph.split.test[::3]
        overlay = triggered_test_graph(small_graph, generator, self.TARGET, test_index=subset)
        reference = _materialised_triggered_graph(
            small_graph, generator, self.TARGET, test_index=subset
        )
        self.assert_same_graph(overlay, reference, small_graph, subset)

    def test_host_graph_is_untouched(self, small_graph, rng):
        adjacency = small_graph.adjacency.copy()
        features = np.array(small_graph.features, copy=True)
        labels = small_graph.labels.copy()
        generator = TriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=3, hidden=8)
        )
        triggered_test_graph(small_graph, generator, self.TARGET)
        assert (small_graph.adjacency != adjacency).nnz == 0
        np.testing.assert_array_equal(small_graph.features, features)
        np.testing.assert_array_equal(small_graph.labels, labels)

    @pytest.mark.parametrize("test_nodes", ["all", "one", "none"])
    @pytest.mark.parametrize(
        "kind",
        ["gcn", "sgc", "mlp", "appnp", "gat", "sntk", "smoothed-gcn", "smoothed-sntk"],
    )
    def test_asr_identical_on_overlay_and_reference(
        self, small_graph, rng, kind, test_nodes
    ):
        """Every predictor family predicts the same labels on the overlay as
        on the materialised graph: GCN, MLP, APPNP, GAT and the smoothed GCN
        through the per-block first layer, SGC and the SNTK predictors
        through a stacked matrix.  The empty test set triggers nothing and
        has no ASR to compare."""
        test = {
            "all": small_graph.split.test,
            "one": small_graph.split.test[:1],
            "none": np.empty(0, dtype=np.int64),
        }[test_nodes]
        generator = TriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=3, hidden=8)
        )
        overlay = triggered_test_graph(small_graph, generator, self.TARGET, test_index=test)
        reference = _materialised_triggered_graph(
            small_graph, generator, self.TARGET, test_index=test
        )
        condenser = "gc-sntk" if kind.endswith("sntk") else "gcond-x"
        condensed = make_condenser(condenser, CondensationConfig(epochs=2, ratio=0.3)).condense(
            small_graph, new_rng(3)
        )
        # A gc-sntk condensed graph trains its KRR predictor, whatever the architecture.
        architecture = kind if kind in ("gcn", "sgc", "mlp", "appnp", "gat") else "gcn"
        model = train_model_on_condensed(
            condensed,
            small_graph,
            EvaluationConfig(architecture=architecture, epochs=10, hidden=8),
            new_rng(4),
        )
        if kind.startswith("smoothed"):
            model = SmoothedModel(model, RandSmoothConfig(num_samples=3))
        on_overlay = predict_on_graph(model, overlay)
        on_reference = predict_on_graph(model, reference)
        assert on_overlay.shape == (small_graph.num_nodes + 3 * test.size,)
        np.testing.assert_array_equal(on_overlay, on_reference)
        if test.size:
            assert attack_success_rate(
                on_overlay, small_graph.labels, test, self.TARGET
            ) == attack_success_rate(on_reference, small_graph.labels, test, self.TARGET)


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.995) == "99.50"
        assert format_percent(float("nan")) == "--"

    def test_format_table_alignment(self):
        rows = [
            {"name": "cora", "value": 0.5},
            {"name": "citeseer-long", "value": 12.25},
        ]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4
        assert "cora" in lines[2]
        assert all(len(line) == len(lines[0]) for line in lines[2:])

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_missing_column(self):
        table = format_table([{"a": 1.0}, {"a": 2.0, "b": 3.0}], columns=["a", "b"])
        assert "--" not in table.splitlines()[2] or True  # missing values render as empty
