"""Unit tests for the Prune, Randsmooth and robust-training defenses."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.attack.trigger import TriggerConfig, TriggerGenerator
from repro.condensation.base import CondensedGraph
from repro.defenses import (
    Defense,
    DropEdgeConfig,
    DropEdgeDefense,
    DropNodeConfig,
    DropNodeDefense,
    PruneConfig,
    PruneDefense,
    RandSmoothConfig,
    RandSmoothDefense,
    SmoothedModel,
    drop_edges,
)
from repro.defenses.randsmooth import _majority_vote
from repro.evaluation import EvaluationConfig
from repro.evaluation.pipeline import (
    predict_on_graph,
    train_model_on_condensed,
    triggered_test_graph,
)
from repro.exceptions import DefenseError
from repro.graph.data import GraphData
from repro.graph.splits import SplitIndices
from repro.models import MLP, GCN
from repro.registry import DEFENSES
from repro.utils.seed import new_rng

from helpers import build_small_graph
from reference.edge_drop import drop_edges_inline, subsample_inline
from reference.randsmooth import majority_vote_loop


@pytest.fixture
def condensed_with_structure(rng):
    features = rng.normal(size=(8, 5))
    labels = rng.integers(0, 2, size=8)
    adjacency = np.zeros((8, 8))
    for i in range(7):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return CondensedGraph(features=features, labels=labels, adjacency=adjacency, method="gcond")


def _structured_condensed(graph: GraphData, method: str) -> CondensedGraph:
    """Four nodes of each class of ``graph``, joined in a path with self-loops."""
    index = np.concatenate(
        [np.flatnonzero(graph.labels == cls)[:4] for cls in range(graph.num_classes)]
    )
    adjacency = np.eye(index.size)
    for i in range(index.size - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return CondensedGraph(
        features=np.asarray(graph.features[index], dtype=np.float64),
        labels=graph.labels[index].copy(),
        adjacency=adjacency,
        method=method,
    )


@pytest.fixture
def weighted_graph_with_self_loops(rng):
    """A weighted sparse graph whose adjacency stores diagonal entries."""
    num_nodes = 12
    dense = np.zeros((num_nodes, num_nodes))
    for i in range(num_nodes - 1):
        weight = 0.5 + rng.random()
        dense[i, i + 1] = dense[i + 1, i] = weight
    dense[0, 5] = dense[5, 0] = 2.5
    np.fill_diagonal(dense, 1.0)
    index = np.arange(num_nodes)
    return GraphData(
        adjacency=sp.csr_matrix(dense),
        features=rng.normal(size=(num_nodes, 4)),
        labels=rng.integers(0, 2, size=num_nodes),
        split=SplitIndices(train=index[:6], val=index[6:9], test=index[9:]),
    )


class TestPruneConfig:
    def test_default_valid(self):
        assert PruneConfig().prune_fraction == 0.2

    def test_invalid_fraction_rejected(self):
        with pytest.raises(DefenseError):
            PruneConfig(prune_fraction=1.0)
        with pytest.raises(DefenseError):
            PruneConfig(prune_fraction=-0.1)


class TestPruneDefense:
    def test_removes_edges_from_condensed(self, condensed_with_structure):
        defense = PruneDefense(PruneConfig(prune_fraction=0.5))
        pruned = defense.apply_to_condensed(condensed_with_structure)
        assert (pruned.adjacency > 0).sum() < (condensed_with_structure.adjacency > 0).sum()
        assert pruned.metadata["pruned_edges"] >= 1

    def test_keeps_symmetry(self, condensed_with_structure):
        pruned = PruneDefense(PruneConfig(prune_fraction=0.4)).apply_to_condensed(
            condensed_with_structure
        )
        np.testing.assert_allclose(pruned.adjacency, pruned.adjacency.T)

    def test_does_not_mutate_input(self, condensed_with_structure):
        original = condensed_with_structure.adjacency.copy()
        PruneDefense(PruneConfig(prune_fraction=0.5)).apply_to_condensed(condensed_with_structure)
        np.testing.assert_allclose(condensed_with_structure.adjacency, original)

    def test_edgeless_graph_is_noop(self, rng):
        condensed = CondensedGraph(
            features=rng.normal(size=(4, 3)), labels=np.zeros(4, dtype=int), adjacency=np.eye(4) * 0
        )
        pruned = PruneDefense().apply_to_condensed(condensed)
        assert (pruned.adjacency > 0).sum() == 0

    def test_prunes_dissimilar_edges_first(self):
        # Two similar nodes (0, 1) and one outlier (2) connected to both.
        features = np.array([[1.0, 0.0], [0.99, 0.01], [-1.0, 5.0]])
        adjacency = np.array(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        condensed = CondensedGraph(
            features=features, labels=np.array([0, 0, 1]), adjacency=adjacency
        )
        pruned = PruneDefense(PruneConfig(prune_fraction=0.5)).apply_to_condensed(condensed)
        # The similar pair's edge must survive; at least one outlier edge is gone.
        assert pruned.adjacency[0, 1] > 0
        assert pruned.adjacency[0, 2] == 0 or pruned.adjacency[1, 2] == 0

    def test_fraction_zero_condensed_is_bitwise_noop(self, condensed_with_structure):
        pruned = PruneDefense(PruneConfig(prune_fraction=0.0)).apply_to_condensed(
            condensed_with_structure
        )
        assert np.array_equal(pruned.adjacency, condensed_with_structure.adjacency)
        assert pruned.metadata["pruned_edges"] == 0.0

    def test_drops_exactly_floor_fraction_edges(self, condensed_with_structure):
        # The path graph has 7 undirected edges; floor(0.5 * 7) = 3.
        pruned = PruneDefense(PruneConfig(prune_fraction=0.5)).apply_to_condensed(
            condensed_with_structure
        )
        assert pruned.metadata["pruned_edges"] == 3.0
        assert (np.triu(pruned.adjacency, k=1) > 0).sum() == 4

    def test_condensed_prune_preserves_self_loops_and_weights(self, rng):
        adjacency = np.zeros((10, 10))
        for i in range(9):
            adjacency[i, i + 1] = adjacency[i + 1, i] = 0.5 + rng.random()
        adjacency[0, 5] = adjacency[5, 0] = 2.5
        np.fill_diagonal(adjacency, 1.0)
        condensed = CondensedGraph(
            features=rng.normal(size=(10, 4)),
            labels=rng.integers(0, 2, size=10),
            adjacency=adjacency,
            method="gcond",
        )
        result = PruneDefense(PruneConfig(prune_fraction=0.4)).apply_to_condensed(
            condensed
        ).adjacency
        # Every self-loop survives untouched.
        np.testing.assert_array_equal(np.diag(result), np.diag(adjacency))
        # Surviving off-diagonal entries keep their original weights.
        surviving = result != 0
        np.testing.assert_array_equal(result[surviving], adjacency[surviving])
        assert (result != 0).sum() == (adjacency != 0).sum() - 2 * 4

    def test_defend_retrains_on_the_pruned_graph(self, small_graph):
        condensed = _structured_condensed(small_graph, "gcond")
        evaluation = EvaluationConfig(epochs=3, hidden=8)
        defense = PruneDefense(PruneConfig(prune_fraction=0.5))
        defended = defense.defend(condensed, None, small_graph, evaluation, new_rng(9))
        retrained = train_model_on_condensed(
            defense.apply_to_condensed(condensed), small_graph, evaluation, new_rng(9)
        )
        for name, value in retrained.state_dict().items():
            np.testing.assert_array_equal(defended.state_dict()[name], value)

    def test_tied_similarities_still_drop_exact_count(self, rng):
        # Identical features give every edge the same similarity; a quantile
        # threshold would drop all or none, rank selection drops exactly two.
        features = np.ones((6, 3))
        adjacency = np.zeros((6, 6))
        for i in range(5):
            adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
        condensed = CondensedGraph(
            features=features, labels=np.zeros(6, dtype=int), adjacency=adjacency
        )
        pruned = PruneDefense(PruneConfig(prune_fraction=0.4)).apply_to_condensed(condensed)
        assert pruned.metadata["pruned_edges"] == 2.0
        assert (np.triu(pruned.adjacency, k=1) > 0).sum() == 3


class TestRandSmooth:
    def test_invalid_config(self):
        with pytest.raises(DefenseError):
            RandSmoothConfig(num_samples=0)
        with pytest.raises(DefenseError):
            RandSmoothConfig(keep_probability=0.0)

    def test_smoothed_predictions_are_valid_labels(self, small_graph, rng):
        model = GCN(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=8)
        smoothed = RandSmoothDefense(RandSmoothConfig(num_samples=3)).defend(
            None, model, small_graph, None, rng
        )
        predictions = smoothed.predict(small_graph.adjacency, small_graph.features)
        assert predictions.shape == (small_graph.num_nodes,)
        assert predictions.max() < small_graph.num_classes

    def test_keep_probability_one_matches_base_model_for_mlp(self, small_graph, rng):
        model = MLP(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=8)
        model.eval()
        smoothed = SmoothedModel(model, RandSmoothConfig(num_samples=3, keep_probability=1.0))
        base = model.predict(small_graph.adjacency, small_graph.features)
        np.testing.assert_array_equal(
            smoothed.predict(small_graph.adjacency, small_graph.features), base
        )

    def test_subsample_sparse_removes_edges(self, small_graph):
        smoothed = SmoothedModel(object(), RandSmoothConfig(keep_probability=0.5))
        sampled = smoothed._subsample(small_graph.adjacency, new_rng(0))
        assert sampled.nnz < small_graph.adjacency.nnz
        assert (sampled != sampled.T).nnz == 0

    def test_subsample_dense_removes_edges(self):
        adjacency = 1.0 - np.eye(10)
        smoothed = SmoothedModel(object(), RandSmoothConfig(keep_probability=0.3))
        sampled = smoothed._subsample(adjacency, new_rng(0))
        assert sampled.sum() < adjacency.sum()
        np.testing.assert_allclose(sampled, sampled.T)

    def test_deterministic_given_seed(self, small_graph, rng):
        model = GCN(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=8)
        config = RandSmoothConfig(num_samples=3, seed=5)
        a = SmoothedModel(model, config).predict(small_graph.adjacency, small_graph.features)
        b = SmoothedModel(model, config).predict(small_graph.adjacency, small_graph.features)
        np.testing.assert_array_equal(a, b)

    def test_subsample_preserves_self_loops_and_weights(
        self, weighted_graph_with_self_loops
    ):
        graph = weighted_graph_with_self_loops
        smoothed = SmoothedModel(object(), RandSmoothConfig(keep_probability=0.4))
        sampled = smoothed._subsample(graph.adjacency, new_rng(0)).toarray()
        original = graph.adjacency.toarray()
        np.testing.assert_array_equal(np.diag(sampled), np.diag(original))
        surviving = sampled != 0
        np.testing.assert_array_equal(sampled[surviving], original[surviving])
        assert (sampled != 0).sum() < (original != 0).sum()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_majority_vote_matches_loop_bitwise(self, seed):
        rng = new_rng(seed)
        stacked = rng.integers(0, 5, size=(7, 40))
        np.testing.assert_array_equal(_majority_vote(stacked), majority_vote_loop(stacked))

    def test_majority_vote_tie_breaks_to_smallest_label(self):
        # Node 0 ties 2-2 between classes 1 and 3; argmax picks the smaller.
        stacked = np.array([[1, 0], [3, 0], [1, 2], [3, 2]])
        np.testing.assert_array_equal(_majority_vote(stacked), np.array([1, 0]))
        np.testing.assert_array_equal(majority_vote_loop(stacked), np.array([1, 0]))


class TestDropEdge:
    def test_invalid_config(self):
        with pytest.raises(DefenseError):
            DropEdgeConfig(drop_rate=1.0)
        with pytest.raises(DefenseError):
            DropEdgeConfig(drop_rate=-0.1)

    def test_drop_rate_zero_is_noop(self, small_graph):
        dropped = drop_edges(small_graph.adjacency, 0.0, new_rng(0))
        assert (dropped != small_graph.adjacency).nnz == 0

    def test_sparse_drop_preserves_self_loops_and_weights(
        self, weighted_graph_with_self_loops
    ):
        graph = weighted_graph_with_self_loops
        dropped = drop_edges(graph.adjacency, 0.6, new_rng(0)).toarray()
        original = graph.adjacency.toarray()
        np.testing.assert_array_equal(np.diag(dropped), np.diag(original))
        surviving = dropped != 0
        np.testing.assert_array_equal(dropped[surviving], original[surviving])
        assert (dropped != 0).sum() < (original != 0).sum()

    def test_sparse_drop_keeps_symmetry(self, small_graph):
        dropped = drop_edges(small_graph.adjacency, 0.5, new_rng(3))
        assert (dropped != dropped.T).nnz == 0

    def test_dense_drop_keeps_symmetry(self, rng):
        adjacency = 1.0 - np.eye(10)
        dropped = drop_edges(adjacency, 0.5, new_rng(3))
        np.testing.assert_allclose(dropped, dropped.T)
        assert dropped.sum() < adjacency.sum()

    def test_defend_returns_working_model(self, small_graph):
        defense = DropEdgeDefense(DropEdgeConfig(drop_rate=0.3))
        evaluation = EvaluationConfig(epochs=3, hidden=8)
        condensed = CondensedGraph(
            features=small_graph.features[:10],
            labels=small_graph.labels[:10],
            adjacency=np.eye(10),
            method="gcond",
        )
        model = defense.defend(condensed, None, small_graph, evaluation, new_rng(0))
        predictions = model.predict(small_graph.adjacency, small_graph.features)
        assert predictions.shape == (small_graph.num_nodes,)
        assert predictions.max() < small_graph.num_classes

    def test_defend_deterministic_given_seed(self, small_graph):
        condensed = CondensedGraph(
            features=small_graph.features[:10],
            labels=small_graph.labels[:10],
            adjacency=np.eye(10),
            method="gcond",
        )
        evaluation = EvaluationConfig(epochs=3, hidden=8)

        def run():
            defense = DropEdgeDefense(DropEdgeConfig(drop_rate=0.3))
            model = defense.defend(condensed, None, small_graph, evaluation, new_rng(7))
            return model.predict(small_graph.adjacency, small_graph.features)

        np.testing.assert_array_equal(run(), run())


class TestDropNode:
    def test_invalid_config(self):
        with pytest.raises(DefenseError):
            DropNodeConfig(drop_rate=1.0)

    def test_eval_mode_is_transparent(self, small_graph, rng):
        from repro.defenses.robust_training import _DropNodeModel

        base = MLP(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=8)
        wrapped = _DropNodeModel(base, DropNodeConfig(drop_rate=0.5), new_rng(0))
        wrapped.eval()
        np.testing.assert_array_equal(
            wrapped.predict(small_graph.adjacency, small_graph.features),
            base.predict(small_graph.adjacency, small_graph.features),
        )

    def test_defend_returns_working_model(self, small_graph):
        defense = DropNodeDefense(DropNodeConfig(drop_rate=0.3))
        evaluation = EvaluationConfig(epochs=3, hidden=8)
        condensed = CondensedGraph(
            features=small_graph.features[:10],
            labels=small_graph.labels[:10],
            adjacency=np.eye(10),
            method="gcond",
        )
        model = defense.defend(condensed, None, small_graph, evaluation, new_rng(0))
        predictions = model.predict(small_graph.adjacency, small_graph.features)
        assert predictions.shape == (small_graph.num_nodes,)
        assert predictions.max() < small_graph.num_classes

    def test_gc_sntk_falls_back_to_undefended_predictor(self, small_graph):
        defense = DropNodeDefense()
        evaluation = EvaluationConfig(epochs=3, hidden=8)
        condensed = CondensedGraph(
            features=small_graph.features[:10],
            labels=small_graph.labels[:10],
            adjacency=np.eye(10),
            method="gc-sntk",
        )
        model = defense.defend(condensed, None, small_graph, evaluation, new_rng(0))
        predictions = model.predict(small_graph.adjacency, small_graph.features)
        assert predictions.shape == (small_graph.num_nodes,)


DEFENSE_NAMES = DEFENSES.available()
EVALUATION = EvaluationConfig(epochs=3, hidden=8)


@pytest.fixture(params=["gcond", "gc-sntk"])
def customer(request, small_graph):
    """What a customer holds: a condensed graph and the model trained on it."""
    condensed = _structured_condensed(small_graph, request.param)
    model = train_model_on_condensed(condensed, small_graph, EVALUATION, new_rng(1))
    return condensed, model


def _assert_valid_predictions(predictions: np.ndarray, graph: GraphData) -> None:
    assert predictions.shape == (graph.num_nodes,)
    assert predictions.min() >= 0 and predictions.max() < graph.num_classes


class TestDefenseProtocol:
    """Every registered defense runs through the one ``defend`` method."""

    @pytest.mark.parametrize("name", DEFENSE_NAMES)
    def test_every_registered_defense_is_a_defense(self, name):
        assert isinstance(DEFENSES.build(name), Defense)

    @pytest.mark.parametrize("name", DEFENSE_NAMES)
    def test_defend_returns_a_working_predictor(self, name, customer, small_graph):
        condensed, model = customer
        defended = DEFENSES.build(name).defend(
            condensed, model, small_graph, EVALUATION, new_rng(2)
        )
        _assert_valid_predictions(predict_on_graph(defended, small_graph), small_graph)

    @pytest.mark.parametrize("name", DEFENSE_NAMES)
    def test_defend_is_deterministic_given_the_rng(self, name, customer, small_graph):
        condensed, model = customer

        def predictions():
            defended = DEFENSES.build(name).defend(
                condensed, model, small_graph, EVALUATION, new_rng(2)
            )
            return predict_on_graph(defended, small_graph)

        np.testing.assert_array_equal(predictions(), predictions())

    @pytest.mark.parametrize("name", DEFENSE_NAMES)
    def test_defend_leaves_the_customers_graph_and_model_untouched(
        self, name, small_graph
    ):
        condensed = _structured_condensed(small_graph, "gcond")
        model = train_model_on_condensed(condensed, small_graph, EVALUATION, new_rng(1))
        before = condensed.copy()
        weights = {key: value.copy() for key, value in model.state_dict().items()}
        DEFENSES.build(name).defend(condensed, model, small_graph, EVALUATION, new_rng(2))
        np.testing.assert_array_equal(condensed.features, before.features)
        np.testing.assert_array_equal(condensed.adjacency, before.adjacency)
        np.testing.assert_array_equal(condensed.labels, before.labels)
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, weights[key])

    @pytest.mark.parametrize("name", DEFENSE_NAMES)
    def test_defended_predictor_scores_the_triggered_overlay(self, name, small_graph):
        """The ASR path: a defended predictor reads the overlay test graph."""
        condensed = _structured_condensed(small_graph, "gcond")
        model = train_model_on_condensed(condensed, small_graph, EVALUATION, new_rng(1))
        defended = DEFENSES.build(name).defend(
            condensed, model, small_graph, EVALUATION, new_rng(2)
        )
        generator = TriggerGenerator(
            small_graph.num_features, new_rng(3), TriggerConfig(trigger_size=2, hidden=8)
        )
        triggered = triggered_test_graph(small_graph, generator, target_class=1)
        predictions = predict_on_graph(defended, triggered)
        assert predictions.shape == (triggered.num_nodes,)
        assert predictions.min() >= 0 and predictions.max() < small_graph.num_classes

    def test_randsmooth_defend_wraps_the_trained_model(self, small_graph, rng):
        model = GCN(small_graph.num_features, small_graph.num_classes, rng=rng, hidden=8)
        config = RandSmoothConfig(num_samples=3)
        smoothed = RandSmoothDefense(config).defend(None, model, small_graph, None, rng)
        assert isinstance(smoothed, SmoothedModel)
        assert smoothed.base_model is model and smoothed.config is config

    def test_randsmooth_defend_draws_nothing_from_the_rng(self, small_graph):
        """Its smoothing draws come from ``config.seed``, not the stage's stream."""
        model = GCN(small_graph.num_features, small_graph.num_classes, rng=new_rng(0), hidden=8)
        rng = new_rng(4)
        state = rng.bit_generator.state
        smoothed = RandSmoothDefense(RandSmoothConfig(num_samples=3)).defend(
            None, model, small_graph, None, rng
        )
        smoothed.predict(small_graph.adjacency, small_graph.features)
        assert rng.bit_generator.state == state


def _edge_case(kind: str) -> sp.spmatrix:
    """A symmetric sparse adjacency in one of the shapes the defenses meet."""
    if kind == "path":
        dense = np.zeros((30, 30))
        for i in range(29):
            dense[i, i + 1] = dense[i + 1, i] = 1.0
        return sp.csr_matrix(dense)
    if kind == "weighted-self-loops":
        rng = new_rng(21)
        dense = np.zeros((12, 12))
        for i in range(11):
            dense[i, i + 1] = dense[i + 1, i] = 0.5 + rng.random()
        dense[0, 5] = dense[5, 0] = 2.5
        np.fill_diagonal(dense, 1.0)
        return sp.csr_matrix(dense)
    if kind in ("random", "csc", "coo", "explicit-zeros"):
        upper = sp.random(80, 80, density=0.05, random_state=22, format="csr")
        matrix = (sp.triu(upper, k=1) + sp.triu(upper, k=1).T + sp.eye(80)).tocsr()
        if kind == "csc":
            return matrix.tocsc()
        if kind == "coo":
            return matrix.tocoo()
        if kind == "explicit-zeros":
            matrix.data[::7] = 0.0  # stored, not eliminated
            assert (matrix.data == 0.0).any()
        return matrix
    if kind == "small-graph":
        return build_small_graph().adjacency
    raise AssertionError(kind)


EDGE_CASES = (
    "path", "weighted-self-loops", "random", "csc", "coo", "explicit-zeros", "small-graph"
)


def _assert_same_csr(result: sp.spmatrix, expected: sp.spmatrix) -> None:
    assert result.format == expected.format == "csr"
    assert result.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(result, part), getattr(expected, part))


class TestEdgeRemovalMatchesInlineReference:
    """DropEdge and RandSmooth remove the same edges, from the same draws, as
    the inline copies that ``drop_undirected_edges`` replaced."""

    @pytest.mark.parametrize("kind", EDGE_CASES)
    @pytest.mark.parametrize("drop_rate", [0.2, 0.7])
    def test_drop_edges(self, kind, drop_rate):
        adjacency = _edge_case(kind)
        rng, reference_rng = new_rng(31), new_rng(31)
        _assert_same_csr(
            drop_edges(adjacency, drop_rate, rng),
            drop_edges_inline(adjacency, drop_rate, reference_rng),
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("kind", EDGE_CASES)
    @pytest.mark.parametrize("keep_probability", [0.3, 0.8])
    def test_randsmooth_subsample(self, kind, keep_probability):
        adjacency = _edge_case(kind)
        smoothed = SmoothedModel(object(), RandSmoothConfig(keep_probability=keep_probability))
        rng, reference_rng = new_rng(32), new_rng(32)
        _assert_same_csr(
            smoothed._subsample(adjacency, rng),
            subsample_inline(adjacency, keep_probability, reference_rng),
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state
