"""Train-on-condensed evaluation pipeline.

This is the customer's side of the threat model: they receive a condensed
graph from the (possibly malicious) service provider, train their own GNN on
it, and deploy it on the original graph.  The pipeline therefore

1. trains the requested architecture on the condensed graph
   (:func:`train_model_on_condensed`),
2. measures CTA on the clean test graph (:func:`evaluate_clean`), and
3. measures ASR by attaching attacker-generated triggers to the test nodes
   (:func:`triggered_test_graph`, :func:`project_triggers`,
   :func:`evaluate_backdoor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from repro.attack.trigger import TriggerGenerator, streamed_triggers
from repro.condensation.base import CondensedGraph
from repro.condensation.gc_sntk import SNTKPredictor
from repro.evaluation.metrics import attack_success_rate, clean_test_accuracy
from repro.exceptions import ConfigurationError
from repro.graph.cache import get_default_cache
from repro.graph.data import GraphData
from repro.graph.view import GraphView, poison_graph_view
from repro.models import Trainer, TrainingConfig, make_model
from repro.models.base import NodeClassifier
from repro.utils.logging import get_logger
from repro.utils.validation import at_least, check_fields, checked, real

logger = get_logger("evaluation.pipeline")

Predictor = Union[NodeClassifier, SNTKPredictor]


@dataclass
class EvaluationConfig:
    """How the downstream customer trains and evaluates their model."""

    #: A :data:`~repro.registry.MODELS` name, which the registry checks.
    architecture: str = "gcn"
    hidden: int = checked(64, at_least(1))
    num_layers: int = checked(2, at_least(1))
    dropout: float = checked(0.5, real(at_least=0, below=1))
    epochs: int = checked(200, at_least(1))
    lr: float = checked(0.01, real(above=0))
    weight_decay: float = checked(5e-4, real(at_least=0))

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)


def train_model_on_condensed(
    condensed: CondensedGraph,
    original: GraphData,
    config: EvaluationConfig,
    rng: np.random.Generator,
) -> Predictor:
    """Train the downstream model on a condensed graph.

    GC-SNTK condensed graphs are evaluated with the matching KRR predictor
    (the paper notes GC-SNTK only applies to NTK-based models), built with
    the ridge and hop count GC-SNTK records in the condensed metadata; every
    other condensed graph trains the requested GNN architecture.  The method
    check ignores attack suffixes ("gc-sntk+naive-poison"), so attacked and
    clean variants of the same condenser always train the same model family.
    """
    if condensed.method.split("+", 1)[0] == "gc-sntk":
        metadata = condensed.metadata
        return SNTKPredictor(
            condensed, ridge=metadata["ridge"], num_hops=int(metadata["num_hops"])
        )

    model = make_model(
        config.architecture,
        in_features=condensed.features.shape[1],
        num_classes=max(original.num_classes, condensed.num_classes),
        rng=rng,
        hidden=config.hidden,
        num_layers=config.num_layers,
        dropout=config.dropout,
    )
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=config.epochs,
            lr=config.lr,
            weight_decay=config.weight_decay,
            patience=config.epochs,
        ),
    )
    trainer.fit(
        condensed.adjacency,
        condensed.features,
        condensed.labels,
        train_index=np.arange(condensed.num_nodes),
    )
    return model


def predict_on_graph(model: Predictor, graph: GraphData) -> np.ndarray:
    """Predict labels for every node of ``graph``, sharing the propagation cache.

    SNTK predictors consume SGC-propagated features directly, so their query
    propagation is served from the shared
    :class:`~repro.graph.cache.PropagationCache` — when the condenser already
    propagated the same graph version with the same hop count, evaluation
    pays nothing.  GNN predictors normalise internally, which hits the same
    cache's raw-adjacency memo.
    """
    if isinstance(model, SNTKPredictor):
        propagated = get_default_cache().propagated(graph, model.num_hops)
        return model.predict_propagated(propagated)
    return model.predict(graph.adjacency, graph.features)


def evaluate_clean(model: Predictor, original: GraphData) -> float:
    """CTA of a trained model on the original graph's test nodes."""
    predictions = predict_on_graph(model, original)
    return clean_test_accuracy(predictions, original.labels, original.split.test)


def triggered_test_graph(
    original: GraphData,
    generator: TriggerGenerator,
    target_class: int,
    test_index: np.ndarray | None = None,
) -> GraphView:
    """``original`` with a generated trigger attached to each test node.

    Built with :func:`~repro.graph.view.poison_graph_view`, the overlay the
    attacks poison through: the feature matrix stays the original's rows
    plus the trigger rows, which are generated a chunk at a time
    (:func:`~repro.attack.trigger.streamed_triggers`).  After
    :func:`project_triggers`, GCN, MLP, APPNP and GAT read the trigger
    rows only through their first-layer products; SGC, GraphSAGE and
    ChebyNet stack the features once, since they propagate the raw
    features first.  The attachment is a delta against the original — only
    the host test nodes gain an edge — so an SNTK evaluation reuses the
    original's cached propagation and recomputes just the trigger
    neighbourhoods.  The appended trigger rows are labelled
    ``target_class`` (labels are never read at prediction time).
    """
    test_index = (
        np.asarray(test_index, dtype=np.int64)
        if test_index is not None
        else original.split.test
    )
    rows, structures = streamed_triggers(generator, original, test_index)
    return poison_graph_view(
        original,
        test_index,
        rows,
        structures,
        trigger_label=target_class,
        name=f"{original.name}-triggered",
    )


def project_triggers(triggered: GraphView, models: Iterable[Predictor]) -> None:
    """Multiply the trigger rows by every first-layer weight of ``models`` at once.

    Each model names the weights its first ``Linear`` applies to the raw
    features (``feature_weights``; none for a model that propagates first
    or has no such method).  One pass over the chunked trigger rows
    multiplies each chunk by every distinct weight
    (:meth:`~repro.graph.view.StackedFeatures.prepare`), so the rows are
    generated once for all the models and never held whole.
    """
    triggered.features.prepare(
        [
            weight
            for model in models
            for weight in getattr(model, "feature_weights", list)()
        ]
    )


def evaluate_backdoor(
    model: Predictor,
    original: GraphData,
    generator: TriggerGenerator,
    target_class: int,
    test_index: np.ndarray | None = None,
) -> float:
    """ASR of a trained model when triggers are attached to the test nodes.

    Builds the triggered graph for this one model; to score several models
    against the same triggers, build it once with
    :func:`triggered_test_graph`, hand all the models to
    :func:`project_triggers` and predict on it.
    """
    test_index = (
        np.asarray(test_index, dtype=np.int64)
        if test_index is not None
        else original.split.test
    )
    triggered = triggered_test_graph(original, generator, target_class, test_index)
    project_triggers(triggered, [model])
    predictions = predict_on_graph(model, triggered)
    return attack_success_rate(
        predictions, original.labels, test_index, target_class
    )
