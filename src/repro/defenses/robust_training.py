"""Robust-training defenses: DropEdge and DropNode.

Unlike the dataset-level (prune, detection) and model-level (randsmooth)
defenses, these change *how the customer trains*: every forward pass during
training sees a randomly perturbed view of the condensed graph — DropEdge
(Rong et al., 2020) removes each undirected edge with probability
``drop_rate``; DropNode (GRAND, Feng et al., 2020) zeroes whole node feature
rows and rescales the survivors by ``1 / (1 - drop_rate)`` so activations
stay unbiased.  Inference always runs on the unperturbed graph.

Both defenses' ``defend`` rebuilds the evaluation model, wraps it in a
training-time perturbation module and fits it on the (possibly attacked)
condensed graph.  GC-SNTK condensed graphs have no training loop to perturb,
so they fall back to the undefended predictor with a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.condensation.base import CondensedGraph
from repro.defenses.base import Defense
from repro.evaluation.pipeline import (
    EvaluationConfig,
    Predictor,
    train_model_on_condensed,
)
from repro.exceptions import DefenseError
from repro.graph.data import GraphData
from repro.graph.subgraph import drop_undirected_edges
from repro.models.base import Adjacency, NodeClassifier, make_model
from repro.models.trainer import Trainer, TrainingConfig
from repro.autograd import Tensor
from repro.registry import DEFENSES
from repro.utils.logging import get_logger

logger = get_logger("defenses.robust_training")


@dataclass
class DropEdgeConfig:
    """Configuration of the DropEdge robust-training defense."""

    drop_rate: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise DefenseError(f"drop_rate must lie in [0, 1), got {self.drop_rate}")


@dataclass
class DropNodeConfig:
    """Configuration of the DropNode robust-training defense."""

    drop_rate: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise DefenseError(f"drop_rate must lie in [0, 1), got {self.drop_rate}")


def drop_edges(
    adjacency: Adjacency, drop_rate: float, rng: np.random.Generator
) -> Adjacency:
    """Remove each undirected off-diagonal edge with probability ``drop_rate``.

    Self-loops and the weights of surviving edges are preserved; symmetric
    entry pairs are dropped together (one Bernoulli draw per undirected
    edge).
    """
    if drop_rate == 0.0:
        return adjacency
    if sp.issparse(adjacency):
        dropped = rng.random(sp.triu(adjacency, k=1).nnz) < drop_rate
        return drop_undirected_edges(adjacency, dropped)
    dense = np.asarray(adjacency, dtype=np.float64).copy()
    upper = np.triu(np.ones_like(dense, dtype=bool), k=1)
    drop = (rng.random(dense.shape) < drop_rate) & upper & (dense != 0)
    dense[drop] = 0.0
    dense[drop.T] = 0.0
    return dense


class _RobustTrainingModel(NodeClassifier):
    """Wraps a node classifier with a per-forward training-time perturbation.

    In training mode every ``forward`` sees a freshly perturbed
    ``(adjacency, features)`` pair; in eval mode (and therefore in
    ``predict``) the wrapper is transparent.
    """

    def __init__(self, base: NodeClassifier, rng: np.random.Generator) -> None:
        super().__init__(base.in_features, base.num_classes)
        self.register_module("base", base)
        self._rng = rng

    def _perturb(self, adjacency: Adjacency, features):
        raise NotImplementedError

    def forward(self, adjacency: Adjacency, features: Union[np.ndarray, Tensor]) -> Tensor:
        if self.training:
            adjacency, features = self._perturb(adjacency, features)
        return self.base.forward(adjacency, features)


class _DropEdgeModel(_RobustTrainingModel):
    def __init__(self, base: NodeClassifier, config: DropEdgeConfig, rng) -> None:
        super().__init__(base, rng)
        self.config = config

    def _perturb(self, adjacency, features):
        return drop_edges(adjacency, self.config.drop_rate, self._rng), features


class _DropNodeModel(_RobustTrainingModel):
    def __init__(self, base: NodeClassifier, config: DropNodeConfig, rng) -> None:
        super().__init__(base, rng)
        self.config = config

    def _perturb(self, adjacency, features):
        rate = self.config.drop_rate
        if rate == 0.0:
            return adjacency, features
        num_nodes = adjacency.shape[0]
        scale = (self._rng.random(num_nodes) >= rate) / (1.0 - rate)
        if isinstance(features, Tensor):
            return adjacency, features * Tensor(scale[:, None])
        return adjacency, np.asarray(features, dtype=np.float64) * scale[:, None]


class _RobustTrainingDefense(Defense):
    """Shared ``defend`` for the robust-training family."""

    #: Overridden by subclasses with the matching wrapper class.
    _model_cls: type

    def defend(
        self,
        condensed: CondensedGraph,
        model: Predictor,
        graph: GraphData,
        evaluation: EvaluationConfig,
        rng: np.random.Generator,
    ) -> Predictor:
        """Train the evaluation model under training-time perturbation."""
        if condensed.method.split("+", 1)[0] == "gc-sntk":
            logger.warning(
                "%s has no training loop on GC-SNTK condensed graphs; "
                "returning the undefended KRR predictor",
                type(self).__name__,
            )
            return train_model_on_condensed(condensed, graph, evaluation, rng)
        base = make_model(
            evaluation.architecture,
            in_features=condensed.features.shape[1],
            num_classes=max(graph.num_classes, condensed.num_classes),
            rng=rng,
            hidden=evaluation.hidden,
            num_layers=evaluation.num_layers,
            dropout=evaluation.dropout,
        )
        wrapped = self._model_cls(base, self.config, rng)
        trainer = Trainer(
            wrapped,
            TrainingConfig(
                epochs=evaluation.epochs,
                lr=evaluation.lr,
                weight_decay=evaluation.weight_decay,
                patience=evaluation.epochs,
            ),
        )
        trainer.fit(
            condensed.adjacency,
            condensed.features,
            condensed.labels,
            train_index=np.arange(condensed.num_nodes),
        )
        return wrapped


@DEFENSES.register("dropedge", config_cls=DropEdgeConfig)
class DropEdgeDefense(_RobustTrainingDefense):
    """DropEdge: random edge removal on every training forward pass."""

    _model_cls = _DropEdgeModel

    def __init__(self, config: DropEdgeConfig | None = None) -> None:
        self.config = config or DropEdgeConfig()


@DEFENSES.register("dropnode", config_cls=DropNodeConfig)
class DropNodeDefense(_RobustTrainingDefense):
    """DropNode: random node-feature masking on every training forward pass."""

    _model_cls = _DropNodeModel

    def __init__(self, config: DropNodeConfig | None = None) -> None:
        self.config = config or DropNodeConfig()
