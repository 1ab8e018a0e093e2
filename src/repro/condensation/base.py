"""Condenser interface, configuration and the :class:`CondensedGraph` product."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.exceptions import CondensationError, ConfigurationError
from repro.graph.data import GraphData
from repro.registry import CONDENSERS


@dataclass
class CondensedGraph:
    """A small synthetic graph produced by a condenser.

    Attributes
    ----------
    features:
        ``(N', d)`` dense synthetic node features.
    labels:
        ``(N',)`` integer synthetic node labels.
    adjacency:
        ``(N', N')`` dense synthetic adjacency.  Structure-free condensers
        (DC-Graph, GCond-X) return the identity matrix.
    method / source / ratio:
        Provenance metadata: condenser name, source dataset name and the
        condensation ratio ``N' / N_train``.
    """

    features: np.ndarray
    labels: np.ndarray
    adjacency: np.ndarray
    method: str = "unknown"
    source: str = "unknown"
    ratio: float = 0.0
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.adjacency = np.asarray(self.adjacency, dtype=np.float64)
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise CondensationError(
                f"labels shape {self.labels.shape} does not match {n} synthetic nodes"
            )
        if self.adjacency.shape != (n, n):
            raise CondensationError(
                f"adjacency shape {self.adjacency.shape} does not match {n} synthetic nodes"
            )

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def copy(self) -> "CondensedGraph":
        return CondensedGraph(
            features=self.features.copy(),
            labels=self.labels.copy(),
            adjacency=self.adjacency.copy(),
            method=self.method,
            source=self.source,
            ratio=self.ratio,
            metadata=dict(self.metadata),
        )


@dataclass
class CondensationConfig:
    """Hyperparameters shared by the gradient-matching condensers."""

    epochs: int = 60
    ratio: float = 0.05
    num_hops: int = 2
    lr_features: float = 0.05
    lr_structure: float = 0.01
    surrogate_lr: float = 0.05
    surrogate_steps: int = 10
    #: Carry the surrogate weight and its Adam moments across ``epoch_step``
    #: calls instead of re-initialising per epoch.  After the first epoch only
    #: ``surrogate_refresh_steps`` refresh steps run — this is the
    #: cross-epoch surrogate batching the attack loop uses; the default False
    #: keeps the paper-faithful fresh-surrogate-per-epoch reference path.
    surrogate_warm_start: bool = False
    #: Steps per warm epoch (``None`` = ``surrogate_steps``).  Ignored unless
    #: ``surrogate_warm_start`` is set.
    surrogate_refresh_steps: int | None = None
    distance: str = "cosine"
    structure_hidden: int = 64
    feature_init_noise: float = 0.05
    min_nodes_per_class: int = 1

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if not 0.0 < self.ratio <= 1.0:
            raise ConfigurationError(f"ratio must lie in (0, 1], got {self.ratio}")
        if self.num_hops < 1:
            raise ConfigurationError(f"num_hops must be >= 1, got {self.num_hops}")
        if self.distance not in ("cosine", "euclidean"):
            raise ConfigurationError(
                f"distance must be 'cosine' or 'euclidean', got {self.distance!r}"
            )
        for name in ("lr_features", "lr_structure", "surrogate_lr"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.surrogate_steps < 1:
            raise ConfigurationError("surrogate_steps must be >= 1")
        if self.surrogate_refresh_steps is not None and self.surrogate_refresh_steps < 1:
            raise ConfigurationError("surrogate_refresh_steps must be >= 1")


class Condenser:
    """Abstract condenser: maps a :class:`GraphData` to a :class:`CondensedGraph`."""

    name = "condenser"

    def __init__(self, config: CondensationConfig | None = None) -> None:
        self.config = config or CondensationConfig()

    def condense(self, graph: GraphData, rng: np.random.Generator) -> CondensedGraph:
        raise NotImplementedError

    @staticmethod
    def synthetic_budget(graph: GraphData, ratio: float, min_per_class: int = 1) -> np.ndarray:
        """Number of synthetic nodes per class for a given condensation ratio.

        The budget is ``ratio * |train|`` nodes distributed proportionally to
        the class frequencies among training nodes, with at least
        ``min_per_class`` nodes for every class present in the training set.
        """
        train_labels = graph.labels[graph.split.train]
        num_classes = graph.num_classes
        counts = np.bincount(train_labels, minlength=num_classes).astype(np.float64)
        total = max(int(round(ratio * graph.split.train.size)), num_classes)
        budget = np.zeros(num_classes, dtype=np.int64)
        present = counts > 0
        proportions = counts[present] / counts[present].sum()
        raw = np.maximum(min_per_class, np.round(proportions * total).astype(np.int64))
        budget[present] = raw
        return budget


def available_condensers() -> list[str]:
    """Canonical names accepted by :func:`make_condenser`."""
    return CONDENSERS.available()


def make_condenser(name: str, config: CondensationConfig | None = None) -> Condenser:
    """Instantiate a condenser by name (``dc-graph``, ``gcond``, ``gcond-x``, ``gc-sntk``)."""
    return CONDENSERS.build(name, config)
