"""Condenser interface, configuration and the :class:`CondensedGraph` product."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.exceptions import CondensationError, ConfigurationError
from repro.graph.data import GraphData
from repro.registry import CONDENSERS
from repro.utils.validation import at_least, check_fields, checked, choice, optional, real


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

    epochs: int = checked(60, at_least(1))
    ratio: float = checked(0.05, real(above=0, at_most=1))
    num_hops: int = checked(2, at_least(1))
    lr_features: float = checked(0.05, real(above=0))
    lr_structure: float = checked(0.01, real(above=0))
    surrogate_lr: float = checked(0.05, real(above=0))
    surrogate_steps: int = checked(10, at_least(1))
    #: Carry the surrogate weight and its Adam moments across ``epoch_step``
    #: calls instead of re-initialising per epoch.  After the first epoch only
    #: ``surrogate_refresh_steps`` refresh steps run — this is the
    #: cross-epoch surrogate batching the attack loop uses; the default False
    #: keeps the paper-faithful fresh-surrogate-per-epoch reference path.
    surrogate_warm_start: bool = False
    #: Steps per warm epoch (``None`` = ``surrogate_steps``).  Ignored unless
    #: ``surrogate_warm_start`` is set.
    surrogate_refresh_steps: int | None = checked(None, optional(at_least(1)))
    distance: str = checked("cosine", choice("cosine", "euclidean"))
    structure_hidden: int = checked(64, at_least(1))
    feature_init_noise: float = checked(0.05, real(at_least=0))
    min_nodes_per_class: int = checked(1, at_least(0))

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)


class Condenser:
    """Abstract condenser: maps a :class:`GraphData` to a :class:`CondensedGraph`."""

    name = "condenser"

    def __init__(self, config: CondensationConfig | None = None) -> None:
        self.config = config or CondensationConfig()

    def condense(self, graph: GraphData, rng: np.random.Generator) -> CondensedGraph:
        raise NotImplementedError


def available_condensers() -> list[str]:
    """Canonical names accepted by :func:`make_condenser`."""
    return CONDENSERS.available()


def make_condenser(name: str, config: CondensationConfig | None = None) -> Condenser:
    """Instantiate a condenser by name (``dc-graph``, ``gcond``, ``gcond-x``, ``gc-sntk``)."""
    return CONDENSERS.build(name, config)
