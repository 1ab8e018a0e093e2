"""GC-SNTK: graph condensation as kernel ridge regression.

Instead of gradient matching, GC-SNTK optimises the condensed features so
that a KRR model with support set ``(X', Y')`` predicts the training labels
of the original graph.  The differentiable loss is

``L(X') = || K_ts(X') (K_ss(X') + λI)^{-1} Y'  -  Y_train ||^2``

where ``K_ts`` is the kernel between propagated real training nodes and the
synthetic support, computed with the linear structure kernel so the whole
expression stays differentiable through the autograd engine (the substitution
relative to the paper's arc-cosine SNTK is documented in ``DESIGN.md``).
Evaluation of GC-SNTK condensed graphs uses the same kernel via
:class:`SNTKPredictor` — a KRR model, matching the paper's note that GC-SNTK
only applies to NTK-based downstream models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import Adam, Parameter, Tensor
from repro.autograd import functional as F
from repro.condensation.base import (
    CondensationConfig,
    CondensedGraph,
    Condenser,
)
from repro.registry import CONDENSERS
from repro.condensation.sntk import KernelRidgeRegression
from repro.exceptions import CondensationError
from repro.graph.blocked import BlockedArray
from repro.graph.cache import PropagationCache, get_default_cache
from repro.graph.data import GraphData
from repro.graph.propagation import sgc_precompute
from repro.utils.logging import get_logger
from repro.utils.numeric import streamed_std

logger = get_logger("condensation.gc_sntk")


@dataclass
class _SNTKState:
    features: Parameter
    labels: np.ndarray
    targets: np.ndarray
    optimizer: Adam


class GCSNTK(Condenser):
    """Kernel-ridge-regression graph condensation with a structure-based kernel."""

    name = "gc-sntk"

    def __init__(
        self,
        config: CondensationConfig | None = None,
        ridge: float = 1e-2,
        cache: PropagationCache | None = None,
    ) -> None:
        super().__init__(config)
        if ridge <= 0:
            raise CondensationError(f"ridge must be positive, got {ridge}")
        self.ridge = ridge
        self._graph: GraphData | None = None
        self._state: _SNTKState | None = None
        self._cache = cache if cache is not None else get_default_cache()

    # -------------------------------------------------------------- #
    # Stateful API (mirrors GradientMatchingCondenser for BGC)
    # -------------------------------------------------------------- #
    def initialize(self, graph: GraphData, rng: np.random.Generator) -> None:
        """Create the synthetic support set for ``graph``."""
        self._graph = graph
        budget = self._budget(graph)
        features, labels = self._init_support(graph, budget, rng)
        targets = np.zeros((labels.shape[0], graph.num_classes))
        targets[np.arange(labels.shape[0]), labels] = 1.0
        feature_param = Parameter(features, name="sntk_support")
        # Scale the learning rate by the feature magnitude (see gradient_matching).
        feature_scale = max(float(np.abs(features).mean()), 1e-8)
        self._state = _SNTKState(
            features=feature_param,
            labels=labels,
            targets=targets,
            optimizer=Adam([feature_param], lr=self.config.lr_features * feature_scale),
        )

    def epoch_step(self, real_graph: GraphData | None = None) -> float:
        """One KRR-loss gradient step on the synthetic support features."""
        state = self._require_state()
        graph = real_graph if real_graph is not None else self._graph
        if graph is None:
            raise CondensationError("epoch_step called before initialize()")
        propagated = self._real_propagated(graph)
        train_index = graph.split.train
        query = propagated[train_index]
        query_targets = np.zeros((train_index.size, graph.num_classes))
        query_targets[np.arange(train_index.size), graph.labels[train_index]] = 1.0

        state.optimizer.zero_grad()
        support = state.features
        kernel_ss = support.matmul(support.T) + Tensor(
            self.ridge * np.eye(support.shape[0])
        )
        alpha = kernel_ss.inverse().matmul(Tensor(state.targets))
        kernel_ts = Tensor(query).matmul(support.T)
        predictions = kernel_ts.matmul(alpha)
        loss = F.mse_loss(predictions, query_targets)
        loss.backward()
        state.optimizer.step()
        return float(loss.item())

    def synthetic(self) -> CondensedGraph:
        """Export the current support set as a (structure-free) condensed graph."""
        state = self._require_state()
        graph = self._graph
        n = state.features.data.shape[0]
        return CondensedGraph(
            features=state.features.data.copy(),
            labels=state.labels.copy(),
            adjacency=np.eye(n),
            method=self.name,
            source=graph.name if graph is not None else "unknown",
            ratio=self.config.ratio,
            metadata={"ridge": self.ridge, "num_hops": float(self.config.num_hops)},
        )

    def condense(self, graph: GraphData, rng: np.random.Generator) -> CondensedGraph:
        """Run the full (clean) GC-SNTK condensation loop."""
        working = graph.training_view() if graph.inductive else graph
        self.initialize(working, rng)
        for epoch in range(self.config.epochs):
            loss = self.epoch_step()
            if epoch % max(1, self.config.epochs // 5) == 0:
                logger.debug("gc-sntk epoch %d krr loss %.5f", epoch, loss)
        return self.synthetic()

    # -------------------------------------------------------------- #
    # Internals
    # -------------------------------------------------------------- #
    def _budget(self, graph: GraphData) -> np.ndarray:
        reference = graph.split.train.size if graph.inductive else graph.num_nodes
        total = max(int(round(self.config.ratio * reference)), graph.num_classes)
        train_labels = graph.labels[graph.split.train]
        counts = np.bincount(train_labels, minlength=graph.num_classes).astype(np.float64)
        budget = np.zeros(graph.num_classes, dtype=np.int64)
        present = counts > 0
        proportions = counts[present] / counts[present].sum()
        budget[present] = np.maximum(1, np.round(proportions * total).astype(np.int64))
        return budget

    def _init_support(
        self, graph: GraphData, budget: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Initialisation reads the whole product (its std scales the noise;
        # a blocked base streams its own), so it takes the materialised one.
        propagated = self._cache.propagated(graph, self.config.num_hops)
        # Noise relative to the propagated-feature scale (see gradient_matching).
        spread = (
            propagated.std()
            if isinstance(propagated, BlockedArray)
            else streamed_std(propagated)
        )
        noise_scale = self.config.feature_init_noise * float(spread)
        features = []
        labels = []
        train_index = graph.split.train
        train_labels = graph.labels[train_index]
        for cls in range(graph.num_classes):
            count = int(budget[cls])
            candidates = train_index[train_labels == cls]
            if count == 0 or candidates.size == 0:
                continue
            chosen = rng.choice(candidates, size=count, replace=candidates.size < count)
            sampled = propagated[chosen] + rng.normal(
                scale=noise_scale, size=(count, graph.num_features)
            )
            features.append(sampled)
            labels.extend([cls] * count)
        if not features:
            raise CondensationError("GC-SNTK initialisation produced no support points")
        return np.vstack(features), np.asarray(labels, dtype=np.int64)

    def _real_propagated(self, graph: GraphData):
        # Version-keyed shared cache (see repro.graph.cache): replaces the
        # fragile id()-keyed memo that could serve stale features after
        # garbage collection recycled an address.  GraphViews take the
        # difference-form path; epoch_step only gathers the training rows.
        return self._cache.propagated_view(graph, self.config.num_hops)

    def _require_state(self) -> _SNTKState:
        if self._state is None:
            raise CondensationError("GC-SNTK used before initialize()")
        return self._state


class SNTKPredictor:
    """KRR prediction model over a GC-SNTK condensed graph.

    Implements the same ``predict(adjacency, features)`` call signature as
    :class:`~repro.models.base.NodeClassifier` so the evaluation pipeline can
    use it interchangeably with trained GNNs.
    """

    def __init__(self, condensed: CondensedGraph, ridge: float = 1e-2, num_hops: int = 2) -> None:
        self.num_hops = num_hops
        self.condensed = condensed
        self._krr = KernelRidgeRegression(ridge=ridge, kernel="linear").fit(
            condensed.features, condensed.labels
        )

    def predict(self, adjacency, features: np.ndarray) -> np.ndarray:
        """Propagate query features through ``adjacency`` and classify with KRR."""
        propagated = sgc_precompute(adjacency, np.asarray(features, dtype=np.float64), self.num_hops)
        return self.predict_propagated(propagated)

    def predict_propagated(self, propagated: np.ndarray) -> np.ndarray:
        """Classify already-propagated query features (lets callers reuse a
        :class:`~repro.graph.cache.PropagationCache` product)."""
        return self._krr.predict(propagated)


CONDENSERS.register(
    "gc-sntk", factory=GCSNTK, config_cls=CondensationConfig, aliases=("gcsntk",)
)
