"""Randsmooth: randomised-subsampling smoothing with majority voting.

A model-level defense (Zhang et al., SACMAT 2021): at inference time the
graph is randomly subsampled ``num_samples`` times (each edge kept with
probability ``keep_probability``), the base model predicts on every sample,
and the final label is the per-node majority vote.  The defense trades clean
accuracy for robustness — the trade-off quantified in Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.condensation.base import CondensedGraph
from repro.defenses.base import Defense
from repro.evaluation.pipeline import EvaluationConfig, Predictor
from repro.exceptions import DefenseError
from repro.graph.data import GraphData
from repro.graph.subgraph import drop_undirected_edges
from repro.registry import DEFENSES
from repro.utils.logging import get_logger

logger = get_logger("defenses.randsmooth")


@dataclass
class RandSmoothConfig:
    """Configuration of the randomised-smoothing defense."""

    num_samples: int = 5
    keep_probability: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise DefenseError("num_samples must be >= 1")
        if not 0.0 < self.keep_probability <= 1.0:
            raise DefenseError(
                f"keep_probability must lie in (0, 1], got {self.keep_probability}"
            )


def _majority_vote(stacked: np.ndarray) -> np.ndarray:
    """Vectorised per-node majority vote over a ``(num_samples, num_nodes)`` array.

    Ties are broken toward the smallest class label (``argmax`` on the
    per-node count vector returns the first maximum), matching the per-node
    ``bincount``/``argmax`` loop this replaces bit for bit.
    """
    votes = stacked.astype(np.int64, copy=False)
    num_nodes = votes.shape[1]
    num_classes = int(votes.max()) + 1
    flat = votes + np.arange(num_nodes, dtype=np.int64)[None, :] * num_classes
    counts = np.bincount(flat.ravel(), minlength=num_nodes * num_classes)
    return counts.reshape(num_nodes, num_classes).argmax(axis=1).astype(np.int64)


class SmoothedModel:
    """Wraps any predictor with randomised edge subsampling + majority vote.

    The wrapped object only needs a ``predict(adjacency, features)`` method,
    so trained GNNs and the GC-SNTK KRR predictor both work.
    """

    def __init__(self, base_model, config: RandSmoothConfig | None = None) -> None:
        self.base_model = base_model
        self.config = config or RandSmoothConfig()

    def predict(self, adjacency: Union[sp.spmatrix, np.ndarray], features: np.ndarray) -> np.ndarray:
        """Majority-vote prediction over randomly subsampled graphs."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        votes: list[np.ndarray] = []
        for _ in range(config.num_samples):
            sampled = self._subsample(adjacency, rng)
            votes.append(self.base_model.predict(sampled, features))
        return _majority_vote(np.stack(votes, axis=0))

    def _subsample(
        self, adjacency: Union[sp.spmatrix, np.ndarray], rng: np.random.Generator
    ):
        keep = self.config.keep_probability
        if sp.issparse(adjacency):
            kept = rng.random(sp.triu(adjacency, k=1).nnz) < keep
            return drop_undirected_edges(adjacency, ~kept)
        dense = np.asarray(adjacency, dtype=np.float64).copy()
        upper = np.triu(np.ones_like(dense, dtype=bool), k=1)
        drop = (rng.random(dense.shape) >= keep) & upper & (dense > 0)
        dense[drop] = 0.0
        dense[drop.T] = 0.0
        return dense


@DEFENSES.register("randsmooth", config_cls=RandSmoothConfig)
class RandSmoothDefense(Defense):
    """Smooth the customer's trained model at inference time."""

    def __init__(self, config: RandSmoothConfig | None = None) -> None:
        self.config = config or RandSmoothConfig()

    def defend(
        self,
        condensed: CondensedGraph,
        model: Predictor,
        graph: GraphData,
        evaluation: EvaluationConfig,
        rng: np.random.Generator,
    ) -> SmoothedModel:
        """``model`` wrapped in randomised edge subsampling + majority vote
        (the smoothing draws come from ``config.seed``, not ``rng``)."""
        return SmoothedModel(model, self.config)
