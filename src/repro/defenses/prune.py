"""Prune: a dataset-level defense that removes low-similarity edges.

Following UGBA's defense baseline, the ``prune_fraction`` lowest-similarity
edges (endpoint feature cosine similarity) are removed.  The BGC paper
applies it to the condensed graph before the customer trains on it.

Selection is rank-based, not quantile-based: exactly ``floor(fraction * E)``
undirected edges are dropped, ties broken deterministically by ``(row, col)``,
so ``prune_fraction=0.0`` is a bit-for-bit no-op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.condensation.base import CondensedGraph
from repro.defenses.base import Defense
from repro.evaluation.pipeline import (
    EvaluationConfig,
    Predictor,
    train_model_on_condensed,
)
from repro.exceptions import DefenseError
from repro.graph.data import GraphData
from repro.registry import DEFENSES
from repro.utils.logging import get_logger
from repro.utils.validation import check_fields, checked, real

logger = get_logger("defenses.prune")


@dataclass
class PruneConfig:
    """Configuration of the edge-pruning defense."""

    prune_fraction: float = checked(0.2, real(at_least=0, below=1))

    def __post_init__(self) -> None:
        check_fields(self, DefenseError)


def _cosine_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity between two equally shaped matrices."""
    numerator = (a * b).sum(axis=1)
    denominator = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) + 1e-12
    return numerator / denominator


def _rank_drop_mask(
    similarities: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    fraction: float,
) -> np.ndarray:
    """Mark exactly ``floor(fraction * E)`` lowest-similarity edges for removal.

    Ties are broken by ``(row, col)`` so the selection is deterministic and
    independent of how many edges share the threshold similarity.
    """
    num_drop = int(fraction * similarities.size)
    drop = np.zeros(similarities.size, dtype=bool)
    if num_drop == 0:
        return drop
    order = np.lexsort((cols, rows, similarities))
    drop[order[:num_drop]] = True
    return drop


@DEFENSES.register("prune", config_cls=PruneConfig)
class PruneDefense(Defense):
    """Remove the lowest-similarity edges from the condensed graph."""

    def __init__(self, config: PruneConfig | None = None) -> None:
        self.config = config or PruneConfig()

    def defend(
        self,
        condensed: CondensedGraph,
        model: Predictor,
        graph: GraphData,
        evaluation: EvaluationConfig,
        rng: np.random.Generator,
    ) -> Predictor:
        """Retrain the customer's model on the pruned condensed graph."""
        return train_model_on_condensed(
            self.apply_to_condensed(condensed), graph, evaluation, rng
        )

    def apply_to_condensed(self, condensed: CondensedGraph) -> CondensedGraph:
        """Prune the condensed graph's (dense) adjacency."""
        pruned = condensed.copy()
        adjacency = pruned.adjacency
        rows, cols = np.nonzero(np.triu(adjacency, k=1))
        if rows.size == 0:
            return pruned
        similarities = _cosine_similarity(pruned.features[rows], pruned.features[cols])
        drop = _rank_drop_mask(similarities, rows, cols, self.config.prune_fraction)
        adjacency[rows[drop], cols[drop]] = 0.0
        adjacency[cols[drop], rows[drop]] = 0.0
        pruned.metadata["pruned_edges"] = float(drop.sum())
        logger.debug("pruned %d / %d condensed edges", int(drop.sum()), rows.size)
        return pruned
