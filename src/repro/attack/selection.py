"""Poisoned-node selection (Section IV-B of the paper).

The attacker trains a GCN node selector ``f_sel`` on the clean graph, runs
per-class K-Means over its hidden representations and scores every node by

``m(v) = ||h_v - h_centroid||_2 + λ · deg(v)``  (Eq. 9)

Representative nodes (small distance to their cluster centroid) with moderate
degree (the λ term penalises hubs whose relabelling would damage utility) are
selected, ``n = Δ_P / ((C-1)·K)`` per cluster, skipping the target class.
:class:`RandomNodeSelector` is the ablation variant (BGC\\ :sub:`Rand`) used
in Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.attack.kmeans import KMeans
from repro.autograd import functional as F
from repro.exceptions import AttackError
from repro.graph.cache import get_default_cache
from repro.graph.data import GraphData
from repro.models.gcn import GCN
from repro.models.trainer import Trainer, TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.validation import at_least, check_fields, checked, real

logger = get_logger("attack.selection")


@dataclass
class SelectionConfig:
    """Hyperparameters of the representative-node selector."""

    num_clusters: int = checked(3, at_least(1))
    degree_balance: float = checked(0.05, real(at_least=0))
    selector_hidden: int = checked(32, at_least(1))
    selector_epochs: int = checked(100, at_least(1))
    exclude_target_class: bool = True

    def __post_init__(self) -> None:
        check_fields(self, AttackError)


class RepresentativeNodeSelector:
    """Selects representative nodes to poison, per Eq. 9 of the paper.

    Notes
    -----
    The paper describes choosing nodes *near* the cluster centroid while
    penalising high degree, but phrases the pick as "top-n highest scores" of
    ``m(v) = distance + λ·deg``.  Taken literally that selects the *least*
    representative nodes, contradicting the motivation, so this implementation
    ranks by ascending ``m(v)`` (closest to the centroid, hubs pushed back by
    the λ penalty), which matches the stated intent and the DREAM/UGBA
    selection strategies the paper cites.
    """

    def __init__(self, config: SelectionConfig | None = None) -> None:
        self.config = config or SelectionConfig()
        self._representations: np.ndarray | None = None
        self._scores: np.ndarray | None = None

    def select(
        self,
        graph: GraphData,
        budget: int,
        target_class: int,
        rng: np.random.Generator,
        candidates: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return the indices of the nodes to poison.

        Parameters
        ----------
        graph:
            The clean graph (the training view for inductive datasets).
        budget:
            Δ_P — the maximum number of poisoned nodes.
        target_class:
            The attack's target label ``y_t``; nodes already of this class
            are skipped when ``exclude_target_class`` is set.
        candidates:
            Optional restriction of the candidate pool (defaults to every
            node that is not a validation/test node).
        """
        if budget < 1:
            raise AttackError(f"poison budget must be >= 1, got {budget}")
        candidates = self._candidate_pool(graph, candidates)
        representations = self._node_representations(graph, rng)
        self._representations = representations
        degrees = graph.degrees()

        labels = graph.labels
        classes = [
            cls
            for cls in range(graph.num_classes)
            if not (self.config.exclude_target_class and cls == target_class)
        ]
        if not classes:
            raise AttackError("no classes left to poison after excluding the target class")
        per_cluster = max(1, int(round(budget / (len(classes) * self.config.num_clusters))))

        scores = np.full(graph.num_nodes, np.inf)
        selected: List[int] = []
        for cls in classes:
            class_candidates = candidates[labels[candidates] == cls]
            if class_candidates.size == 0:
                continue
            kmeans = KMeans(num_clusters=self.config.num_clusters).fit(
                representations[class_candidates], rng
            )
            distances = kmeans.distances_to_own_centroid(representations[class_candidates])
            metric = distances + self.config.degree_balance * degrees[class_candidates]
            scores[class_candidates] = metric
            assignments = kmeans.assignments
            for cluster in range(kmeans.centroids.shape[0]):
                members = np.flatnonzero(assignments == cluster)
                if members.size == 0:
                    continue
                ranked = members[np.argsort(metric[members])]
                chosen = class_candidates[ranked[:per_cluster]]
                selected.extend(chosen.tolist())
        self._scores = scores
        if not selected:
            raise AttackError("selection produced no poisoned nodes")
        selected_arr = np.asarray(sorted(set(selected)), dtype=np.int64)
        if selected_arr.size > budget:
            # Keep the best-scoring nodes within the budget.
            order = np.argsort(scores[selected_arr])
            selected_arr = np.sort(selected_arr[order[:budget]])
        logger.debug("selected %d poisoned nodes (budget %d)", selected_arr.size, budget)
        return selected_arr

    # -------------------------------------------------------------- #
    # Internals
    # -------------------------------------------------------------- #
    def _candidate_pool(
        self, graph: GraphData, candidates: np.ndarray | None
    ) -> np.ndarray:
        if candidates is not None:
            pool = np.asarray(candidates, dtype=np.int64)
        else:
            blocked = np.zeros(graph.num_nodes, dtype=bool)
            blocked[graph.split.val] = True
            blocked[graph.split.test] = True
            pool = np.flatnonzero(~blocked)
        if pool.size == 0:
            raise AttackError("candidate pool for poisoning is empty")
        return pool

    def _node_representations(
        self, graph: GraphData, rng: np.random.Generator
    ) -> np.ndarray:
        """Hidden representations of the selector GCN trained on the clean graph.

        The selector reads the features as CSR (every registered dataset is
        at most ~18 % nonzero), so its first layer's ``X W`` and ``Xᵀ G``
        are sparse products.  They match the dense products to rounding, and
        the selected nodes exactly.  The propagation cache converts them
        once per graph and keeps them beside the operator.
        """
        features = get_default_cache().csr_features(graph)
        selector = GCN(
            graph.num_features,
            graph.num_classes,
            rng=rng,
            hidden=self.config.selector_hidden,
            num_layers=2,
        )
        trainer = Trainer(
            selector,
            TrainingConfig(epochs=self.config.selector_epochs, patience=self.config.selector_epochs),
        )
        val_index = graph.split.val if graph.split.val.size else None
        trainer.fit(graph.adjacency, features, graph.labels, graph.split.train, val_index)
        # First-layer hidden representation (post-ReLU), computed without grad.
        from repro.autograd.tensor import no_grad
        from repro.models.base import normalize_adjacency, propagate

        selector.eval()
        with no_grad():
            operator = normalize_adjacency(graph.adjacency)
            hidden = propagate(operator, selector.conv_0(features))
            hidden = F.relu(hidden)
        return hidden.data


class RandomNodeSelector:
    """Uniformly random poisoned-node selection (the BGC_Rand ablation)."""

    def __init__(self, exclude_target_class: bool = True) -> None:
        self.exclude_target_class = exclude_target_class

    def select(
        self,
        graph: GraphData,
        budget: int,
        target_class: int,
        rng: np.random.Generator,
        candidates: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sample ``budget`` candidate nodes uniformly at random."""
        if budget < 1:
            raise AttackError(f"poison budget must be >= 1, got {budget}")
        if candidates is None:
            blocked = np.zeros(graph.num_nodes, dtype=bool)
            blocked[graph.split.val] = True
            blocked[graph.split.test] = True
            pool = np.flatnonzero(~blocked)
        else:
            pool = np.asarray(candidates, dtype=np.int64)
        if self.exclude_target_class:
            pool = pool[graph.labels[pool] != target_class]
        if pool.size == 0:
            raise AttackError("candidate pool for poisoning is empty")
        size = min(budget, pool.size)
        return np.sort(rng.choice(pool, size=size, replace=False))
