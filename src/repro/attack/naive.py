"""Naive Poison: directly injecting triggers into the condensed graph.

This is the strawman of Figure 1.  The attacker condenses the clean graph and
then overwrites part of the (tiny) condensed graph with trigger nodes labelled
as the target class.  Because the condensed graph has only tens of nodes,
this both degrades the downstream GNN's clean accuracy and is easy to detect
— the motivation for BGC's indirect injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.condensation.base import CondensedGraph, Condenser
from repro.exceptions import AttackError
from repro.graph.data import GraphData
from repro.registry import ATTACKS
from repro.utils.logging import get_logger
from repro.utils.validation import CLASS_INDEX, at_least, check_fields, checked, real

logger = get_logger("attack.naive")


@dataclass
class NaivePoisonConfig:
    """Hyperparameters of the naive condensed-graph injection."""

    target_class: int = checked(0, CLASS_INDEX)
    num_trigger_nodes: int = checked(4, at_least(1))
    poison_fraction: float = checked(0.4, real(above=0, at_most=1))
    trigger_feature_value: float = checked(1.0, real(above=0))

    def __post_init__(self) -> None:
        check_fields(self, AttackError)


@ATTACKS.register("naive", config_cls=NaivePoisonConfig, aliases=("naive-poison",))
class NaivePoison:
    """Condense cleanly, then stamp a universal trigger into the condensed graph."""

    def __init__(self, config: NaivePoisonConfig | None = None) -> None:
        self.config = config or NaivePoisonConfig()

    def run(
        self,
        graph: GraphData,
        condenser: Condenser,
        rng: np.random.Generator,
    ) -> Tuple[CondensedGraph, np.ndarray]:
        """Return the poisoned condensed graph and the universal trigger features.

        The universal trigger is a dense block of ``num_trigger_nodes`` synthetic
        nodes with saturated features on a random set of dimensions; a copy of
        its feature pattern is returned so the evaluation can attach the same
        pattern to test nodes.
        """
        condensed = condenser.condense(graph, rng)
        poisoned = condensed.copy()
        config = self.config

        num_nodes = poisoned.num_nodes
        num_poison = max(1, int(round(config.poison_fraction * num_nodes)))
        victims = rng.choice(num_nodes, size=num_poison, replace=False)

        # Universal trigger: a fixed sparse feature pattern of saturated values.
        num_features = poisoned.features.shape[1]
        pattern_dims = rng.choice(num_features, size=max(1, num_features // 100), replace=False)
        trigger_pattern = np.zeros(num_features)
        trigger_pattern[pattern_dims] = config.trigger_feature_value

        # Overwrite victim nodes: trigger features, target label, dense mutual
        # edges.  The victims lose their original class prototype entirely,
        # which is what makes direct injection so damaging to utility on a
        # graph of only tens of nodes (Figure 1's motivation).
        poisoned.features[victims] = trigger_pattern[None, :]
        poisoned.labels[victims] = config.target_class
        for i in victims:
            for j in victims:
                if i != j:
                    poisoned.adjacency[i, j] = 1.0
        poisoned.method = f"{condensed.method}+naive-poison"
        poisoned.metadata["poisoned_nodes"] = float(num_poison)
        logger.debug("naively poisoned %d / %d condensed nodes", num_poison, num_nodes)
        return poisoned, trigger_pattern

    @staticmethod
    def attach_universal_trigger(
        graph: GraphData,
        test_index: np.ndarray,
        trigger_pattern: np.ndarray,
        mix: float = 0.8,
    ) -> GraphData:
        """Blend the universal trigger pattern into the features of test nodes."""
        test_index = np.asarray(test_index, dtype=np.int64)
        features = graph.features.copy()
        features[test_index] = (1.0 - mix) * features[test_index] + mix * trigger_pattern[None, :]
        return graph.with_(features=features)
