"""GTA adapted to graph condensation.

GTA (Xi et al., USENIX Security 2021) learns an adaptive trigger generator
against a surrogate model trained on the *original* graph, attaches the
triggers, and lets the victim train on the poisoned data.  The adaptation to
graph condensation (as described in Section VI-B of the BGC paper) poisons
the original graph once, *before* condensation, and then condenses the
poisoned graph with an unmodified condenser.  Because the triggers are never
refreshed during condensation their malicious signal partially washes out,
which is exactly the gap BGC closes.

Everything but that schedule is BGC's code: the selection, the batched
generator update and the poisoned-graph builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.attack.bgc import BGC, BGCResult, bgc_config
from repro.attack.selection import SelectionConfig
from repro.attack.surrogate import fit_linear_surrogate
from repro.attack.trigger import TriggerConfig
from repro.condensation.base import Condenser
from repro.exceptions import AttackError
from repro.graph.cache import get_default_cache
from repro.graph.data import GraphData
from repro.registry import ATTACKS
from repro.utils.validation import CLASS_INDEX, at_least, check_fields, checked, optional, real


@dataclass
class GTAConfig:
    """Hyperparameters of the GTA adaptation."""

    target_class: int = checked(0, CLASS_INDEX)
    poison_ratio: float | None = checked(0.1, optional(real(above=0, at_most=1)))
    poison_number: int | None = checked(None, optional(at_least(1)))
    generator_epochs: int = checked(30, at_least(1))
    update_batch_size: int = checked(12, at_least(1))
    max_neighbors: int = checked(10, at_least(0))
    surrogate_steps: int = checked(100, at_least(1))
    surrogate_lr: float = checked(0.05, real(above=0))
    surrogate_hops: int = checked(2, at_least(1))
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self) -> None:
        check_fields(self, AttackError)
        if self.poison_ratio is None and self.poison_number is None:
            raise AttackError("one of poison_ratio or poison_number must be set")


@ATTACKS.register("gta", config_cls=GTAConfig)
class GTAAttack(BGC):
    """Poison the original graph with a statically trained trigger generator, then condense.

    ``generator_epochs`` is the number of generator steps, all taken before
    condensation against one surrogate of the original graph.
    """

    def __init__(self, config: GTAConfig | None = None) -> None:
        config = config or GTAConfig()
        super().__init__(bgc_config(config, generator_steps=config.generator_epochs))

    def run(
        self,
        graph: GraphData,
        condenser: Condenser,
        rng: np.random.Generator,
        select: Callable[[GraphData, np.random.Generator], np.ndarray] | None = None,
    ) -> BGCResult:
        """Select, fit the surrogate, train the generator, poison once, condense.

        ``rng`` is drawn in that order; ``select`` is :meth:`BGC.run`'s hook.
        The condenser condenses the poisoned view as is: its first
        propagation of it is incremental against the original's cached
        chain, and every later epoch is a cache hit.
        """
        working, poisoned_nodes, base_poisoned = self._poison_labels(graph, rng, select)
        surrogate_weight = self._train_surrogate_on_original(working, rng)
        generator, optimizer, encoder_inputs = self._start_generator(working, rng)
        self._update_generator(
            working, encoder_inputs, generator, optimizer, surrogate_weight, rng
        )
        poisoned_graph = self._build_poisoned_graph(
            working, base_poisoned, generator, poisoned_nodes, encoder_inputs
        )
        condensed = condenser.condense(poisoned_graph, rng)
        condensed.method = condenser.name
        return BGCResult(
            condensed=condensed,
            generator=generator,
            target_class=self.config.target_class,
            poisoned_nodes=poisoned_nodes,
        )

    def _train_surrogate_on_original(
        self, working: GraphData, rng: np.random.Generator
    ) -> np.ndarray:
        """The GTA threat model: an SGC surrogate of the clean training nodes,
        fitted on the shared cache's propagated rows of those nodes."""
        config = self.config
        propagated = get_default_cache().propagated_view(working, config.surrogate_hops)
        train = working.split.train
        return fit_linear_surrogate(
            propagated[train], working.labels[train], working.num_classes,
            config.surrogate_steps, config.surrogate_lr, rng,
        )
