"""BGC: the Backdoor attack against Graph Condensation (Algorithm 1).

The attacker is the condensation-service provider.  Each condensation epoch
interleaves three updates:

1. a surrogate SGC model is (re)trained on the current condensed graph,
2. the adaptive trigger generator is optimised to make that surrogate
   classify trigger-attached nodes into the target class,
3. the refreshed triggers are attached to the selected representative nodes
   of the original graph and the condensed graph takes one condensation step
   against this poisoned graph.

The result is a condensed graph that looks clean, trains GNNs with near-clean
utility, yet encodes the trigger → target-class association.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.attack.selection import (
    RandomNodeSelector,
    RepresentativeNodeSelector,
    SelectionConfig,
)
from repro.attack.trigger import (
    TriggerConfig,
    TriggerGenerator,
    batched_local_trigger_loss,
    generate_hard_triggers,
)
from repro.autograd import Adam, Parameter, Tensor
from repro.autograd import functional as F
from repro.condensation.base import CondensedGraph, Condenser
from repro.condensation.gradient_matching import (
    closed_form_surrogate_steps,
    normalize_dense_tensor,
)
from repro.exceptions import AttackError
from repro.graph.data import GraphData
from repro.graph.normalize import dense_gcn_normalize
from repro.graph.splits import SplitIndices
from repro.graph.view import poison_graph_view
from repro.registry import ATTACKS
from repro.utils.logging import get_logger

logger = get_logger("attack.bgc")


@dataclass
class BGCConfig:
    """Hyperparameters of the BGC attack (defaults follow the paper)."""

    target_class: int = 0
    poison_ratio: float | None = 0.1
    poison_number: int | None = None
    epochs: int = 30
    surrogate_steps: int = 20
    surrogate_lr: float = 0.05
    surrogate_hops: int = 2
    generator_steps: int = 2
    update_batch_size: int = 12
    max_neighbors: int = 10
    directed: bool = False
    source_class: int | None = None
    use_random_selection: bool = False
    #: Carry the surrogate weight and Adam moments across attack epochs and
    #: retrain with ``surrogate_refresh_steps`` closed-form steps per epoch
    #: instead of a fresh ``surrogate_steps``-step autograd run.  False is
    #: the full-retrain reference path (the paper's Algorithm 1 verbatim).
    surrogate_warm_start: bool = False
    #: Steps per warm epoch after the first (``None`` = ``surrogate_steps``);
    #: same semantics and default as the condenser-side
    #: :attr:`repro.condensation.base.CondensationConfig.surrogate_refresh_steps`.
    surrogate_refresh_steps: int | None = None
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self) -> None:
        if self.poison_ratio is None and self.poison_number is None:
            raise AttackError("one of poison_ratio or poison_number must be set")
        if self.poison_ratio is not None and not 0.0 < self.poison_ratio <= 1.0:
            raise AttackError(f"poison_ratio must lie in (0, 1], got {self.poison_ratio}")
        if self.poison_number is not None and self.poison_number < 1:
            raise AttackError(f"poison_number must be >= 1, got {self.poison_number}")
        if self.epochs < 1:
            raise AttackError("epochs must be >= 1")
        if self.generator_steps < 0:
            raise AttackError("generator_steps must be >= 0")
        if self.update_batch_size < 1:
            raise AttackError("update_batch_size must be >= 1")
        if self.surrogate_refresh_steps is not None and self.surrogate_refresh_steps < 1:
            raise AttackError(
                f"surrogate_refresh_steps must be >= 1, got {self.surrogate_refresh_steps}"
            )
        if self.directed and self.source_class is None:
            raise AttackError("directed attacks require a source_class")


@dataclass
class BGCResult:
    """Everything the attacker hands over (and keeps) after a BGC run."""

    condensed: CondensedGraph
    generator: TriggerGenerator
    target_class: int
    poisoned_nodes: np.ndarray
    history: List[Dict[str, float]] = field(default_factory=list)


@ATTACKS.register("bgc", config_cls=BGCConfig)
class BGC:
    """Backdoor attack against graph condensation (the paper's method)."""

    def __init__(self, config: BGCConfig | None = None) -> None:
        self.config = config or BGCConfig()
        #: Warm-start surrogate lineage (weight + Adam moments); reset per run.
        self._surrogate_state: dict | None = None
        #: Per-run memo of constant trigger scaffolds (see _update_generator).
        self._scaffold_cache: dict = {}

    # -------------------------------------------------------------- #
    # Public entry point
    # -------------------------------------------------------------- #
    def run(
        self,
        graph: GraphData,
        condenser: Condenser,
        rng: np.random.Generator,
        select: Callable[[GraphData, np.random.Generator], np.ndarray] | None = None,
    ) -> BGCResult:
        """Execute Algorithm 1 and return the poisoned condensed graph.

        ``select(working, rng)`` picks the poisoned nodes, as
        :meth:`select_poisoned_nodes` (the default) does; it must leave
        ``rng`` where that method would.  Selection is the first draw from
        ``rng`` and reads only the graph and the config fields in
        :meth:`selection_key`, which lets a caller serve it from a memo.
        """
        config = self.config
        working = graph.training_view() if graph.inductive else graph
        if config.target_class >= working.num_classes:
            raise AttackError(
                f"target_class {config.target_class} out of range for "
                f"{working.num_classes} classes"
            )

        poisoned_nodes = (select or self.select_poisoned_nodes)(working, rng)
        poisoned_labels = working.labels.copy()
        poisoned_labels[poisoned_nodes] = config.target_class
        poisoned_train = np.union1d(working.split.train, poisoned_nodes)
        base_poisoned = working.with_(
            labels=poisoned_labels,
            split=SplitIndices(
                train=poisoned_train,
                val=working.split.val,
                test=working.split.test,
            ),
        )

        condenser.initialize(base_poisoned, rng)
        generator = TriggerGenerator(working.num_features, rng, config.trigger)
        generator.calibrate(working.features)
        generator_optimizer = Adam(generator.parameters(), lr=config.trigger.learning_rate)
        encoder_inputs = generator.encode_inputs(working.adjacency, working.features)
        self._surrogate_state = None  # fresh warm-start lineage per run
        # Constant per-node trigger scaffolds (local sets, host adjacency
        # blocks, host feature rows) are shared across every generator step
        # and attack epoch of this run — `working` and max_neighbors are
        # fixed — so their sparse gathers are paid once per node per run.
        self._scaffold_cache = {}

        history: List[Dict[str, float]] = []
        for epoch in range(config.epochs):
            condensed = condenser.synthetic()
            surrogate_weight = self._train_surrogate(condensed, rng)
            trigger_loss = self._update_generator(
                working, encoder_inputs, generator, generator_optimizer, surrogate_weight, rng
            )
            poisoned_graph = self._build_poisoned_graph(
                working, base_poisoned, generator, poisoned_nodes, encoder_inputs
            )
            matching_loss = condenser.epoch_step(poisoned_graph)
            history.append(
                {
                    "epoch": float(epoch),
                    "trigger_loss": float(trigger_loss),
                    "condensation_loss": float(matching_loss),
                }
            )
            if epoch % max(1, config.epochs // 5) == 0:
                logger.debug(
                    "bgc epoch %d trigger loss %.4f matching loss %.4f",
                    epoch,
                    trigger_loss,
                    matching_loss,
                )

        return BGCResult(
            condensed=condenser.synthetic(),
            generator=generator,
            target_class=config.target_class,
            poisoned_nodes=poisoned_nodes,
            history=history,
        )

    # -------------------------------------------------------------- #
    # Poisoned-node selection
    # -------------------------------------------------------------- #
    def selection_key(self) -> str:
        """The config fields :meth:`select_poisoned_nodes` reads, as a key."""
        config = self.config
        return repr(
            (
                config.target_class,
                config.poison_ratio,
                config.poison_number,
                config.directed,
                config.source_class,
                config.use_random_selection,
                config.selection,
            )
        )

    def select_poisoned_nodes(
        self, working: GraphData, rng: np.random.Generator
    ) -> np.ndarray:
        """The nodes to poison in ``working`` (the paper's selector, Eq. 9)."""
        config = self.config
        if config.poison_number is not None:
            budget = config.poison_number
        else:
            # The poisoning ratio is taken relative to the labelled training
            # set (the paper's absolute poison numbers for Flickr/Reddit are
            # ~0.1-0.2% of their training sets; a ratio of the full node count
            # would swamp the 140-node Planetoid training sets and destroy
            # utility, which is exactly what BGC is designed to avoid).
            budget = max(1, int(round(config.poison_ratio * working.split.train.size)))
        candidates = None
        if config.directed:
            candidates = np.flatnonzero(working.labels == config.source_class)
            blocked = np.zeros(working.num_nodes, dtype=bool)
            blocked[working.split.val] = True
            blocked[working.split.test] = True
            candidates = candidates[~blocked[candidates]]
        if config.use_random_selection:
            selector = RandomNodeSelector()
            return selector.select(working, budget, config.target_class, rng, candidates)
        selector = RepresentativeNodeSelector(config.selection)
        return selector.select(working, budget, config.target_class, rng, candidates)

    # -------------------------------------------------------------- #
    # Surrogate model on the condensed graph
    # -------------------------------------------------------------- #
    def _train_surrogate(
        self, condensed: CondensedGraph, rng: np.random.Generator
    ) -> np.ndarray:
        """Train an SGC surrogate on the condensed graph; return its weight matrix.

        Two regimes, selected by ``config.surrogate_warm_start``:

        * **full retrain** (the reference, default): a fresh weight and a
          fresh autograd Adam run of ``surrogate_steps`` per attack epoch —
          Algorithm 1 verbatim;
        * **warm start**: the weight and Adam moments persist across epochs
          (the condensed graph moves a little per epoch, so the surrogate is
          one continuous optimisation batched across attack epochs), epochs
          after the first run only ``surrogate_refresh_steps`` closed-form
          gradient steps — ``H^T (softmax(HW) - Y)/n`` fed straight into
          Adam, no autograd graph.
        """
        config = self.config
        if not config.surrogate_warm_start:
            propagated = self._propagate_condensed(condensed)
            num_classes = max(int(condensed.labels.max()) + 1, config.target_class + 1)
            weight = Parameter(
                rng.normal(scale=0.1, size=(condensed.features.shape[1], num_classes))
            )
            optimizer = Adam([weight], lr=config.surrogate_lr)
            inputs = Tensor(propagated)
            for _ in range(config.surrogate_steps):
                optimizer.zero_grad()
                logits = inputs.matmul(weight)
                loss = F.cross_entropy(logits, condensed.labels)
                loss.backward()
                optimizer.step()
            return weight.data.copy()
        return self._train_surrogate_warm(condensed, rng)

    def _train_surrogate_warm(
        self, condensed: CondensedGraph, rng: np.random.Generator
    ) -> np.ndarray:
        """Warm-start leg of :meth:`_train_surrogate` (closed-form steps)."""
        config = self.config
        propagated = self._propagate_condensed(condensed)
        num_classes = max(int(condensed.labels.max()) + 1, config.target_class + 1)
        shape = (condensed.features.shape[1], num_classes)
        state = self._surrogate_state
        if state is None or state["weight"].shape != shape:
            state = {
                "weight": rng.normal(scale=0.1, size=shape),
                "m": np.zeros(shape),
                "v": np.zeros(shape),
                "step": 0,
            }
            self._surrogate_state = state
            steps = config.surrogate_steps
        else:
            steps = (
                config.surrogate_refresh_steps
                if config.surrogate_refresh_steps is not None
                else config.surrogate_steps
            )
        closed_form_surrogate_steps(
            propagated, condensed.labels, state["weight"], state["m"], state["v"],
            state["step"], steps, config.surrogate_lr,
        )
        state["step"] += steps
        return state["weight"].copy()

    def _propagate_condensed(self, condensed: CondensedGraph) -> np.ndarray:
        adjacency = condensed.adjacency
        if np.allclose(adjacency, np.eye(adjacency.shape[0])):
            return condensed.features
        normalized = dense_gcn_normalize(adjacency)
        propagated = condensed.features
        for _ in range(self.config.surrogate_hops):
            propagated = normalized @ propagated
        return propagated

    # -------------------------------------------------------------- #
    # Trigger-generator update
    # -------------------------------------------------------------- #
    def _update_generator(
        self,
        working: GraphData,
        encoder_inputs: np.ndarray,
        generator: TriggerGenerator,
        optimizer: Adam,
        surrogate_weight: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        """Run ``generator_steps`` optimisation steps of the trigger generator.

        Each step draws one batch and optimises the mean surrogate
        cross-entropy (Eq. 13) over it via
        :func:`~repro.attack.trigger.batched_local_trigger_loss` — a single
        block-diagonal autograd graph for the whole batch rather than one
        small graph per node.
        """
        config = self.config
        weight_tensor = Tensor(surrogate_weight)
        if config.directed:
            pool = np.flatnonzero(working.labels == config.source_class)
        else:
            pool = np.arange(working.num_nodes)
        if pool.size == 0:
            raise AttackError("no nodes available to optimise triggers against")
        last_loss = float("nan")
        for _ in range(config.generator_steps):
            batch_size = min(config.update_batch_size, pool.size)
            batch = rng.choice(pool, size=batch_size, replace=False)
            optimizer.zero_grad()
            loss = batched_local_trigger_loss(
                batch,
                working,
                encoder_inputs,
                generator,
                weight_tensor,
                target_class=config.target_class,
                max_neighbors=config.max_neighbors,
                num_hops=config.surrogate_hops,
                scaffold_cache=self._scaffold_cache,
            )
            loss.backward()
            optimizer.step()
            last_loss = float(loss.item())
        return last_loss

    # -------------------------------------------------------------- #
    # Poisoned-graph construction
    # -------------------------------------------------------------- #
    def _build_poisoned_graph(
        self,
        working: GraphData,
        base_poisoned: GraphData,
        generator: TriggerGenerator,
        poisoned_nodes: np.ndarray,
        encoder_inputs: np.ndarray | None = None,
    ):
        """Attach the current triggers to the poisoned nodes of the original graph.

        The result is a zero-copy :class:`~repro.graph.view.GraphView`
        recorded as a delta against ``working``: trigger rows overlay the
        base feature matrix instead of being vstacked under it, and the only
        pre-existing rows the attachment touches are the poisoned host nodes
        (each gains one edge to its trigger block).  Downstream propagation
        through :class:`~repro.graph.cache.PropagationCache` therefore
        recomputes only the triggers' K-hop neighbourhood each attack epoch,
        in difference form.  The materialised ``GraphData`` equivalent is
        pinned bit-identical in ``tests/test_hotpath_equivalence.py``.
        ``encoder_inputs`` are the generator's inputs for ``working``, which
        :meth:`run` computes once instead of once per epoch.
        """
        features, adjacency = generate_hard_triggers(
            generator, working.adjacency, working.features, poisoned_nodes, encoder_inputs
        )
        return poison_graph_view(
            working,
            poisoned_nodes,
            features,
            adjacency,
            labels=base_poisoned.labels,
            trigger_label=self.config.target_class,
            split=base_poisoned.split.copy(),
            name=f"{working.name}-poisoned",
            metadata=dict(working.metadata),
        )
