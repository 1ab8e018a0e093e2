"""Budgeted node-injection attack with feature-bound projection.

Instead of re-labelling or re-wiring existing nodes, the injection attacker
(in the style of GREAT / GraphWar's ``injection_attacker``) *appends* a small
budget of fake nodes, wires each to a few real training hosts, and optimises
the fake features by projected gradient descent so the surrogate classifies
the injected neighbourhood as the target class.  Every candidate state is a
:class:`~repro.graph.view.GraphView` overlay — the base graph is never
copied, the appended rows live in the view's
:class:`~repro.graph.view.StackedFeatures` overlay block, and propagation is
served incrementally by
:meth:`~repro.graph.cache.PropagationCache.propagated_view` (the dirty set is
the hosts' K-hop neighbourhood, not the graph).

Feature bounds
--------------
Injected features are projected after every gradient step onto the
per-dimension ``[min, max]`` envelope of the *real* feature matrix, so no
fake node carries values outside the range an inspector would consider
plausible.  The projection is what keeps the attack budgeted in feature
space, exactly as GraphWar's ``feat_limits`` does.

Gradient
--------
The surrogate is linear (``Z = Â^K X W``), so the loss gradient with respect
to the injected feature rows is exact: with ``G = ∂L/∂Z`` supported on the
injected nodes and their hosts, ``∂L/∂X = (Âᵀ)^K G Wᵀ`` — K sparse products
against an ``(n, C)`` matrix, no approximation and no dense ``(n, n)`` or
``(n, F)`` intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.attack.sampled import _gather_rows, _softmax
from repro.attack.surrogate import fit_linear_surrogate
from repro.condensation.base import CondensedGraph, Condenser
from repro.exceptions import AttackError
from repro.graph.cache import PropagationCache, get_default_cache
from repro.graph.data import GraphData
from repro.graph.splits import SplitIndices
from repro.graph.subgraph import append_node_edges
from repro.graph.view import GraphView
from repro.registry import ATTACKS
from repro.utils.logging import get_logger
from repro.utils.seed import spawn_rngs
from repro.utils.validation import CLASS_INDEX, at_least, check_fields, checked, real

logger = get_logger("attack.injection")


@dataclass
class InjectionConfig:
    """Hyperparameters of the budgeted node-injection attacker."""

    target_class: int = checked(0, CLASS_INDEX)
    #: Number of fake nodes appended (the injection budget).
    num_injected: int = checked(4, at_least(1))
    #: Undirected edges from each injected node to distinct real train hosts.
    edges_per_node: int = checked(2, at_least(1))
    #: Projected-gradient steps on the injected feature block.
    feature_steps: int = checked(8, at_least(0))
    feature_lr: float = checked(0.5, real(above=0))
    surrogate_steps: int = checked(60, at_least(1))
    surrogate_lr: float = checked(0.05, real(above=0))
    surrogate_hops: int = checked(2, at_least(1))
    #: Gaussian scale of the initial perturbation around the target-class
    #: feature mean (keeps same-seed fake nodes distinct).
    init_noise: float = checked(0.01, real(at_least=0))

    def __post_init__(self) -> None:
        check_fields(self, AttackError)


@ATTACKS.register("injection", config_cls=InjectionConfig, aliases=("node-injection",))
class NodeInjectionAttack:
    """Append budgeted fake nodes, optimise their features under bounds, condense."""

    def __init__(self, config: InjectionConfig | None = None) -> None:
        self.config = config or InjectionConfig()

    def run(
        self,
        graph: GraphData,
        condenser: Condenser,
        rng: np.random.Generator,
    ) -> Tuple[CondensedGraph, np.ndarray]:
        """Inject, optimise, condense; return ``(condensed, universal_pattern)``.

        The pattern is the mean injected feature vector: blending test
        features toward it moves them into the region condensation learned
        to label as the target class, which is what the runner's
        universal-trigger ASR evaluation measures.
        """
        config = self.config
        working = graph.training_view() if graph.inductive else graph
        cache = get_default_cache()
        if config.target_class >= working.num_classes:
            raise AttackError(
                f"target_class {config.target_class} out of range for "
                f"{working.num_classes} classes"
            )

        # Host choice and feature init draw from SeedSequence-derived child
        # generators (one draw from the caller's stream) so the sampling
        # stays bit-identical serial and parallel regardless of how many
        # values each child consumes.
        injection_seed = int(rng.integers(2**63 - 1))
        host_rng, init_rng = spawn_rngs(injection_seed, 2)
        hosts = self._choose_hosts(working, host_rng)
        lower = np.asarray(working.features).min(axis=0)
        upper = np.asarray(working.features).max(axis=0)
        features = self._initial_features(working, init_rng, lower, upper)

        weight = self._train_surrogate(working, rng, cache)
        for step in range(config.feature_steps):
            view = self._injected_view(working, features, hosts)
            gradient = self._feature_gradient(view, hosts, weight, cache)
            features = np.clip(features - config.feature_lr * gradient, lower, upper)
            logger.debug(
                "injection step %d: grad-norm %.3e", step, float(np.abs(gradient).max())
            )

        final = self._injected_view(working, features, hosts)
        condensed = condenser.condense(final, rng)
        condensed.method = condenser.name
        condensed.metadata["poisoned_nodes"] = float(config.num_injected)
        return condensed, features.mean(axis=0)

    # -------------------------------------------------------------- #
    # Internals
    # -------------------------------------------------------------- #
    def _choose_hosts(
        self, working: GraphData, host_rng: np.random.Generator
    ) -> np.ndarray:
        """``(M, k)`` distinct train hosts per injected node."""
        config = self.config
        train = np.asarray(working.split.train, dtype=np.int64)
        per_node = min(config.edges_per_node, train.size)
        if per_node == 0:
            raise AttackError("cannot inject into a graph with an empty train set")
        return np.stack(
            [
                np.sort(host_rng.choice(train, size=per_node, replace=False))
                for _ in range(config.num_injected)
            ]
        )

    def _initial_features(
        self,
        working: GraphData,
        init_rng: np.random.Generator,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> np.ndarray:
        """Start at the target-class train mean, perturbed and projected."""
        config = self.config
        train = np.asarray(working.split.train, dtype=np.int64)
        members = train[working.labels[train] == config.target_class]
        if members.size:
            center = _gather_rows(working.features, members).mean(axis=0)
        else:
            center = (lower + upper) / 2.0
        noise = init_rng.normal(
            scale=config.init_noise, size=(config.num_injected, center.size)
        )
        return np.clip(center[None, :] + noise, lower, upper)

    def _injected_view(
        self, working: GraphData, features: np.ndarray, hosts: np.ndarray
    ) -> GraphView:
        """The poisoned graph as a zero-copy overlay: appended rows + host edges."""
        config = self.config
        n = working.num_nodes
        adjacency, changed = append_node_edges(working.adjacency, hosts)
        injected_ids = np.arange(n, n + config.num_injected, dtype=np.int64)
        labels = np.concatenate(
            [
                working.labels,
                np.full(config.num_injected, config.target_class, dtype=np.int64),
            ]
        )
        split = SplitIndices(
            train=np.concatenate([working.split.train, injected_ids]),
            val=working.split.val,
            test=working.split.test,
        )
        return GraphView(
            base=working,
            adjacency=adjacency,
            overlay_features=features,
            labels=labels,
            split=split,
            changed_nodes=changed,
            name=f"{working.name}-injected",
        )

    def _feature_gradient(
        self,
        view: GraphView,
        hosts: np.ndarray,
        weight: np.ndarray,
        cache: PropagationCache,
    ) -> np.ndarray:
        """Exact ``∂L/∂X`` restricted to the injected rows.

        ``L`` is the mean cross-entropy, toward the target class, of the
        injected nodes and their hosts under the linear surrogate on the
        *injected* topology.  The backward pass is ``K`` transposed sparse
        products of the view's normalised operator against an ``(n', C)``
        matrix — exact for SGC, bounded memory at any scale.
        """
        config = self.config
        n_total = view.num_nodes
        n_base = view.base.num_nodes
        injected_ids = np.arange(n_base, n_total, dtype=np.int64)
        focus = np.concatenate([injected_ids, np.unique(hosts)])
        normalized = cache.normalized(view)
        propagated = cache.propagated_view(view, config.surrogate_hops)
        logits = _gather_rows(propagated, focus) @ weight
        grad_logits = _softmax(logits)
        grad_logits[:, config.target_class] -= 1.0
        grad_logits /= focus.size
        backprop = np.zeros((n_total, weight.shape[1]), dtype=np.float64)
        backprop[focus] = grad_logits
        for _ in range(config.surrogate_hops):
            backprop = normalized.T @ backprop
        gradient = backprop @ weight.T
        return gradient[n_base:]

    def _train_surrogate(
        self,
        working: GraphData,
        rng: np.random.Generator,
        cache: PropagationCache,
    ) -> np.ndarray:
        """Linear SGC surrogate trained on the clean graph (the threat model),
        reading the propagated features at the training rows only."""
        config = self.config
        propagated = cache.propagated_view(working, config.surrogate_hops)
        train = np.asarray(working.split.train, dtype=np.int64)
        return fit_linear_surrogate(
            _gather_rows(propagated, train), working.labels[train], working.num_classes,
            config.surrogate_steps, config.surrogate_lr, rng,
        )
