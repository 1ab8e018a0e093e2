"""PRBCD-style sampled search-space topology attack.

The dense attackers (BGC / GTA / DOORPING) optimise trigger *content* for a
fixed set of poisoned nodes.  This module attacks the *topology*: it flips a
budgeted set of edges so that condensation, run on the flipped graph, absorbs
the attacker's label associations.  The search space of candidate flips is
the full undirected pair space — ``n(n-1)/2`` candidates, ~5·10⁹ pairs at the
100k-node flickr stand-in — which can never be materialised.  Following
PRBCD / GreedyRBCD (Geisler et al., "Robustness of Graph Neural Networks at
Scale"), each step therefore

1. samples a bounded block of candidate pairs (``block_size`` linear indices
   into the triangular pair space, drawn from a per-step
   ``SeedSequence``-derived generator),
2. scores only the sampled block with a first-order edge-gradient of the
   attacker loss under a linear SGC surrogate, reading the current poisoned
   topology through :meth:`~repro.graph.cache.PropagationCache.propagated_view`
   (cost ∝ rows gathered, never ``O(n²)``),
3. keeps the highest-gain flips under the edge budget and applies them as a
   :class:`~repro.graph.view.GraphView` edge overlay, so the next step's
   propagation is served incrementally.

Scoring model
-------------
With surrogate logits ``Z = Â^K X W`` and attacker loss ``L`` (cross-entropy
of the train nodes toward the attacker's label-flipped targets), the
first-order effect of perturbing one application of ``Â`` is

``∂L/∂Â_{ij} ≈ G_i·M_j + G_j·M_i``,   ``G = ∂L/∂Z``,  ``M = Â^{K-1} X W``,

the standard PRBCD block gradient.  Toggling a pair changes ``Â_{ij}`` in the
direction ``+1`` (absent → present) or ``-1`` (present → absent), so the
*gain* of a toggle is ``-(∂L/∂Â_{ij}) · direction``; positive-gain flips
reduce the attacker loss.  ``G`` and ``M`` are ``(n, C)`` — a few megabytes
even at six-figure ``n`` — and every ``(n, F)`` read is a streamed gather, so
a step's working set is bounded by the sampled block, not the graph.

The exhaustive reference
------------------------
``exhaustive=True`` scores the *entire* pair space with the same float ops —
the pinned dense reference.  When the sampled path's block covers the full
space it degenerates to the identical candidate enumeration, so the two
configurations produce bit-identical flips and condensed graphs; the
equivalence tests in ``tests/test_attack_sampled.py`` assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.attack.selection import (
    RandomNodeSelector,
    RepresentativeNodeSelector,
    SelectionConfig,
)
from repro.attack.surrogate import fit_linear_surrogate
from repro.condensation.base import CondensedGraph, Condenser
from repro.exceptions import AttackError
from repro.graph.blocked import BlockedArray
from repro.graph.cache import PropagationCache, get_default_cache
from repro.graph.data import GraphData
from repro.graph.splits import SplitIndices
from repro.graph.subgraph import toggle_edges
from repro.graph.view import GraphView, PropagatedView, StackedFeatures
from repro.registry import ATTACKS
from repro.utils.logging import get_logger
from repro.utils.seed import spawn_rngs
from repro.utils.validation import CLASS_INDEX, at_least, check_fields, checked, optional, real

logger = get_logger("attack.sampled")

#: Refuse to enumerate pair spaces larger than this exhaustively (the dense
#: reference exists for small-graph equivalence testing, not production).
MAX_EXHAUSTIVE_PAIRS = 2**26

#: Row-chunk size of the streamed gather-matmul helpers.
_STREAM_CHUNK = 8192


# ------------------------------------------------------------------ #
# Triangular pair-space indexing
# ------------------------------------------------------------------ #
def num_candidate_pairs(num_nodes: int) -> int:
    """Size of the undirected candidate space: ``n(n-1)/2`` node pairs."""
    return num_nodes * (num_nodes - 1) // 2


def _pair_offset(i: np.ndarray, num_nodes: int) -> np.ndarray:
    """Linear index of pair ``(i, i+1)`` — start of row ``i``'s strip."""
    return i * num_nodes - (i * (i + 1)) // 2


def encode_pairs(rows: np.ndarray, cols: np.ndarray, num_nodes: int) -> np.ndarray:
    """Linear indices of the pairs ``(rows[k], cols[k])`` with ``rows < cols``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if np.any(rows >= cols):
        raise AttackError("encode_pairs expects rows < cols")
    return _pair_offset(rows, num_nodes) + (cols - rows - 1)


def decode_pairs(linear: np.ndarray, num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_pairs`: linear indices → ``(rows, cols)``.

    The row is recovered from the closed-form float solution of the strip
    boundary equation, then corrected with exact int64 arithmetic — float
    rounding can be off by one near strip boundaries, never more, and the
    correction loop is asserted to converge.
    """
    linear = np.asarray(linear, dtype=np.int64)
    n = int(num_nodes)
    total = num_candidate_pairs(n)
    if linear.size and (linear.min() < 0 or linear.max() >= total):
        raise AttackError("pair index out of range")
    half = n - 0.5
    rows = np.floor(half - np.sqrt(half * half - 2.0 * linear.astype(np.float64)))
    rows = np.clip(rows.astype(np.int64), 0, max(n - 2, 0))
    for _ in range(2):
        rows = np.where(_pair_offset(rows, n) > linear, rows - 1, rows)
        rows = np.where(_pair_offset(rows + 1, n) <= linear, rows + 1, rows)
    starts = _pair_offset(rows, n)
    if linear.size and (
        np.any(starts > linear) or np.any(_pair_offset(rows + 1, n) <= linear)
    ):  # pragma: no cover - the two correction sweeps always converge
        raise AttackError("pair decoding failed to converge")
    cols = linear - starts + rows + 1
    return rows, cols


def edges_exist(adjacency: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean membership of each ``(rows[k], cols[k])`` pair in ``adjacency``."""
    if rows.size == 0:
        return np.zeros(0, dtype=bool)
    values = np.asarray(adjacency[rows, cols]).reshape(-1)
    return values != 0.0


# ------------------------------------------------------------------ #
# Streamed linear algebra over chain representations
# ------------------------------------------------------------------ #
def _gather_rows(matrix, rows: np.ndarray) -> np.ndarray:
    """Row gather working across ndarray / BlockedArray / view products."""
    gather = getattr(matrix, "gather", None)
    if gather is not None:
        return gather(rows)
    return np.asarray(matrix)[rows]


def _streamed_logits(matrix, rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``matrix[rows] @ weight`` in bounded chunks (no ``(rows, F)`` gather)."""
    out = np.empty((rows.size, weight.shape[1]), dtype=np.float64)
    for start in range(0, rows.size, _STREAM_CHUNK):
        chunk = rows[start : start + _STREAM_CHUNK]
        out[start : start + chunk.size] = _gather_rows(matrix, chunk) @ weight
    return out


def _project_columns(matrix, weight: np.ndarray) -> np.ndarray:
    """``matrix @ weight`` with bounded memory for every chain representation.

    A :class:`~repro.graph.blocked.BlockedArray` is streamed block by block
    (its own ``@`` would materialise the full ``(N, F)`` matrix), a
    :class:`~repro.graph.view.PropagatedView` projects its base product and
    overwrites the dirty rows, and a
    :class:`~repro.graph.view.StackedFeatures` projects both blocks.  A
    row source (:class:`~repro.graph.view.PropagatedRows`) reads every row,
    so it is materialised, once per cache entry.
    """
    if isinstance(matrix, PropagatedView):
        base = _project_columns(matrix.base_product, weight)
        out = np.zeros((matrix.shape[0], weight.shape[1]), dtype=np.float64)
        out[: base.shape[0]] = base
        if matrix.dirty_rows.size:
            out[matrix.dirty_rows] = matrix.dirty_values @ weight
        return out
    if isinstance(matrix, StackedFeatures):
        return matrix.project(weight)
    if isinstance(matrix, BlockedArray):
        out = np.empty((matrix.shape[0], weight.shape[1]), dtype=np.float64)
        for start, stop, block in matrix.blocks():
            out[start:stop] = np.asarray(block) @ weight
        return out
    return np.asarray(matrix) @ weight


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


# ------------------------------------------------------------------ #
# Configuration
# ------------------------------------------------------------------ #
@dataclass
class SampledEdgeConfig:
    """Hyperparameters of the sampled edge-flip (PRBCD-style) attacker."""

    target_class: int = checked(0, CLASS_INDEX)
    poison_ratio: float | None = checked(0.1, optional(real(above=0, at_most=1)))
    poison_number: int | None = checked(None, optional(at_least(1)))
    #: Total undirected edge flips the attacker may keep.
    edge_budget: int = checked(8, at_least(1))
    #: Candidate pairs sampled (without replacement) per step.  A block that
    #: covers the full pair space degenerates to the exhaustive enumeration.
    block_size: int = checked(2048, at_least(1))
    #: Sample/score/keep rounds; the budget is spread across them so later
    #: steps score against the already-flipped topology.
    flip_steps: int = checked(4, at_least(1))
    #: Score every candidate pair instead of sampling — the pinned dense
    #: reference path, refused above :data:`MAX_EXHAUSTIVE_PAIRS`.
    exhaustive: bool = False
    surrogate_steps: int = checked(60, at_least(1))
    surrogate_lr: float = checked(0.05, real(above=0))
    surrogate_hops: int = checked(2, at_least(1))
    use_random_selection: bool = False
    selection: SelectionConfig = field(default_factory=SelectionConfig)

    def __post_init__(self) -> None:
        check_fields(self, AttackError)
        if self.poison_ratio is None and self.poison_number is None:
            raise AttackError("one of poison_ratio or poison_number must be set")


# ------------------------------------------------------------------ #
# The attacker
# ------------------------------------------------------------------ #
@ATTACKS.register("prbcd", config_cls=SampledEdgeConfig, aliases=("sampled-edge",))
class SampledEdgeAttack:
    """Budgeted edge-flip poisoning over a sampled candidate block per step."""

    def __init__(self, config: SampledEdgeConfig | None = None) -> None:
        self.config = config or SampledEdgeConfig()

    # -------------------------------------------------------------- #
    # Full pipeline
    # -------------------------------------------------------------- #
    def run(
        self,
        graph: GraphData,
        condenser: Condenser,
        rng: np.random.Generator,
    ) -> Tuple[CondensedGraph, np.ndarray]:
        """Flip labels + edges, condense the poisoned graph.

        Returns ``(condensed, universal_pattern)`` — the NaivePoison result
        shape, so the runner's universal-trigger ASR evaluation applies with
        zero call-site changes.  The pattern is the mean feature vector of
        the label-flipped nodes: test nodes blended toward it land in the
        feature region condensation was taught to associate with the target
        class.
        """
        config = self.config
        working = graph.training_view() if graph.inductive else graph
        cache = get_default_cache()

        budget = (
            config.poison_number
            if config.poison_number is not None
            else max(1, int(round(config.poison_ratio * working.split.train.size)))
        )
        selector = (
            RandomNodeSelector(config.selection)
            if config.use_random_selection
            else RepresentativeNodeSelector(config.selection)
        )
        poisoned_nodes = np.sort(
            selector.select(working, budget, config.target_class, rng)
        )
        labels = working.labels.copy()
        labels[poisoned_nodes] = config.target_class
        split = SplitIndices(
            train=np.union1d(working.split.train, poisoned_nodes),
            val=working.split.val,
            test=working.split.test,
        )

        weight = self._train_surrogate(working, labels, split.train, rng, cache)

        # Per-step sampling generators are SeedSequence-derived from one draw
        # of the caller's stream: the exhaustive reference consumes exactly
        # the same draw, so both paths leave `rng` in an identical state and
        # downstream condensation stays bit-comparable.
        sampling_seed = int(rng.integers(2**63 - 1))
        step_rngs = spawn_rngs(sampling_seed, config.flip_steps)

        flips: Dict[int, Tuple[int, int]] = {}
        per_step = -(-config.edge_budget // config.flip_steps)  # ceil division
        for step, step_rng in enumerate(step_rngs):
            quota = min(per_step, config.edge_budget - len(flips))
            if quota <= 0:
                break
            current = self._flipped_view(working, flips, labels, split)
            chosen = self.propose_flips(
                current, labels, split.train, weight, step_rng, quota, cache=cache
            )
            for linear, row, col in chosen:
                if linear in flips:
                    del flips[linear]
                else:
                    flips[linear] = (row, col)
            logger.debug(
                "prbcd step %d: %d toggles accepted (%d/%d budget used)",
                step,
                len(chosen),
                len(flips),
                config.edge_budget,
            )

        final = self._flipped_view(working, flips, labels, split)
        if not isinstance(final, GraphView):
            final = final.with_(labels=labels, split=split)
        condensed = condenser.condense(final, rng)
        condensed.method = condenser.name
        condensed.metadata["poisoned_nodes"] = float(poisoned_nodes.size)
        condensed.metadata["flipped_edges"] = float(len(flips))
        pattern = np.asarray(
            _gather_rows(working.features, poisoned_nodes).mean(axis=0)
        )
        return condensed, pattern

    # -------------------------------------------------------------- #
    # One sampled step (public: benchmarks and the peak-RSS test drive it)
    # -------------------------------------------------------------- #
    def propose_flips(
        self,
        graph_like,
        labels: np.ndarray,
        train: np.ndarray,
        weight: np.ndarray,
        step_rng: np.random.Generator,
        quota: int,
        cache: PropagationCache | None = None,
    ) -> List[Tuple[int, int, int]]:
        """Sample, score and select one step's edge toggles.

        Returns up to ``quota`` winning toggles as ``(linear, row, col)``
        tuples, ordered by descending gain with the linear pair index as the
        deterministic tie-break.  ``graph_like`` is the current poisoned
        graph (base graph or flip view); ``labels`` are the attacker's
        targets over the ``train`` index.  Never materialises anything
        proportional to the candidate space: the block is ``block_size``
        indices, scoring gathers only the block's endpoint rows, and the
        ``(n, C)`` gradient/message matrices are the largest allocations.
        """
        if cache is None:
            cache = get_default_cache()
        config = self.config
        n = graph_like.num_nodes
        total = num_candidate_pairs(n)
        if total == 0:
            return []
        candidates = self._sample_block(step_rng, total)
        grad, message = self._attack_state(graph_like, labels, train, weight, cache)
        rows, cols = decode_pairs(candidates, n)
        existing = edges_exist(graph_like.adjacency, rows, cols)
        inner = (grad[rows] * message[cols]).sum(axis=1)
        inner += (grad[cols] * message[rows]).sum(axis=1)
        direction = np.where(existing, -1.0, 1.0)
        gain = -(inner * direction)
        order = np.lexsort((candidates, -gain))
        chosen: List[Tuple[int, int, int]] = []
        for position in order[: max(quota, 0)]:
            if gain[position] <= 0.0:
                break
            chosen.append(
                (int(candidates[position]), int(rows[position]), int(cols[position]))
            )
        return chosen

    # -------------------------------------------------------------- #
    # Internals
    # -------------------------------------------------------------- #
    def _sample_block(self, step_rng: np.random.Generator, total: int) -> np.ndarray:
        """The step's candidate pair indices, sorted ascending.

        A block covering the whole space — and the exhaustive reference —
        returns ``arange(total)`` without consuming the step generator, so
        the two paths enumerate identical candidates.
        """
        config = self.config
        if config.exhaustive or config.block_size >= total:
            if total > MAX_EXHAUSTIVE_PAIRS:
                raise AttackError(
                    f"exhaustive enumeration of {total} candidate pairs refused "
                    f"(limit {MAX_EXHAUSTIVE_PAIRS}); use the sampled path with "
                    "a bounded block_size"
                )
            return np.arange(total, dtype=np.int64)
        # Rejection sampling without replacement: never allocates O(total),
        # which an index permutation would at billions of candidate pairs.
        seen: set = set()
        picked: List[int] = []
        while len(picked) < config.block_size:
            draw = step_rng.integers(
                0, total, size=config.block_size - len(picked), dtype=np.int64
            )
            for value in draw.tolist():
                if value not in seen:
                    seen.add(value)
                    picked.append(value)
        return np.sort(np.asarray(picked, dtype=np.int64))

    def _attack_state(
        self,
        graph_like,
        labels: np.ndarray,
        train: np.ndarray,
        weight: np.ndarray,
        cache: PropagationCache,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(G, M)`` of the scoring model for the current poisoned topology.

        ``G`` is the ``(n, C)`` loss gradient at the logits (zero outside the
        train set), ``M`` the ``(n, C)`` hop-``K-1`` messages projected
        through the surrogate weight.  Both reads ride
        ``propagated_view`` / streamed projections, so blocked chains and
        flip views alike are served without an ``(n, F)`` materialisation.
        """
        config = self.config
        n = graph_like.num_nodes
        train = np.asarray(train, dtype=np.int64)
        propagated = cache.propagated_view(graph_like, config.surrogate_hops)
        logits = _streamed_logits(propagated, train, weight)
        grad_train = _softmax(logits)
        grad_train[np.arange(train.size), labels[train]] -= 1.0
        grad_train /= max(train.size, 1)
        grad = np.zeros((n, weight.shape[1]), dtype=np.float64)
        grad[train] = grad_train
        if config.surrogate_hops == 1:
            message_source = graph_like.features
        else:
            message_source = cache.propagated_view(
                graph_like, config.surrogate_hops - 1
            )
        message = _project_columns(message_source, weight)
        return grad, message

    def _flipped_view(
        self,
        working: GraphData,
        flips: Dict[int, Tuple[int, int]],
        labels: np.ndarray,
        split: SplitIndices,
    ):
        """The current poisoned graph: a flip overlay, or ``working`` itself.

        With no flips yet the base graph is returned unchanged (labels/split
        are threaded separately), so step 0 scores against the cached base
        chain instead of building a spurious empty view.
        """
        if not flips:
            return working
        linear = np.array(sorted(flips), dtype=np.int64)
        rows, cols = decode_pairs(linear, working.num_nodes)
        adjacency, changed = toggle_edges(working.adjacency, rows, cols)
        return GraphView(
            base=working,
            adjacency=adjacency,
            overlay_features=np.empty((0, working.num_features), dtype=np.float64),
            labels=labels,
            split=split,
            changed_nodes=changed,
            name=f"{working.name}-prbcd",
            overlay_key=("prbcd", tuple(linear.tolist())),
        )

    def _train_surrogate(
        self,
        working: GraphData,
        labels: np.ndarray,
        train: np.ndarray,
        rng: np.random.Generator,
        cache: PropagationCache,
    ) -> np.ndarray:
        """Linear SGC surrogate trained on the attacker's flipped labels.

        Every step's messages read hop ``K-1`` whole, so the chain that
        materialises hop ``K`` here keeps it too (one chain, not two).
        """
        config = self.config
        propagated = cache.propagated(
            working, config.surrogate_hops, keep=(config.surrogate_hops - 1,)
        )
        return fit_linear_surrogate(
            _gather_rows(propagated, train), labels[train], working.num_classes,
            config.surrogate_steps, config.surrogate_lr, rng,
        )
