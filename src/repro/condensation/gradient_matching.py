"""Gradient-matching graph condensation (DC / GCond family).

The condensed graph is optimised so that the gradient of a surrogate SGC
model's training loss on the *synthetic* graph matches the gradient on the
*original* (possibly poisoned) graph, class by class (Eq. 6 of the paper).

Because the surrogate is linear in its weight matrix ``W``, the parameter
gradient has the closed form ``H^T (softmax(H W) - Y) / n`` with ``H`` the
propagated features.  The synthetic-side gradient is therefore expressed as a
*forward* computation in the autograd engine, and a single backward pass
yields the gradient of the matching loss w.r.t. the synthetic features (and
the structure generator), avoiding any double-backward machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.autograd import Adam, Linear, Module, Parameter, Tensor
from repro.autograd import functional as F
from repro.condensation.base import (
    CondensationConfig,
    CondensedGraph,
    Condenser,
)
from repro.exceptions import CondensationError
from repro.graph.cache import PropagationCache, get_default_cache
from repro.graph.data import GraphData
from repro.utils.logging import get_logger

logger = get_logger("condensation.gradient_matching")


# --------------------------------------------------------------------- #
# Numpy-side helpers (real-graph gradients are constants w.r.t. S)
# --------------------------------------------------------------------- #
def per_class_model_gradient(
    propagated: np.ndarray,
    labels: np.ndarray,
    weight: np.ndarray,
    index: np.ndarray,
    num_classes: int,
) -> np.ndarray:
    """Closed-form gradient of the CE loss of a linear model w.r.t. ``weight``.

    Parameters
    ----------
    propagated:
        ``(N, d)`` propagated feature matrix ``H``.
    labels:
        ``(N,)`` integer labels.
    weight:
        ``(d, C)`` current surrogate weight.
    index:
        Node subset over which the loss is computed.
    num_classes:
        Total number of classes ``C``.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        return np.zeros_like(weight)
    h = propagated[index]
    logits = h @ weight
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    targets = np.zeros_like(probs)
    targets[np.arange(index.size), labels[index]] = 1.0
    return h.T @ (probs - targets) / index.size


def all_class_model_gradients(
    propagated: np.ndarray,
    labels: np.ndarray,
    weight: np.ndarray,
    index: np.ndarray,
    num_classes: int,
) -> Dict[int, np.ndarray]:
    """Vectorised counterpart of :func:`per_class_model_gradient` for all classes.

    The softmax residual ``softmax(HW) - Y`` is computed in a single pass
    over every node in ``index``; the per-class gradients are then derived
    with masked segment-sums (one contiguous slice per class after a stable
    sort by label) instead of ``C`` separate logits/softmax passes.  Rows are
    processed in the same relative order as the per-class routine, so the
    results agree to floating-point round-off.

    Returns a mapping ``class -> (d, C)`` gradient covering exactly the
    classes present in ``labels[index]``.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size == 0:
        return {}
    from repro.graph.blocked import BlockedArray

    if isinstance(propagated, BlockedArray):
        return _blocked_all_class_model_gradients(
            propagated, labels, weight, index, num_classes
        )
    h = propagated[index]
    logits = h @ weight
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    residual = logits
    residual /= residual.sum(axis=1, keepdims=True)
    index_labels = labels[index]
    residual[np.arange(index.size), index_labels] -= 1.0

    # Stable sort keeps each class's rows in their original relative order,
    # making every per-class slice bit-identical to the scalar routine.
    order = np.argsort(index_labels, kind="stable")
    sorted_labels = index_labels[order]
    h_sorted = h[order]
    residual_sorted = residual[order]
    boundaries = np.searchsorted(sorted_labels, np.arange(num_classes + 1))
    gradients: Dict[int, np.ndarray] = {}
    for cls in range(num_classes):
        start, stop = boundaries[cls], boundaries[cls + 1]
        if start == stop:
            continue
        gradients[cls] = (
            h_sorted[start:stop].T @ residual_sorted[start:stop] / (stop - start)
        )
    return gradients


def _blocked_all_class_model_gradients(
    propagated,
    labels: np.ndarray,
    weight: np.ndarray,
    index: np.ndarray,
    num_classes: int,
) -> Dict[int, np.ndarray]:
    """:func:`all_class_model_gradients` over a blocked hop product.

    Never gathers the full ``(len(index), d)`` row matrix: the logits pass
    streams one row block at a time, and each per-class gradient gathers only
    that class's rows (bounded by the largest class, not the training set).
    When the product holds a single block the arithmetic — gather, GEMM
    shapes, division — is identical to the dense routine, so results are
    bit-identical there; multi-block runs agree to round-off.
    """
    logits = np.empty((index.size, weight.shape[1]), dtype=np.float64)
    for start, _, block in propagated.blocks():
        mask = (index >= start) & (index < start + block.shape[0])
        if not mask.any():
            continue
        logits[mask] = block[index[mask] - start] @ weight
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    residual = logits
    residual /= residual.sum(axis=1, keepdims=True)
    index_labels = labels[index]
    residual[np.arange(index.size), index_labels] -= 1.0

    order = np.argsort(index_labels, kind="stable")
    sorted_labels = index_labels[order]
    sorted_index = index[order]
    residual_sorted = residual[order]
    boundaries = np.searchsorted(sorted_labels, np.arange(num_classes + 1))
    gradients: Dict[int, np.ndarray] = {}
    for cls in range(num_classes):
        start, stop = boundaries[cls], boundaries[cls + 1]
        if start == stop:
            continue
        class_rows = propagated.gather(sorted_index[start:stop])
        gradients[cls] = class_rows.T @ residual_sorted[start:stop] / (stop - start)
    return gradients


def closed_form_surrogate_steps(
    propagated: np.ndarray,
    labels: np.ndarray,
    weight: np.ndarray,
    first_moment: np.ndarray,
    second_moment: np.ndarray,
    start_step: int,
    steps: int,
    lr: float,
) -> float:
    """``steps`` closed-form CE/Adam updates of a linear surrogate, in place.

    The surrogate is linear in ``weight``, so the cross-entropy gradient has
    the closed form ``H^T (softmax(HW) - Y) / n`` — no autograd graph is
    built.  ``weight`` and the Adam moment buffers are updated in place;
    ``start_step`` continues the bias-correction counter, which is what lets
    callers batch one surrogate optimisation across attack epochs (the BGC
    warm start and ``GradientMatchingCondenser.train_surrogate`` both drive
    this loop).  Returns the last step's loss.
    """
    count = labels.size
    row_index = np.arange(count)
    targets = np.zeros((count, weight.shape[1]))
    targets[row_index, labels] = 1.0
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    loss_value = np.nan
    for step in range(start_step + 1, start_step + steps + 1):
        logits = propagated @ weight
        logits -= logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(logits).sum(axis=1, keepdims=True))
        loss_value = float(-np.mean(logits[row_index, labels] - log_norm[:, 0]))
        gradient = propagated.T @ (np.exp(logits - log_norm) - targets)
        gradient /= count
        first_moment *= beta1
        first_moment += (1.0 - beta1) * gradient
        second_moment *= beta2
        second_moment += (1.0 - beta2) * np.square(gradient)
        m_hat = first_moment / (1.0 - beta1**step)
        v_hat = second_moment / (1.0 - beta2**step)
        weight -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return loss_value


def gradient_distance(real: np.ndarray, synthetic: Tensor, metric: str = "cosine") -> Tensor:
    """Distance between a constant real gradient and a synthetic-gradient tensor.

    ``cosine`` sums ``1 - cos(column_i(real), column_i(synthetic))`` over output
    columns (the distance used by GCond); ``euclidean`` is the squared
    Frobenius distance.
    """
    real_tensor = Tensor(np.asarray(real, dtype=np.float64))
    if metric == "euclidean":
        diff = synthetic - real_tensor
        return (diff * diff).sum()
    if metric != "cosine":
        raise CondensationError(f"unknown gradient distance {metric!r}")
    eps = 1e-10
    dot = (synthetic * real_tensor).sum(axis=0)
    real_norm = np.sqrt((np.asarray(real) ** 2).sum(axis=0)) + eps
    syn_norm = ((synthetic * synthetic).sum(axis=0) + eps) ** 0.5
    cosine = dot / (syn_norm * Tensor(real_norm))
    ones = Tensor(np.ones_like(real_norm))
    return (ones - cosine).sum()


def normalize_dense_tensor(adjacency: Tensor) -> Tensor:
    """Differentiable GCN normalisation ``D^{-1/2}(A+I)D^{-1/2}`` of a dense tensor."""
    n = adjacency.shape[0]
    with_loops = adjacency + Tensor(np.eye(n))
    degrees = with_loops.sum(axis=1, keepdims=True)
    inv_sqrt = (degrees + 1e-12) ** -0.5
    return with_loops * inv_sqrt * inv_sqrt.T


class StructureGenerator(Module):
    """Generates the condensed adjacency from the synthetic features.

    GCond parameterises ``A'_{ij} = σ(MLP_φ([x'_i ; x'_j]))``; this
    implementation uses the symmetric low-rank form
    ``A' = σ(E E^T / sqrt(k))`` with ``E = MLP_φ(X')`` which keeps the same
    differentiable coupling between features and structure while avoiding the
    quadratic pair construction (documented in ``DESIGN.md``).
    """

    #: Logit offset subtracted from the pairwise scores.  Without it a freshly
    #: initialised generator outputs ``σ(≈0) ≈ 0.5`` for every pair, i.e. a
    #: near-complete condensed graph that over-smooths downstream GNNs.  The
    #: offset starts the structure sparse and lets matching add edges back.
    score_bias = 2.0

    def __init__(self, num_features: int, hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.encoder1 = Linear(num_features, hidden, rng=rng)
        self.encoder2 = Linear(hidden, hidden, rng=rng)
        self.hidden = hidden

    def forward(self, features: Tensor) -> Tensor:
        embedding = F.relu(self.encoder1(features))
        embedding = self.encoder2(embedding)
        scores = embedding.matmul(embedding.T) * (1.0 / np.sqrt(self.hidden))
        adjacency = F.sigmoid(scores - self.score_bias)
        # Remove self-loops; normalisation re-adds a unit self-loop explicitly.
        mask = Tensor(1.0 - np.eye(features.shape[0]))
        return adjacency * mask


@dataclass
class _SyntheticState:
    """Internal mutable state of a gradient-matching run."""

    features: Parameter
    labels: np.ndarray
    class_index: Dict[int, np.ndarray]
    surrogate_weight: Parameter
    structure_generator: StructureGenerator | None
    feature_optimizer: Adam
    structure_optimizer: Adam | None
    #: Persistent Adam moments of the surrogate — (m, v, step) — carried
    #: across ``epoch_step`` calls when ``surrogate_warm_start`` is set.
    surrogate_moments: tuple | None = None
    #: Total surrogate steps taken since the last (re-)initialisation.
    surrogate_steps_done: int = 0


class GradientMatchingCondenser(Condenser):
    """Shared machinery for DC-Graph, GCond and GCond-X.

    Subclasses toggle two switches:

    * ``use_structure`` — learn a condensed adjacency (GCond) or keep the
      identity (DC-Graph, GCond-X);
    * ``propagate_real`` — whether the real-graph features are propagated
      through the (poisoned) original adjacency before matching (GCond and
      GCond-X do; DC-Graph treats features as i.i.d. samples).
    """

    name = "gradient-matching"
    use_structure = False
    propagate_real = True

    def __init__(
        self,
        config: CondensationConfig | None = None,
        cache: PropagationCache | None = None,
    ) -> None:
        super().__init__(config)
        self._graph: GraphData | None = None
        self._state: _SyntheticState | None = None
        self._rng: np.random.Generator | None = None
        # Shared by default: every condenser instance (GCond, GCond-X,
        # DC-Graph, GC-SNTK) working on the same graph version reuses one
        # propagation, and the BGC attack's per-epoch poisoned graphs are
        # updated incrementally against their common base.
        self._cache = cache if cache is not None else get_default_cache()

    # -------------------------------------------------------------- #
    # Stateful API (used directly by the BGC attack)
    # -------------------------------------------------------------- #
    def initialize(self, graph: GraphData, rng: np.random.Generator) -> None:
        """Create the synthetic graph variables for ``graph``."""
        self._graph = graph
        self._rng = rng
        budget = self._budget(graph)
        features, labels, class_index = self._init_synthetic(graph, budget, rng)
        feature_param = Parameter(features, name="synthetic_features")
        # Adam moves each coordinate by roughly the learning rate per step, so
        # the feature learning rate is scaled by the feature magnitude to keep
        # updates proportional to the data (documented in DESIGN.md).
        feature_scale = max(float(np.abs(features).mean()), 1e-8)
        feature_lr = self.config.lr_features * feature_scale
        surrogate = Parameter(
            rng.normal(scale=0.1, size=(graph.num_features, graph.num_classes)),
            name="surrogate_weight",
        )
        structure_generator: StructureGenerator | None = None
        structure_optimizer: Adam | None = None
        if self.use_structure:
            structure_generator = StructureGenerator(
                graph.num_features, self.config.structure_hidden, rng
            )
            structure_optimizer = Adam(
                structure_generator.parameters(), lr=self.config.lr_structure
            )
        self._state = _SyntheticState(
            features=feature_param,
            labels=labels,
            class_index=class_index,
            surrogate_weight=surrogate,
            structure_generator=structure_generator,
            feature_optimizer=Adam([feature_param], lr=feature_lr),
            structure_optimizer=structure_optimizer,
        )

    def reset_surrogate(self, rng: np.random.Generator | None = None) -> None:
        """Re-initialise the surrogate weight (start of every cold outer epoch)."""
        state = self._require_state()
        generator = rng if rng is not None else self._rng
        state.surrogate_weight.data = generator.normal(
            scale=0.1, size=state.surrogate_weight.data.shape
        )
        state.surrogate_moments = None
        state.surrogate_steps_done = 0

    def train_surrogate(self, steps: int | None = None) -> float:
        """Train the surrogate weight on the current synthetic graph.

        The surrogate is linear in its weight, so the CE gradient has the
        closed form ``H^T (softmax(HW) - Y) / n``.  The loop feeds that
        directly into Adam instead of building an autograd graph every step —
        the same update, an order of magnitude less per-step overhead (this
        runs once per attack epoch inside the BGC hot loop).  Under
        ``surrogate_warm_start`` the Adam moments and step counter persist on
        the state, so successive ``epoch_step`` calls continue one
        optimisation instead of restarting it.
        """
        state = self._require_state()
        steps = steps if steps is not None else self.config.surrogate_steps
        propagated = self._synthetic_propagated(detach=True).data
        weight = state.surrogate_weight.data
        # Closed-form steps (same update as repro.autograd.Adam) with reused
        # moment buffers — the optimiser-object overhead is comparable to the
        # actual flops at condensed-graph scale.
        warm = self.config.surrogate_warm_start
        if warm and state.surrogate_moments is not None:
            first_moment, second_moment = state.surrogate_moments
            start = state.surrogate_steps_done
        else:
            first_moment = np.zeros_like(weight)
            second_moment = np.zeros_like(weight)
            start = 0
        loss_value = closed_form_surrogate_steps(
            propagated, state.labels, weight, first_moment, second_moment,
            start, steps, self.config.surrogate_lr,
        )
        if warm:
            state.surrogate_moments = (first_moment, second_moment)
            state.surrogate_steps_done = start + steps
        return float(loss_value)

    def surrogate_weight(self) -> np.ndarray:
        """Current surrogate weight matrix (copy)."""
        return self._require_state().surrogate_weight.data.copy()

    def outer_step(self, real_graph: GraphData | None = None) -> float:
        """One gradient-matching update of the synthetic graph.

        ``real_graph`` defaults to the graph passed to :meth:`initialize`;
        the BGC attack passes the current *poisoned* graph instead.
        """
        state = self._require_state()
        graph = real_graph if real_graph is not None else self._graph
        if graph is None:
            raise CondensationError("outer_step called before initialize()")

        real_propagated = self._real_propagated(graph)
        weight = state.surrogate_weight.data

        state.feature_optimizer.zero_grad()
        if state.structure_optimizer is not None:
            state.structure_optimizer.zero_grad()

        synthetic_propagated = self._synthetic_propagated(detach=False)
        weight_tensor = Tensor(weight)
        # One softmax pass over every synthetic node; the per-class gradients
        # below reuse its residual through row slices (the synthetic nodes are
        # laid out class-by-class at initialisation, so the slices are
        # contiguous and backward needs no scatter).
        synthetic_logits = synthetic_propagated.matmul(weight_tensor)
        synthetic_probs = F.softmax(synthetic_logits, axis=-1)
        synthetic_residual = synthetic_probs - Tensor(
            F.one_hot(state.labels, graph.num_classes)
        )

        # One softmax/logits pass over all train nodes; per-class gradients
        # fall out as masked segment-sums (see all_class_model_gradients).
        real_grads = all_class_model_gradients(
            real_propagated, graph.labels, weight, graph.split.train, graph.num_classes
        )
        real_parts: List[np.ndarray] = []
        synthetic_parts: List[Tensor] = []
        for cls, synthetic_index in state.class_index.items():
            real_grad = real_grads.get(cls)
            if real_grad is None or synthetic_index.size == 0:
                continue
            real_parts.append(real_grad)
            synthetic_parts.append(
                self._synthetic_class_gradient(
                    synthetic_propagated, synthetic_residual, synthetic_index
                )
            )
        if not real_parts:
            raise CondensationError("no overlapping classes between real and synthetic graphs")
        # Both distance metrics are column-separable, so the per-class
        # distances collapse into one call on column-stacked gradients — one
        # pass through the autograd graph instead of C.
        total_loss = gradient_distance(
            np.hstack(real_parts),
            Tensor.concatenate(synthetic_parts, axis=1),
            self.config.distance,
        )
        total_loss.backward()
        state.feature_optimizer.step()
        if state.structure_optimizer is not None:
            state.structure_optimizer.step()
        return float(total_loss.item())

    def epoch_step(self, real_graph: GraphData | None = None) -> float:
        """One full condensation epoch: surrogate training, then matching.

        This is the hook the BGC attack drives with the current poisoned
        graph (a :class:`~repro.graph.data.GraphData` or a zero-copy
        :class:`~repro.graph.view.GraphView`).  By default every epoch
        re-initialises and fully retrains the surrogate — the paper-faithful
        reference.  With ``surrogate_warm_start`` the surrogate (weight and
        Adam moments) persists across epochs and later epochs run only
        ``surrogate_refresh_steps`` steps: the synthetic graph moves a little
        per epoch, so continuing one optimisation tracks it at a fraction of
        the retrain cost.
        """
        config = self.config
        state = self._require_state()
        if config.surrogate_warm_start and state.surrogate_steps_done > 0:
            refresh = (
                config.surrogate_refresh_steps
                if config.surrogate_refresh_steps is not None
                else config.surrogate_steps
            )
            self.train_surrogate(refresh)
        else:
            self.reset_surrogate()
            self.train_surrogate()
        return self.outer_step(real_graph)

    def synthetic(self) -> CondensedGraph:
        """Export the current synthetic graph."""
        state = self._require_state()
        graph = self._graph
        adjacency = self._export_adjacency(state)
        return CondensedGraph(
            features=state.features.data.copy(),
            labels=state.labels.copy(),
            adjacency=adjacency,
            method=self.name,
            source=graph.name if graph is not None else "unknown",
            ratio=self.config.ratio,
        )

    # -------------------------------------------------------------- #
    # One-shot clean condensation
    # -------------------------------------------------------------- #
    def condense(self, graph: GraphData, rng: np.random.Generator) -> CondensedGraph:
        """Run the full (clean) condensation loop on ``graph``."""
        working = graph.training_view() if graph.inductive else graph
        self.initialize(working, rng)
        for epoch in range(self.config.epochs):
            loss = self.epoch_step()
            if epoch % max(1, self.config.epochs // 5) == 0:
                logger.debug("%s epoch %d matching loss %.4f", self.name, epoch, loss)
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
        budget[present] = np.maximum(
            self.config.min_nodes_per_class, np.round(proportions * total).astype(np.int64)
        )
        return budget

    def _init_synthetic(
        self, graph: GraphData, budget: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
        features: List[np.ndarray] = []
        labels: List[int] = []
        class_index: Dict[int, np.ndarray] = {}
        cursor = 0
        train_index = graph.split.train
        train_labels = graph.labels[train_index]
        # Noise is scaled by the feature standard deviation so the class
        # signal of the sampled rows is perturbed, not drowned out.
        noise_scale = self.config.feature_init_noise * float(graph.features.std())
        for cls in range(graph.num_classes):
            count = int(budget[cls])
            if count == 0:
                continue
            candidates = train_index[train_labels == cls]
            if candidates.size == 0:
                continue
            chosen = rng.choice(candidates, size=count, replace=candidates.size < count)
            sampled = graph.features[chosen] + rng.normal(
                scale=noise_scale, size=(count, graph.num_features)
            )
            features.append(sampled)
            labels.extend([cls] * count)
            class_index[cls] = np.arange(cursor, cursor + count)
            cursor += count
        if not features:
            raise CondensationError("synthetic initialisation produced no nodes")
        return np.vstack(features), np.asarray(labels, dtype=np.int64), class_index

    def _real_propagated(self, graph: GraphData):
        """Propagated real features; rows are read via ``result[index]``.

        The clean condensation loop hits the shared cache's memo every epoch;
        a delta-carrying poisoned ``GraphData`` is propagated incrementally,
        and a zero-copy :class:`~repro.graph.view.GraphView` takes the
        difference-form path — the returned
        :class:`~repro.graph.view.PropagatedView` never materialises the
        ``(N, F)`` product, and :func:`all_class_model_gradients` only
        gathers the training rows from it.
        """
        if not self.propagate_real:
            return graph.features
        if getattr(graph, "is_view", False):
            return self._cache.propagated_view(graph, self.config.num_hops)
        return self._cache.propagated(graph, self.config.num_hops)

    def _synthetic_propagated(self, detach: bool) -> Tensor:
        state = self._require_state()
        features: Tensor = state.features
        if detach:
            features = features.detach()
        if not self.use_structure or state.structure_generator is None:
            return features
        adjacency = state.structure_generator(features)
        if detach:
            adjacency = adjacency.detach()
        normalized = normalize_dense_tensor(adjacency)
        hidden = features
        for _ in range(self.config.num_hops):
            hidden = normalized.matmul(hidden)
        return hidden

    @staticmethod
    def _synthetic_class_gradient(
        propagated: Tensor, residual: Tensor, index: np.ndarray
    ) -> Tensor:
        """Closed-form surrogate gradient of one class, in the autograd graph.

        ``residual`` is the shared ``softmax(HW) - Y`` tensor computed once
        per outer step; only the row selection and the ``(d, C)`` matmul are
        per-class work.
        """
        if index.size and np.all(np.diff(index) == 1):
            selector = slice(int(index[0]), int(index[-1]) + 1)
            rows = propagated[selector]
            rows_residual = residual[selector]
        else:
            rows = propagated.index_rows(index)
            rows_residual = residual.index_rows(index)
        return rows.T.matmul(rows_residual) * (1.0 / index.size)

    #: Maximum degree kept per synthetic node when exporting the learned
    #: structure.  Without a cap the sigmoid scores of a briefly-trained
    #: generator drift above the 0.5 threshold for many pairs at once, and the
    #: resulting near-complete graph over-smooths downstream GNNs.  Keeping
    #: only each node's strongest pair(s) preserves the learned-structure
    #: coupling while keeping the condensed graph sparse.
    export_max_degree = 2

    def _export_adjacency(self, state: _SyntheticState) -> np.ndarray:
        n = state.features.data.shape[0]
        if not self.use_structure or state.structure_generator is None:
            return np.eye(n)
        from repro.autograd.tensor import no_grad

        with no_grad():
            adjacency = state.structure_generator(state.features.detach()).data
        # GCond sparsifies the learned structure at export time; additionally
        # keep only each node's strongest edges (see export_max_degree).
        adjacency = np.where(adjacency >= 0.5, adjacency, 0.0)
        np.fill_diagonal(adjacency, 0.0)
        if n > self.export_max_degree:
            keep = np.zeros_like(adjacency, dtype=bool)
            top = np.argsort(-adjacency, axis=1)[:, : self.export_max_degree]
            rows = np.repeat(np.arange(n), self.export_max_degree)
            keep[rows, top.reshape(-1)] = True
            keep |= keep.T
            adjacency = np.where(keep, adjacency, 0.0)
        return adjacency

    def _require_state(self) -> _SyntheticState:
        if self._state is None:
            raise CondensationError("condenser used before initialize()")
        return self._state
