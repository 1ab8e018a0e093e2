"""Zero-copy poisoned-graph views.

The BGC attack loop builds a *fresh* poisoned graph every epoch: the base
graph plus a handful of trigger blocks.  Materialising that graph as a
:class:`~repro.graph.data.GraphData` pays an ``(N + P·t, F)`` feature
``vstack`` per epoch — at Cora scale a ~31 MB copy that dominates trigger
attachment (see ROADMAP §Performance).  This module removes the copy:

* :class:`StackedFeatures` — the poisoned feature matrix as two stacked
  blocks (the base's ``(N, F)`` array, shared read-only, plus the ``(P·t, F)``
  trigger overlay).  Row gathers cross the block boundary transparently;
  nothing is concatenated until someone explicitly asks for
  :meth:`~StackedFeatures.materialize`.
* :class:`GraphView` — a graph object that quacks like ``GraphData`` for the
  propagation/condensation stack (``adjacency``, ``features``, ``labels``,
  ``split``, ``version``, ``derivation``) but overlays trigger rows/edges on
  a base graph without copying it.  Its adjacency *is* materialised — the
  CSR surgery of :func:`~repro.graph.subgraph.attach_trigger_adjacency` is
  cheap — while features stay stacked.
* :class:`PropagatedView` — the propagated features ``Â'^K X'`` of a derived
  graph in difference form: the base graph's cached product plus the dirty
  rows that differ from it.  Consumers that only gather a few rows (the
  condensers read the training set) never touch the other ``N`` rows, so the
  per-epoch ``(N, F)`` result materialisation disappears as well.

:class:`~repro.graph.cache.PropagationCache` keys views by
``(base version, overlay token)`` — see :attr:`GraphView.cache_key` — and
every trigger attachment goes through :func:`poison_graph_view` — the
attacks' per-epoch poisoned graphs and the triggered test graph.
:meth:`GraphView.materialize` recovers a plain delta-carrying ``GraphData``
and is the pinned reference path for the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphValidationError
from repro.graph.data import GraphData, GraphDelta, next_version
from repro.graph.splits import SplitIndices
from repro.graph.subgraph import attach_trigger_adjacency


def _as_row_index(rows, num_rows: int) -> np.ndarray:
    """Coerce a row selector to a bounds-checked int64 index array.

    Matches ndarray indexing semantics so the view types are safe drop-ins:
    boolean masks go through ``flatnonzero`` (a blind int64 cast would turn
    an ``(N,)`` mask into 0/1 indices), negative indices wrap relative to
    ``num_rows`` (a raw negative index would silently misroute across the
    base/overlay block boundary), and out-of-range indices raise
    ``IndexError`` exactly like numpy.
    """
    rows = np.asarray(rows)
    if rows.dtype == np.bool_:
        if rows.shape != (num_rows,):
            raise IndexError(
                f"boolean mask of shape {rows.shape} does not match view "
                f"with {num_rows} rows"
            )
        return np.flatnonzero(rows)
    rows = rows.astype(np.int64, copy=False)
    if rows.size:
        rows = np.where(rows < 0, rows + num_rows, rows)
        lo, hi = rows.min(), rows.max()
        if lo < 0 or hi >= num_rows:
            raise IndexError(
                f"row index out of bounds for view with {num_rows} rows"
            )
    return rows


def _cached_array(array: np.ndarray, dtype, copy) -> np.ndarray:
    """``__array__`` over a cached matrix: the cache itself unless ``dtype``
    differs or ``copy`` asks for a copy (``np.asarray(view, np.float64)``
    must not duplicate an ``(N, F)`` matrix that is already float64)."""
    if dtype is not None and np.dtype(dtype) != array.dtype:
        return array.astype(dtype)
    return array.copy() if copy else array


class StackedFeatures:
    """A feature matrix of vertically stacked blocks, gathered without a vstack.

    Behaves like a read-only ``(N + M, F)`` float64 array for the access
    patterns the propagation stack actually uses: ``shape`` / ``ndim`` /
    ``dtype``, row gathers by integer or index array, and ``np.asarray``
    coercion (which materialises, once, caching the result).  The base block
    is *shared* with the host graph — treat both blocks as read-only, exactly
    like cached propagation products.
    """

    __slots__ = ("base", "overlay", "_materialized")

    def __init__(self, base: np.ndarray, overlay: np.ndarray) -> None:
        self.base = np.asarray(base, dtype=np.float64)
        self.overlay = np.asarray(overlay, dtype=np.float64)
        if self.base.ndim != 2 or self.overlay.ndim != 2:
            raise GraphValidationError(
                f"stacked blocks must be 2-D, got {self.base.shape} and "
                f"{self.overlay.shape}"
            )
        if self.base.shape[1] != self.overlay.shape[1]:
            raise GraphValidationError(
                f"overlay feature dim {self.overlay.shape[1]} does not match "
                f"base dim {self.base.shape[1]}"
            )
        self._materialized: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Array-protocol surface
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """``(N + M, F)`` — base rows plus overlay rows."""
        return (self.base.shape[0] + self.overlay.shape[0], self.base.shape[1])

    @property
    def ndim(self) -> int:
        """Always 2 (a feature matrix)."""
        return 2

    @property
    def dtype(self) -> np.dtype:
        """float64, matching :class:`~repro.graph.data.GraphData` features."""
        return self.base.dtype

    def __len__(self) -> int:
        return self.shape[0]

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` (an integer index array or boolean mask) as a fresh
        ``(len(rows), F)`` array.

        Indices below the base block's height read the base; the rest read
        the overlay.  Cost is proportional to ``len(rows)``, never to ``N``.
        """
        rows = _as_row_index(rows, self.shape[0])
        n_base = self.base.shape[0]
        out = np.empty((rows.size, self.base.shape[1]), dtype=np.float64)
        in_base = rows < n_base
        out[in_base] = self.base[rows[in_base]]
        out[~in_base] = self.overlay[rows[~in_base] - n_base]
        return out

    def __getitem__(self, index):
        """Row selection: an int returns one ``(F,)`` row, an array a gather.

        Slices and tuple (2-D) indices fall back to the materialised array,
        so ndarray semantics are preserved rather than silently misread as
        row gathers.
        """
        if isinstance(index, (int, np.integer)):
            return self.gather(np.array([index]))[0]
        if isinstance(index, (slice, tuple)):
            return self.materialize()[index]
        return self.gather(index)

    def materialize(self) -> np.ndarray:
        """The full ``(N + M, F)`` vstack (computed once, then cached)."""
        if self._materialized is None:
            self._materialized = np.vstack([self.base, self.overlay])
        return self._materialized

    def __array__(self, dtype=None, copy=None):
        return _cached_array(self.materialize(), dtype, copy)

    def __repr__(self) -> str:
        return (
            f"StackedFeatures(base={self.base.shape}, overlay={self.overlay.shape})"
        )


class PropagatedView:
    """``Â'^K X'`` of a derived graph as base product + dirty-row overlay.

    Produced by :meth:`repro.graph.cache.PropagationCache.propagated_view`.
    Row gathers resolve against ``dirty_values`` for recomputed rows and the
    (shared, read-only) ``base_product`` for everything else; the full matrix
    is only assembled if :meth:`materialize` is called.
    """

    __slots__ = ("base_product", "dirty_rows", "dirty_values", "_num_rows",
                 "_dirty_position", "_materialized")

    def __init__(
        self,
        base_product: np.ndarray,
        dirty_rows: np.ndarray,
        dirty_values: np.ndarray,
        num_rows: int,
    ) -> None:
        self.base_product = base_product
        self.dirty_rows = np.asarray(dirty_rows, dtype=np.int64)
        self.dirty_values = np.asarray(dirty_values, dtype=np.float64)
        self._num_rows = int(num_rows)
        if self.dirty_values.shape[0] != self.dirty_rows.size:
            raise GraphValidationError(
                f"{self.dirty_rows.size} dirty rows but "
                f"{self.dirty_values.shape[0]} value rows"
            )
        if num_rows < base_product.shape[0]:
            raise GraphValidationError(
                f"view has {num_rows} rows but base product has "
                f"{base_product.shape[0]}; deltas may only append rows"
            )
        # Row -> position in dirty_values (-1 = clean, read the base product).
        self._dirty_position = np.full(self._num_rows, -1, dtype=np.int64)
        self._dirty_position[self.dirty_rows] = np.arange(self.dirty_rows.size)
        self._materialized: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, int]:
        """``(N', F)`` of the full propagated matrix this view represents."""
        return (self._num_rows, self.base_product.shape[1])

    @property
    def ndim(self) -> int:
        """Always 2 (a propagated feature matrix)."""
        return 2

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` (an integer index array or boolean mask) of the
        propagated matrix, cost ∝ ``len(rows)``."""
        rows = _as_row_index(rows, self._num_rows)
        position = self._dirty_position[rows]
        out = np.empty((rows.size, self.base_product.shape[1]), dtype=np.float64)
        clean = position < 0
        out[clean] = self.base_product[rows[clean]]
        out[~clean] = self.dirty_values[position[~clean]]
        return out

    def __getitem__(self, index):
        """Row selection mirroring :meth:`StackedFeatures.__getitem__`."""
        if isinstance(index, (int, np.integer)):
            return self.gather(np.array([index]))[0]
        if isinstance(index, (slice, tuple)):
            return self.materialize()[index]
        return self.gather(index)

    def materialize(self) -> np.ndarray:
        """The full ``(N', F)`` propagated matrix (computed once, cached)."""
        if self._materialized is None:
            result = np.empty(self.shape, dtype=np.float64)
            n_base = self.base_product.shape[0]
            result[:n_base] = self.base_product
            if self._num_rows > n_base:
                result[n_base:] = 0.0
            result[self.dirty_rows] = self.dirty_values
            self._materialized = result
        return self._materialized

    def __array__(self, dtype=None, copy=None):
        return _cached_array(self.materialize(), dtype, copy)

    def __repr__(self) -> str:
        return (
            f"PropagatedView(shape={self.shape}, dirty_rows={self.dirty_rows.size})"
        )


class GraphView:
    """A poisoned-graph overlay on a base :class:`~repro.graph.data.GraphData`.

    The view owns its (cheaply rebuilt) adjacency and its labels/split, but
    its feature matrix is a :class:`StackedFeatures` sharing the base's rows.
    It satisfies the same read contract ``GraphData`` does for the
    propagation and condensation stack — ``adjacency`` / ``features`` /
    ``labels`` / ``split`` / ``version`` / ``derivation`` plus the shape
    properties — and is immutable by the same convention.

    Parameters
    ----------
    base:
        The host graph: an attack's training view, or the full graph whose
        test nodes the ASR evaluation triggers (and only predicts on).
    adjacency:
        ``(N + M, N + M)`` derived adjacency (base nodes keep their ids as a
        prefix, overlay nodes are appended).
    overlay_features:
        ``(M, F)`` features of the appended nodes.
    labels:
        ``(N + M,)`` labels of the derived graph.
    split:
        Train/val/test indices of the derived graph (defaults to the base's).
    changed_nodes:
        Pre-existing nodes whose incident edges differ from the base — the
        :class:`~repro.graph.data.GraphDelta` contract set.
    overlay_key:
        Optional hashable token identifying the overlay *content*.  Views of
        the same base sharing an ``overlay_key`` share cache entries in
        :class:`~repro.graph.cache.PropagationCache`; by default every view
        gets a unique token (the attack loop never repeats an overlay).
    """

    #: Lets duck-typed consumers pick the zero-copy code path without
    #: importing this module (``getattr(graph, "is_view", False)``).
    is_view = True
    #: A view is never split into a training view again.
    inductive = False

    def __init__(
        self,
        base: GraphData,
        adjacency: sp.spmatrix,
        overlay_features: np.ndarray,
        labels: np.ndarray,
        split: SplitIndices | None = None,
        changed_nodes: np.ndarray | None = None,
        name: str | None = None,
        metadata: Dict[str, float] | None = None,
        overlay_key=None,
    ) -> None:
        if getattr(base, "is_view", False):
            raise GraphValidationError(
                "GraphView bases must be materialised GraphData instances; "
                "stack overlays into one view instead of chaining views"
            )
        self.base = base
        self.adjacency = adjacency.tocsr()
        self.features = StackedFeatures(base.features, overlay_features)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.split = split if split is not None else base.split
        self.name = name if name is not None else f"{base.name}-view"
        self.metadata = dict(metadata) if metadata is not None else dict(base.metadata)
        if changed_nodes is None:
            changed_nodes = np.empty(0, dtype=np.int64)
        self.derivation = GraphDelta(base=base, changed_nodes=changed_nodes)
        self.version = next_version()
        self.cache_key = (
            base.version,
            overlay_key if overlay_key is not None else ("view", self.version),
        )
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation and shape properties (mirrors GraphData)
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`GraphValidationError` if the view is inconsistent."""
        n = self.adjacency.shape[0]
        if self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise GraphValidationError(
                f"adjacency must be square, got shape {self.adjacency.shape}"
            )
        if n != self.features.shape[0]:
            raise GraphValidationError(
                f"adjacency has {n} rows but stacked features have "
                f"{self.features.shape[0]}"
            )
        if n < self.base.num_nodes:
            raise GraphValidationError(
                f"view has {n} nodes but its base has {self.base.num_nodes}; "
                "overlays may only append nodes"
            )
        if self.labels.shape != (n,):
            raise GraphValidationError(
                f"labels must have shape ({n},), got {self.labels.shape}"
            )

    @property
    def num_nodes(self) -> int:
        """Total node count: base nodes plus appended overlay nodes."""
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.adjacency.nnz // 2)

    @property
    def num_features(self) -> int:
        """Feature dimensionality (same as the base graph's)."""
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        """Number of label classes, inferred as ``labels.max() + 1``."""
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def degrees(self) -> np.ndarray:
        """Return the (out-)degree of every node."""
        return np.asarray(self.adjacency.sum(axis=1)).reshape(-1)

    # ------------------------------------------------------------------ #
    # Materialisation (the pinned reference path)
    # ------------------------------------------------------------------ #
    def materialize(self) -> GraphData:
        """The equivalent delta-carrying :class:`~repro.graph.data.GraphData`.

        Pays the feature vstack this view exists to avoid — used by the
        equivalence tests and by consumers (model training) that need a
        contiguous feature array.
        """
        return self.base.with_delta(
            self.derivation.changed_nodes,
            adjacency=self.adjacency,
            features=self.features.materialize(),
            labels=self.labels.copy(),
            split=self.split.copy(),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:
        return (
            f"GraphView(base={self.base.name!r}, nodes={self.num_nodes}, "
            f"overlay={self.features.overlay.shape[0]}, version={self.version})"
        )


def poison_graph_view(
    base: GraphData,
    target_nodes: np.ndarray,
    trigger_features: np.ndarray,
    trigger_adjacency: np.ndarray,
    labels: np.ndarray | None = None,
    trigger_label: int = 0,
    split: SplitIndices | None = None,
    name: str | None = None,
    metadata: Dict[str, float] | None = None,
    overlay_key=None,
) -> GraphView:
    """Attach one trigger block per target node as a poisoned-graph view.

    Equivalent in content to the materialised attachment (CSR surgery, a
    feature vstack and :meth:`GraphData.with_delta`, pinned in
    ``tests/reference/subgraph.py``) — same adjacency, same delta
    (``target_nodes``) — but the ``(N + P·t, F)`` feature matrix stays a
    :class:`StackedFeatures`, so no vstack is paid.

    Parameters
    ----------
    base:
        Host graph.
    target_nodes:
        ``(P,)`` nodes to poison.
    trigger_features / trigger_adjacency:
        ``(P, t, d)`` trigger features and ``(P, t, t)`` internal structure,
        as produced by a trigger generator.
    labels:
        Host-node label vector ``(N,)`` (an attack typically passes its
        target-class-flipped labels; defaults to the base labels).  A full
        ``(N + P·t,)`` vector is also accepted and used as-is.
    trigger_label:
        Class assigned to every appended trigger node when ``labels`` is a
        host-length vector (attacks pass their target class).
    split / name / metadata / overlay_key:
        Forwarded to :class:`GraphView`.

    Returns
    -------
    The :class:`GraphView`, with the per-target trigger-node indices attached
    as ``view.trigger_node_index`` (shape ``(P, t)``).
    """
    target_nodes = np.asarray(target_nodes, dtype=np.int64)
    trigger_features = np.asarray(trigger_features, dtype=np.float64)
    if trigger_features.ndim != 3:
        raise GraphValidationError(
            f"trigger_features must have shape (P, t, d), got {trigger_features.shape}"
        )
    if trigger_features.shape[2] != base.num_features:
        raise GraphValidationError(
            f"trigger feature dim {trigger_features.shape[2]} does not match "
            f"graph dim {base.num_features}"
        )
    new_adjacency, trigger_node_index = attach_trigger_adjacency(
        base.adjacency, target_nodes, trigger_adjacency
    )
    num_targets, trigger_size = trigger_features.shape[:2]
    overlay = trigger_features.reshape(num_targets * trigger_size, base.num_features)
    labels = np.asarray(labels if labels is not None else base.labels, dtype=np.int64)
    if labels.shape[0] == base.num_nodes:
        labels = np.concatenate(
            [labels, np.full(overlay.shape[0], trigger_label, dtype=np.int64)]
        )
    view = GraphView(
        base=base,
        adjacency=new_adjacency,
        overlay_features=overlay,
        labels=labels,
        split=split,
        changed_nodes=target_nodes,
        name=name if name is not None else f"{base.name}-poisoned",
        metadata=metadata,
        overlay_key=overlay_key,
    )
    view.trigger_node_index = trigger_node_index
    return view
