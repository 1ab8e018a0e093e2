"""The :class:`GraphData` container used throughout the library.

A ``GraphData`` bundles an adjacency matrix (scipy CSR), a dense feature
matrix, integer node labels and the train/validation/test split.  It is
immutable by convention: every transformation (poisoning, condensation,
pruning) returns a new instance.

Every instance carries a process-wide monotonic ``version`` token.  Because
instances are immutable by convention, the token identifies the *content* of
``(adjacency, features)`` and is the cache key used by
:class:`repro.graph.cache.PropagationCache` — unlike ``id()``, a version is
never reused after garbage collection.

A graph derived from an existing one records how it differs in a
:class:`GraphDelta` derivation, so propagation can recompute only the
affected K-hop neighbourhood instead of the whole graph.  Two kinds of graph
carry one: a label-only variant from :meth:`GraphData.with_` (an empty
delta), and every poisoned graph, which is a
:class:`~repro.graph.view.GraphView` overlay on its host graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphValidationError
from repro.graph.splits import SplitIndices

#: Process-wide monotonic source of :attr:`GraphData.version` tokens.
_VERSION_COUNTER = itertools.count(1)


def next_version() -> int:
    """Draw a fresh content-version token.

    Shared by :class:`GraphData` and :class:`repro.graph.view.GraphView` so
    the two kinds of graph can never collide on a
    :class:`~repro.graph.cache.PropagationCache` key.
    """
    return next(_VERSION_COUNTER)


class GraphDelta:
    """Derivation record: how a graph differs from the ``base`` it was built from.

    The contract is row-oriented and conservative:

    * the derived graph contains the base's nodes as a prefix (``0..N_base-1``)
      and may append new nodes after them;
    * ``changed_nodes`` lists every *pre-existing* node whose feature row or
      incident edge set differs from the base — for an added or removed edge
      between two pre-existing nodes, **both** endpoints must be listed
      (edges incident to appended nodes only need their pre-existing endpoint
      listed);
    * every row/column outside ``changed_nodes`` (and outside the appended
      block) is byte-identical to the base.

    Listing too many nodes is always safe (it only costs speed); listing too
    few silently corrupts incremental propagation, so callers should err on
    the conservative side.
    """

    __slots__ = ("base", "changed_nodes")

    def __init__(self, base: "GraphData", changed_nodes: np.ndarray) -> None:
        self.base = base
        self.changed_nodes = np.unique(np.asarray(changed_nodes, dtype=np.int64))
        if self.changed_nodes.size and (
            self.changed_nodes[0] < 0 or self.changed_nodes[-1] >= base.num_nodes
        ):
            raise GraphValidationError(
                f"changed_nodes out of range for base graph with {base.num_nodes} nodes"
            )

    def __repr__(self) -> str:  # keep reprs small: never print the base arrays
        return (
            f"GraphDelta(base_version={self.base.version}, "
            f"changed_nodes={self.changed_nodes.size})"
        )


@dataclass
class GraphData:
    """A node-classification graph dataset.

    Attributes
    ----------
    adjacency:
        ``(N, N)`` scipy sparse matrix, binary and symmetric for undirected
        graphs (self-loops are added during normalisation, not stored here).
    features:
        ``(N, d)`` dense float feature matrix.
    labels:
        ``(N,)`` integer class labels in ``[0, num_classes)``.
    split:
        Train / validation / test node indices.
    name:
        Human-readable dataset name.
    inductive:
        Whether the dataset uses the inductive protocol (training uses only
        the subgraph induced by the training nodes, as for Flickr / Reddit).
    """

    adjacency: sp.spmatrix
    features: np.ndarray
    labels: np.ndarray
    split: SplitIndices
    name: str = "graph"
    inductive: bool = False
    metadata: Dict[str, float] = field(default_factory=dict)
    #: Optional derivation record linking this graph to the base it was built
    #: from (see :class:`GraphDelta` and :meth:`with_`).
    derivation: Optional[GraphDelta] = field(default=None, repr=False, compare=False)
    #: Monotonic content token; assigned at construction, never reused.
    version: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.adjacency = self.adjacency.tocsr().astype(np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.version = next_version()
        self.validate()

    def __setstate__(self, state: Dict) -> None:
        """Restore a pickled graph, drawing a *fresh* version token.

        Version tokens are process-local: an unpickled graph carrying the
        exporting process's token could collide with a token this process
        has already issued (or will issue) for a completely different graph,
        and the :class:`~repro.graph.cache.PropagationCache` would silently
        serve one graph's chains for the other.  Re-issuing here restores
        the invariant that tokens are unique within a process; graphs
        pickled together (a derived graph and its base) keep their object
        identity, so derivation chains stay consistent.
        """
        self.__dict__.update(state)
        self.version = next_version()

    # -------------------------------------------------------------- #
    # Validation and basic properties
    # -------------------------------------------------------------- #
    def validate(self) -> None:
        """Raise :class:`GraphValidationError` if the container is inconsistent."""
        n = self.adjacency.shape[0]
        if self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise GraphValidationError(
                f"adjacency must be square, got shape {self.adjacency.shape}"
            )
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise GraphValidationError(
                f"features must have shape (N, d) with N={n}, got {self.features.shape}"
            )
        if self.labels.shape != (n,):
            raise GraphValidationError(
                f"labels must have shape ({n},), got {self.labels.shape}"
            )
        if self.labels.size and self.labels.min() < 0:
            raise GraphValidationError("labels must be non-negative integers")
        for split_name, index in (
            ("train", self.split.train),
            ("val", self.split.val),
            ("test", self.split.test),
        ):
            if index.size and (index.min() < 0 or index.max() >= n):
                raise GraphValidationError(
                    f"{split_name} indices out of range for graph with {n} nodes"
                )
        if self.derivation is not None and n < self.derivation.base.num_nodes:
            raise GraphValidationError(
                f"derived graph has {n} nodes but its base has "
                f"{self.derivation.base.num_nodes}; deltas may only append nodes"
            )

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.adjacency.nnz // 2)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def degrees(self) -> np.ndarray:
        """Return the (out-)degree of every node."""
        return np.asarray(self.adjacency.sum(axis=1)).reshape(-1)

    # -------------------------------------------------------------- #
    # Transformations
    # -------------------------------------------------------------- #
    def with_(self, **changes) -> "GraphData":
        """Return a copy with the given fields replaced.

        When neither ``adjacency`` nor ``features`` is replaced, the result
        shares its propagation identity with this graph: an existing
        derivation is carried over, and otherwise an empty delta against this
        graph is recorded, so :class:`~repro.graph.cache.PropagationCache`
        can serve the base's propagated features without any recomputation.
        Replacing ``adjacency`` or ``features`` drops the derivation (the
        caller no longer guarantees the delta contract); a graph that changes
        a few rows and keeps incremental propagation available is built as a
        :class:`~repro.graph.view.GraphView` instead.
        """
        if "adjacency" in changes or "features" in changes:
            changes.setdefault("derivation", None)
        elif "derivation" not in changes and self.derivation is None:
            changes["derivation"] = GraphDelta(
                base=self, changed_nodes=np.empty(0, dtype=np.int64)
            )
        return replace(self, **changes)

    def copy(self) -> "GraphData":
        """Deep copy of the graph container."""
        return GraphData(
            adjacency=self.adjacency.copy(),
            features=self.features.copy(),
            labels=self.labels.copy(),
            split=self.split.copy(),
            name=self.name,
            inductive=self.inductive,
            metadata=dict(self.metadata),
        )

    def training_view(self) -> "GraphData":
        """Return the graph visible at training time.

        For transductive datasets this is the full graph.  For inductive
        datasets (Flickr / Reddit protocol) it is the subgraph induced by the
        training nodes, relabelled to ``0..n_train-1``.
        """
        if not self.inductive:
            return self
        from repro.graph.subgraph import induced_subgraph

        sub_adj, sub_feat, sub_labels, mapping = induced_subgraph(
            self.adjacency, self.features, self.labels, self.split.train
        )
        train_idx = np.arange(len(self.split.train))
        empty = np.array([], dtype=np.int64)
        return GraphData(
            adjacency=sub_adj,
            features=sub_feat,
            labels=sub_labels,
            split=SplitIndices(train=train_idx, val=empty, test=empty),
            name=f"{self.name}-train",
            inductive=False,
            metadata={**self.metadata, "parent_nodes": float(self.num_nodes)},
        )

    def summary(self) -> Dict[str, float]:
        """Return the headline statistics used in Table I."""
        return {
            "nodes": float(self.num_nodes),
            "edges": float(self.num_edges),
            "classes": float(self.num_classes),
            "features": float(self.num_features),
            "train": float(self.split.train.size),
            "val": float(self.split.val.size),
            "test": float(self.split.test.size),
        }
