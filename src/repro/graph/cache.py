"""Version-keyed propagation cache shared across the attack / condensation stack.

The hot loop of the BGC attack drives one condensation ``epoch_step`` per
attack epoch against a freshly-built poisoned graph.  Without caching, every
epoch pays ``gcn_normalize`` plus K full sparse matmuls over the real graph —
even though the poisoned graph differs from the base graph only in a handful
of trigger-attached rows.  :class:`PropagationCache` removes that cost:

* ``gcn_normalize`` results are memoised per graph key (and, for raw scipy
  matrices handed to the model layer, per object with weakref-based eviction
  so a recycled ``id()`` can never serve stale data);
* an SGC hop chain ``[X, ÂX, ..., Â^K X]`` keeps, per graph key, hop 0 (the
  graph's own feature matrix) and, for each hop a caller asked for, a
  :class:`~repro.graph.view.PropagatedRows`: a row source that computes a
  row of ``Â^K X`` on its first read and keeps it, so a graph whose
  readers gather rows (gradient matching reads the training set) never
  holds the ``(N, F)`` product.  A caller that asks for the whole matrix
  (:meth:`PropagationCache.propagated`) materialises it once, and the row
  source keeps it.  The hops between are read at the rows an incremental
  update touches.  A blocked chain keeps every hop: its hops live on disk;
* a derived graph — a :class:`~repro.graph.view.GraphView`, or any graph
  carrying a :class:`~repro.graph.data.GraphDelta` derivation — is
  propagated **incrementally**, in *difference form*:
  :meth:`PropagationCache.propagated_view` recomputes only the K-hop closed
  neighbourhood of the changed rows and returns a
  :class:`~repro.graph.view.PropagatedView` (the base's cached product plus
  the dirty rows) without materialising the ``(N', F)`` result (see
  :mod:`repro.graph.propagation` for the math and why the result is exact,
  not approximate).  :meth:`PropagationCache.propagated` is the same product
  materialised once, by the view itself.

Keys and shards
---------------
A plain :class:`~repro.graph.data.GraphData` is keyed by its monotonic
``version`` token.  A :class:`~repro.graph.view.GraphView` is keyed by its
``cache_key`` — a ``(base version, overlay token)`` pair, so two views of the
same base carrying the *same* overlay content (matching ``overlay_key``)
share one entry, while distinct overlays can never collide.

Entries live in a **sharded LRU**: one shard per *root* graph (the end of a
graph's derivation chain, i.e. the underlying dataset), each holding at most
``max_graphs`` entries, with at most ``max_shards`` shards resident.  A
stream of derived poisoned graphs only ever churns its own dataset's shard —
several datasets (a sweep, a multi-tenant service process) coexist without
evicting each other's base chains.  Base graphs stay resident within a shard
because every incremental update refreshes their recency.  An evicted entry
releases its products: nothing outside the LRU keeps them alive.

All returned matrices are shared between callers and must be treated as
read-only.  The module-level default cache (:func:`get_default_cache`) is
what the condensers, the models layer and the evaluation pipeline share, so
e.g. a ``GCond`` and a ``GCondX`` instance condensing the same graph reuse
one propagation, as does an SNTK evaluation of that graph.

The cache is per process and never crosses a process boundary.  A pool
worker forked after the parent warmed it inherits its entries; a spawned
worker, or one that receives a dataset after it started, builds its own
(see :mod:`repro.api.parallel`).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.blocked import blocked_precompute_hops, blocked_threshold
from repro.graph.data import GraphData
from repro.graph.normalize import (
    gcn_normalize,
    incremental_gcn_normalize,
    self_loop_degrees,
)
from repro.graph.propagation import incremental_sgc_delta
from repro.graph.view import PropagatedRows, PropagatedView


def _whole(product):
    """``product`` if it is held whole, else ``None``: a row source that was
    never materialised holds only the rows read of it."""
    if isinstance(product, PropagatedRows):
        return product.materialized
    return product


def _held_chain(hops: Dict[int, object], num_hops: int) -> List[Optional[object]]:
    """``[X, ..., Â^K X]`` as an entry holds it: hop ``K`` as it is, and
    ``None`` at each hop between that is not held whole."""
    chain = [hops.get(hop) for hop in range(num_hops + 1)]
    chain[1:num_hops] = [_whole(hop) for hop in chain[1:num_hops]]
    return chain


class _Entry:
    """Cached artefacts of one graph key."""

    __slots__ = ("normalized", "degrees", "nonnegative", "hops", "views", "csr_features")

    def __init__(self) -> None:
        self.normalized: Optional[sp.csr_matrix] = None
        #: Self-loop-inclusive degree vector matching ``normalized`` — what
        #: an incremental renormalisation of a *derived* graph patches from.
        self.degrees: Optional[np.ndarray] = None
        #: Whether ``normalized`` is entry-wise non-negative (checked once);
        #: lets incremental propagation skip its O(nnz) ``abs`` copy.
        self.nonnegative: bool = False
        #: hop index -> ``Â^k X``: for a directly propagated graph, hop 0
        #: (its feature matrix) and a :class:`PropagatedRows` per requested
        #: hop, holding the rows read so far or, once materialised, the
        #: whole product (every hop ``0..K`` as a ``BlockedArray`` if the
        #: chain is blocked; a dense array for a hop kept by
        #: ``propagated(..., keep=...)``); only the final hop (the base's
        #: own product) for a label-only variant.
        self.hops: Dict[int, object] = {}
        #: hop index -> difference-form products (PropagatedView) served by
        #: :meth:`PropagationCache.propagated_view` for derived graphs.
        self.views: Dict[int, PropagatedView] = {}
        #: The feature matrix as CSR (:meth:`PropagationCache.csr_features`).
        self.csr_features: Optional[sp.csr_matrix] = None


class PropagationCache:
    """Memoises normalisation and K-hop propagation, keyed by graph identity.

    Parameters
    ----------
    max_graphs:
        Maximum number of graph keys kept per shard.  A base key holds the
        rows read of each requested hop (a whole ``(N, F)`` product only once
        a caller materialised it) besides the feature matrix it shares with
        its graph, and a derived key its dirty rows (or, once materialised,
        one ``(N', F)`` product), so the default is small —
        deliberately so: the attack loop produces a *stream* of one-shot
        derived keys, and the sooner they are evicted, the sooner their
        products are freed.
    max_shards:
        Maximum number of resident shards (one shard per root graph, i.e.
        per dataset).  Least-recently-used shards are retired whole.
    """

    def __init__(self, max_graphs: int = 4, max_shards: int = 4) -> None:
        if max_graphs < 2:
            raise ValueError("max_graphs must be >= 2 (a base and a derived graph)")
        if max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        self.max_graphs = max_graphs
        self.max_shards = max_shards
        #: shard key (root graph version) -> LRU of graph key -> entry.
        self._shards: "OrderedDict[int, OrderedDict[object, _Entry]]" = OrderedDict()
        self._raw_normalized: Dict[int, tuple] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.incremental_updates = 0
        self.incremental_normalizations = 0

    # -------------------------------------------------------------- #
    # Keying
    # -------------------------------------------------------------- #
    @staticmethod
    def _key(graph) -> object:
        """Cache key of a graph: ``cache_key`` for views, ``version`` otherwise."""
        return getattr(graph, "cache_key", graph.version)

    @staticmethod
    def _shard_key(graph) -> int:
        """Root version of a graph's derivation chain (= its dataset shard)."""
        root = graph
        while getattr(root, "derivation", None) is not None:
            root = root.derivation.base
        return root.version

    def _shard(self, shard_key: int) -> "OrderedDict[object, _Entry]":
        """The (LRU-refreshed) shard for ``shard_key``, creating it if needed."""
        shard = self._shards.get(shard_key)
        if shard is None:
            shard = OrderedDict()
            self._shards[shard_key] = shard
            while len(self._shards) > self.max_shards:
                self._shards.popitem(last=False)
        else:
            self._shards.move_to_end(shard_key)
        return shard

    def _lookup(self, graph) -> Optional[_Entry]:
        """Resident entry for ``graph`` (refreshing recency), else ``None``."""
        shard = self._shards.get(self._shard_key(graph))
        if shard is None:
            return None
        entry = shard.get(self._key(graph))
        if entry is not None:
            self._shards.move_to_end(self._shard_key(graph))
            shard.move_to_end(self._key(graph))
        return entry

    # -------------------------------------------------------------- #
    # GraphData-level API
    # -------------------------------------------------------------- #
    def normalized(self, graph) -> sp.csr_matrix:
        """``gcn_normalize(graph.adjacency)``, memoised per graph key.

        A graph carrying a :class:`~repro.graph.data.GraphDelta` whose base
        operator is still resident is renormalised *incrementally*: unchanged
        rows are spliced from the base with a degree-ratio fix-up, only the
        changed/appended rows pay a fresh normalisation (see
        :func:`repro.graph.normalize.incremental_gcn_normalize`).  Works for
        :class:`~repro.graph.data.GraphData` and
        :class:`~repro.graph.view.GraphView` alike.
        """
        with self._lock:
            entry = self._lookup(graph)
            if entry is not None and entry.normalized is not None:
                self.hits += 1
                return entry.normalized
            self.misses += 1

            shard = self._shard(self._shard_key(graph))
            delta = graph.derivation
            if delta is not None:
                # Look the base up (and refresh its recency) BEFORE creating
                # this graph's entry, so the derived insertion cannot evict
                # the base it is about to be patched against.
                base_entry = shard.get(self._key(delta.base))
                if base_entry is not None and base_entry.normalized is not None:
                    shard.move_to_end(self._key(delta.base))
                    base_normalized = base_entry.normalized
                    if base_entry.degrees is None:
                        base_entry.degrees = self_loop_degrees(delta.base.adjacency)
                    base_degrees = base_entry.degrees
                    entry = self._entry(shard, self._key(graph))
                    if (
                        delta.changed_nodes.size == 0
                        and graph.num_nodes == delta.base.num_nodes
                    ):
                        # Pure metadata variant: share the base operator.
                        self._set_normalized(entry, base_normalized, base_degrees)
                        entry.nonnegative = base_entry.nonnegative
                    else:
                        normalized, degrees = incremental_gcn_normalize(
                            graph.adjacency,
                            base_normalized,
                            base_degrees,
                            delta.changed_nodes,
                        )
                        self._set_normalized(entry, normalized, degrees)
                        self.incremental_normalizations += 1
                    return entry.normalized

            entry = self._entry(shard, self._key(graph))
            self._set_normalized(
                entry, gcn_normalize(graph.adjacency), self_loop_degrees(graph.adjacency)
            )
            return entry.normalized

    @staticmethod
    def _set_normalized(
        entry: _Entry, normalized: sp.csr_matrix, degrees: np.ndarray
    ) -> None:
        entry.normalized = normalized
        entry.degrees = degrees
        entry.nonnegative = bool(
            normalized.data.size == 0 or normalized.data.min() >= 0.0
        )

    def propagated(self, graph, num_hops: int, keep: Sequence[int] = ()) -> np.ndarray:
        """``Â^K X`` for ``graph``: :meth:`propagated_view`, materialised.

        A base graph's row source and a derived graph's difference-form
        product are materialised once (each keeps the whole product), so
        repeated calls return the same array.  The returned array is shared:
        treat it as read-only.

        ``keep`` names lower hops of the same chain that the caller reads
        whole as well.  On a base graph whose chain stays in memory, the one
        chain computation that materialises hop ``K`` keeps them, so their
        :meth:`propagated_view` is a hit and no second chain is computed.
        A blocked chain keeps every hop anyway, and a derived graph is
        patched hop by hop, so ``keep`` changes nothing there.
        """
        with self._lock:
            product = self.propagated_view(graph, num_hops)
            if keep and isinstance(product, PropagatedRows) and graph.derivation is None:
                hops = self._lookup(graph).hops
                lower = [hop for hop in keep if _whole(hops.get(hop)) is None]
                if lower:
                    chain = product.chain()
                    hops.update((hop, chain[hop]) for hop in lower)
            if isinstance(product, (PropagatedView, PropagatedRows)):
                return product.materialize()
            return product

    def propagated_view(self, graph, num_hops: int):
        """``Â^K X`` for ``graph`` in difference form — the zero-copy path.

        For a derived graph (a :class:`~repro.graph.view.GraphView`, or any
        graph whose :class:`~repro.graph.data.GraphDelta` changes or appends
        rows) this returns a :class:`~repro.graph.view.PropagatedView` (base
        product + dirty rows) without materialising the ``(N', F)`` result;
        consumers gather the rows they need (cost ∝ rows gathered).  A base
        graph whose chain stays in memory gets its
        :class:`~repro.graph.view.PropagatedRows`, which computes each row on
        its first read and keeps it; a blocked one gets its
        ``BlockedArray``.  A label-only variant (empty delta, no appended
        rows) shares its base's product outright.  All of them satisfy the
        same row-gather protocol (``result[index_array]``), and the row
        source of a derived graph's base is its view's base product.
        Creating a row source counts one miss, as computing the chain did;
        reading its rows counts nothing.
        """
        with self._lock:
            entry = self._lookup(graph)
            if entry is not None:
                cached = entry.hops.get(num_hops)
                if cached is None:
                    cached = entry.views.get(num_hops)
                if cached is not None:
                    self.hits += 1
                    return cached
            self.misses += 1

            delta = graph.derivation
            if delta is None:
                return self._chain(graph, num_hops)[0][num_hops]
            # Resolve the base chain BEFORE creating this graph's entry: with
            # a minimal LRU the derived insertion would otherwise evict the
            # very base it is about to be patched against, silently reverting
            # every epoch to a full recompute.
            base_hops, base_normalized = self._chain(delta.base, num_hops)
            shard = self._shard(self._shard_key(graph))
            entry = self._entry(shard, self._key(graph))
            if delta.changed_nodes.size == 0 and graph.num_nodes == delta.base.num_nodes:
                # Pure metadata variant (labels / split only).
                entry.hops[num_hops] = base_hops[num_hops]
                return entry.hops[num_hops]
            normalized = self.normalized(graph)
            dirty_rows, dirty_values = incremental_sgc_delta(
                normalized,
                graph.features,
                base_hops,
                delta.changed_nodes,
                num_hops,
                nonnegative=entry.nonnegative,
                base_normalized=base_normalized,
            )
            view = PropagatedView(
                base_hops[num_hops], dirty_rows, dirty_values, graph.num_nodes
            )
            entry.views[num_hops] = view
            self.incremental_updates += 1
            return view

    def csr_features(self, graph) -> sp.csr_matrix:
        """``graph``'s feature matrix as CSR, converted once per graph key.

        Kept beside the operator in the graph's entry, so it goes when the
        entry does.  The returned matrix is shared: treat it as read-only.
        A conversion, not a propagation: it counts neither as a hit nor as
        a miss.
        """
        with self._lock:
            entry = self._entry(self._shard(self._shard_key(graph)), self._key(graph))
            if entry.csr_features is None:
                entry.csr_features = sp.csr_matrix(graph.features)
            return entry.csr_features

    def invalidate(self, graph=None) -> None:
        """Drop every cached artefact (entries and the raw-matrix memo).

        Needed only when a graph's arrays are mutated in place, which breaks
        the immutability convention the version token relies on.  The clear
        is deliberately *total* even when ``graph`` is given: cached products
        can be shared across keys (label-only variants), and derived entries
        embed base rows — a surgical per-key drop would leave stale data
        reachable through either path.  ``graph`` is kept in the signature as
        documentation of intent at call sites.
        """
        del graph
        with self._lock:
            self._shards.clear()
            self._raw_normalized.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters (useful in tests and benchmarks)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "incremental_updates": self.incremental_updates,
                "incremental_normalizations": self.incremental_normalizations,
                "graphs": sum(len(shard) for shard in self._shards.values()),
                "shards": len(self._shards),
                "raw_matrices": len(self._raw_normalized),
            }

    # -------------------------------------------------------------- #
    # Raw-matrix API (model layer: adjacency without a GraphData wrapper)
    # -------------------------------------------------------------- #
    def normalized_adjacency(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        """``gcn_normalize(adjacency)`` memoised per live matrix object.

        Raw matrices carry no version token, so the memo is keyed by ``id()``
        — but, unlike a bare ``id()`` cache, a ``weakref.finalize`` evicts
        the entry the moment the matrix is garbage collected, so a recycled
        id can never alias a dead matrix.  A fingerprint over shape, nnz and
        two data moments guards against in-place edits of a live matrix —
        including value-only edits that leave the sparsity pattern intact.
        The fingerprint pass is O(nnz), a fraction of the normalisation it
        saves.
        """
        key = id(adjacency)
        data = adjacency.data
        fingerprint = (
            adjacency.shape,
            adjacency.nnz,
            float(data.sum()),
            float(np.dot(data, data)),
        )
        with self._lock:
            cached = self._raw_normalized.get(key)
            if cached is not None and cached[0] == fingerprint:
                self.hits += 1
                return cached[1]
            self.misses += 1
            normalized = gcn_normalize(adjacency)
            if cached is None:
                weakref.finalize(adjacency, self._evict_raw, key)
            self._raw_normalized[key] = (fingerprint, normalized)
            return normalized

    def _evict_raw(self, key: int) -> None:
        with self._lock:
            self._raw_normalized.pop(key, None)

    # -------------------------------------------------------------- #
    # Internals
    # -------------------------------------------------------------- #
    def _entry(self, shard: "OrderedDict[object, _Entry]", key: object) -> _Entry:
        entry = shard.get(key)
        if entry is None:
            entry = _Entry()
            shard[key] = entry
        else:
            shard.move_to_end(key)
        while len(shard) > self.max_graphs:
            shard.popitem(last=False)
        return entry

    def _chain(
        self, graph, num_hops: int
    ) -> Tuple[List[Optional[object]], Optional[sp.csr_matrix]]:
        """``graph``'s hop chain ``[X, ..., Â^K X]`` and the operator behind it.

        Used both for directly propagated graphs and for the *base* of an
        incremental update.  An entry without hop 0 or hop ``K`` gets them
        here: in memory, hop 0 is the graph's feature matrix and hop ``K``
        a :class:`~repro.graph.view.PropagatedRows` over the operator, which
        computes nothing until a row is read; a blocked chain computes and
        keeps every hop.  Hop ``K`` is returned as the entry holds it.  The
        list has ``None`` at each hop between that the entry does not hold
        whole, which :func:`~repro.graph.propagation.incremental_sgc_delta`
        reads at the rows it touches, from the returned operator.  A derived
        graph for which only final hops were cached builds its own chain
        here — correctness never depends on what happens to be resident.
        """
        shard = self._shard(self._shard_key(graph))
        entry = self._entry(shard, self._key(graph))
        hops = entry.hops
        chain = _held_chain(hops, num_hops)
        if chain[0] is None or chain[-1] is None or (
            entry.normalized is None and any(hop is None for hop in chain)
        ):
            features = graph.features
            if num_hops >= 1 and graph.num_nodes * graph.num_features > blocked_threshold():
                # Above the size threshold every propagated hop lives in a
                # memory-mapped BlockedArray (bit-identical values, bounded
                # RSS); hop 0 stays the shared dense feature matrix either way.
                computed = blocked_precompute_hops(self.normalized(graph), features, num_hops)
                hops.update(enumerate(computed))
            else:
                normalized = self.normalized(graph)
                hops[0] = np.asarray(features, dtype=np.float64)
                if num_hops >= 1 and hops.get(num_hops) is None:
                    hops[num_hops] = PropagatedRows(normalized, hops[0], num_hops)
            chain = _held_chain(hops, num_hops)
        return chain, entry.normalized


_default_cache = PropagationCache()


def get_default_cache() -> PropagationCache:
    """The process-wide cache shared by condensers, models and evaluation."""
    return _default_cache


def set_default_cache(cache: PropagationCache) -> PropagationCache:
    """Swap the process-wide cache (tests use this for isolation); returns the old one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous
