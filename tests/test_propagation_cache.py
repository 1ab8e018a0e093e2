"""Tests for graph version tokens, deltas and the shared propagation cache."""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import build_small_graph
from repro.attack.bgc import BGC, BGCConfig
from repro.attack.trigger import TriggerConfig, TriggerGenerator
from repro.condensation import CondensationConfig
from repro.condensation.dc_graph import DCGraph
from repro.condensation.gc_sntk import GCSNTK
from repro.condensation.gcond import GCond, GCondX
from repro.exceptions import GraphValidationError
from repro.graph import cache as cache_module
from repro.graph import view as view_module
from repro.graph.cache import PropagationCache, set_default_cache
from repro.graph.data import GraphData, GraphDelta
from repro.graph.normalize import gcn_normalize
from repro.graph.view import PropagatedRows
from repro.graph.propagation import (
    incremental_sgc_delta,
    sgc_precompute,
    sgc_precompute_hops,
)
from repro.graph.splits import SplitIndices
from repro.utils.seed import new_rng

from reference.subgraph import with_delta


def _random_delta(graph: GraphData, rng: np.random.Generator):
    """A random variant of ``graph`` honouring the GraphDelta contract.

    Feature rows are perturbed only inside the changed set ``S``; edges are
    toggled only between endpoints that both lie in ``S`` or in the appended
    block; a random number of new nodes is appended.
    """
    n = graph.num_nodes
    changed = np.sort(
        rng.choice(n, size=int(rng.integers(1, max(2, n // 10))), replace=False)
    )
    num_new = int(rng.integers(0, 4))
    total = n + num_new

    dense = np.zeros((total, total))
    dense[:n, :n] = graph.adjacency.toarray()
    pool = np.concatenate([changed, np.arange(n, total)])
    if pool.size >= 2:
        for _ in range(int(rng.integers(1, 8))):
            i, j = rng.choice(pool, size=2, replace=False)
            value = 1.0 - dense[i, j]
            dense[i, j] = dense[j, i] = value

    features = np.vstack(
        [graph.features.copy(), rng.normal(size=(num_new, graph.num_features))]
    )
    features[changed] += rng.normal(scale=0.5, size=(changed.size, graph.num_features))
    labels = np.concatenate(
        [graph.labels, rng.integers(0, graph.num_classes, size=num_new)]
    )
    return with_delta(
        graph,
        changed,
        adjacency=sp.csr_matrix(dense),
        features=features,
        labels=labels,
    )


class TestVersionTokens:
    def test_versions_are_unique_and_monotonic(self, small_graph):
        other = build_small_graph(seed=11)
        assert small_graph.version != other.version
        newer = small_graph.with_(name="renamed")
        assert newer.version > small_graph.version

    def test_unpickled_graph_draws_a_fresh_version(self, small_graph):
        """Version tokens are process-local: a pickled graph must re-key.

        An unpickled graph carrying a foreign process's token could collide
        with a token this process issues for a different graph (the spawn
        start method resets the counter), and the cache would silently serve
        one graph's chains for the other.
        """
        import pickle

        clone = pickle.loads(pickle.dumps(small_graph))
        assert clone.version != small_graph.version
        np.testing.assert_array_equal(clone.features, small_graph.features)
        # The clone is cache-consistent under its new key.
        cache = PropagationCache()
        np.testing.assert_allclose(
            cache.propagated(clone, 2),
            sgc_precompute(clone.adjacency, clone.features, 2),
            rtol=0.0,
            atol=1e-12,
        )

    def test_label_only_variant_records_empty_delta(self, small_graph):
        variant = small_graph.with_(labels=small_graph.labels.copy())
        assert variant.derivation is not None
        assert variant.derivation.base is small_graph
        assert variant.derivation.changed_nodes.size == 0

    def test_existing_derivation_survives_metadata_change(self, small_graph, rng):
        derived = _random_delta(small_graph, rng)
        renamed = derived.with_(name="renamed")
        assert renamed.derivation is derived.derivation

    def test_structural_change_drops_derivation(self, small_graph):
        variant = small_graph.with_(labels=small_graph.labels.copy())
        structural = variant.with_(features=variant.features * 2.0)
        assert structural.derivation is None

    def test_with_delta_validates_changed_nodes(self, small_graph):
        with pytest.raises(GraphValidationError):
            with_delta(small_graph, np.array([small_graph.num_nodes]))

    def test_delta_may_only_append_nodes(self, small_graph):
        shrunk = sp.csr_matrix((5, 5))
        with pytest.raises(GraphValidationError):
            GraphData(
                adjacency=shrunk,
                features=np.zeros((5, small_graph.num_features)),
                labels=np.zeros(5, dtype=np.int64),
                split=SplitIndices(
                    train=np.array([0]), val=np.array([1]), test=np.array([2])
                ),
                derivation=GraphDelta(
                    base=small_graph, changed_nodes=np.empty(0, dtype=np.int64)
                ),
            )


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("trial", range(8))
    def test_random_deltas_match_full_recompute(self, trial):
        """Property-style: incremental propagation equals a cold recompute."""
        rng = new_rng(1000 + trial)
        graph = build_small_graph(seed=trial)
        derived = _random_delta(graph, rng)
        cache = PropagationCache()
        for num_hops in (1, 2, 3):
            expected = sgc_precompute(derived.adjacency, derived.features, num_hops)
            actual = cache.propagated(derived, num_hops)
            np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-10)

    def test_stacked_deltas_match_full_recompute(self, small_graph):
        """A delta whose base is itself derived still propagates correctly."""
        rng = new_rng(77)
        first = _random_delta(small_graph, rng)
        second = _random_delta(first, rng)
        cache = PropagationCache()
        expected = sgc_precompute(second.adjacency, second.features, 2)
        np.testing.assert_allclose(
            cache.propagated(second, 2), expected, rtol=0.0, atol=1e-10
        )

    def test_label_only_variant_shares_base_product(self, small_graph):
        cache = PropagationCache()
        base_product = cache.propagated(small_graph, 2)
        variant = small_graph.with_(labels=small_graph.labels.copy())
        assert cache.propagated(variant, 2) is base_product

    def test_incremental_kernel_rejects_short_chain(self, small_graph):
        with pytest.raises(GraphValidationError):
            incremental_sgc_delta(
                sp.eye(small_graph.num_nodes, format="csr"),
                small_graph.features,
                [small_graph.features],
                np.array([0]),
                num_hops=2,
            )


class TestCacheBehaviour:
    def test_repeated_propagation_hits(self, small_graph):
        cache = PropagationCache()
        first = cache.propagated(small_graph, 2)
        hits_before = cache.hits
        assert cache.propagated(small_graph, 2) is first
        assert cache.hits == hits_before + 1

    def test_new_version_misses_even_with_equal_shape(self):
        """Regression for the old ``id(graph)``-keyed memo.

        ``id()`` can be recycled as soon as a graph is garbage collected, so
        an id-keyed cache could silently serve the *previous* graph's
        propagated features.  Version tokens are never reused; churn through
        several same-shape graphs (freeing each so CPython may recycle its
        address) and check every propagation is fresh and correct.
        """
        cache = PropagationCache()
        graph = None
        for seed in range(5):
            del graph
            gc.collect()
            graph = build_small_graph(seed=seed)
            expected = sgc_precompute(graph.adjacency, graph.features, 2)
            np.testing.assert_allclose(
                cache.propagated(graph, 2), expected, rtol=0.0, atol=1e-12
            )

    def test_condenser_sees_fresh_graph_after_object_reuse(self):
        """The old bug exercised end-to-end through a condenser instance."""
        cache = PropagationCache()
        condenser = GCondX(CondensationConfig(epochs=1, ratio=0.2), cache=cache)
        for seed in (3, 4):
            graph = build_small_graph(seed=seed)
            expected = sgc_precompute(
                graph.adjacency, graph.features, condenser.config.num_hops
            )
            np.testing.assert_allclose(
                condenser._real_propagated(graph), expected, rtol=0.0, atol=1e-12
            )
            del graph
            gc.collect()

    def test_invalidate_after_inplace_mutation(self, small_graph):
        cache = PropagationCache()
        before = cache.propagated(small_graph, 2).copy()
        small_graph.features[:] = small_graph.features * 3.0
        cache.invalidate(small_graph)
        after = cache.propagated(small_graph, 2)
        np.testing.assert_allclose(after, before * 3.0, rtol=1e-10)

    def test_invalidate_recomputes_derived_products_after_base_mutation(
        self, small_graph
    ):
        """Regression: a derived product patched against a stale base.

        The base keeps its version through an in-place mutation, so only
        invalidate() stops the next derived graph from being patched
        against the pre-mutation chain — every derived product must be
        recomputed from the mutated base.
        """
        rng = new_rng(21)
        cache = PropagationCache(max_graphs=2)
        for _ in range(4):  # derived products of the pre-mutation base
            derived = TestDerivedProductStream._fixed_shape_delta(small_graph, rng)
            cache.propagated(derived, 2)
        small_graph.features[:] = small_graph.features * 2.0
        cache.invalidate(small_graph)
        derived = TestDerivedProductStream._fixed_shape_delta(small_graph, rng)
        expected = sgc_precompute(derived.adjacency, derived.features, 2)
        np.testing.assert_allclose(
            cache.propagated(derived, 2), expected, rtol=0.0, atol=1e-10
        )

    def test_invalidate_all(self, small_graph):
        cache = PropagationCache()
        cache.propagated(small_graph, 2)
        cache.normalized_adjacency(small_graph.adjacency)
        cache.invalidate()
        stats = cache.stats()
        assert stats["graphs"] == 0 and stats["raw_matrices"] == 0

    def test_lru_is_bounded(self):
        """Both LRU levels are bounded: entries per shard and shards overall.

        Independent base graphs are independent datasets, so each owns a
        shard; a stream of derived graphs churns inside its base's shard.
        """
        cache = PropagationCache(max_graphs=2, max_shards=2)
        for seed in range(4):  # four datasets -> shard-level eviction
            cache.propagated(build_small_graph(seed=seed), 1)
        stats = cache.stats()
        assert stats["shards"] <= 2
        assert stats["graphs"] <= 2 * 2

    def test_per_shard_lru_is_bounded(self, small_graph, rng):
        cache = PropagationCache(max_graphs=2, max_shards=2)
        for _ in range(5):  # derived stream: all entries share one shard
            cache.propagated(_random_delta(small_graph, rng), 2)
        stats = cache.stats()
        assert stats["shards"] == 1
        assert stats["graphs"] <= 2

    def test_datasets_coexist_across_shards(self, small_graph, rng):
        """A second dataset's stream must not evict the first's base chain."""
        cache = PropagationCache(max_graphs=2, max_shards=4)
        other = build_small_graph(seed=23)
        cache.propagated(small_graph, 2)
        cache.propagated(other, 2)
        before = cache.misses
        for _ in range(3):  # interleave derived streams of both datasets
            cache.propagated(_random_delta(small_graph, rng), 2)
            cache.propagated(_random_delta(other, rng), 2)
        # 2 misses per derived graph (normalize + propagate); base chains
        # stay resident in their own shards, so no extra recomputes appear.
        assert cache.misses - before == 12

    def test_minimal_lru_keeps_base_resident(self, small_graph, rng):
        """Regression: a derived insertion must never evict its own base.

        With ``max_graphs=2`` an attack-style stream of deltas over one base
        used to evict the base entry on every epoch, silently reverting to a
        full recompute per epoch (3 misses/epoch instead of 2: normalize +
        propagate of the derived graph only).
        """
        cache = PropagationCache(max_graphs=2)
        cache.propagated(small_graph, 2)  # warm the base chain
        steady_misses = []
        before = cache.misses
        for _ in range(4):
            derived = _random_delta(small_graph, rng)
            cache.propagated(derived, 2)
            steady_misses.append(cache.misses - before)
            before = cache.misses
        # 2 misses per epoch: the derived graph's propagated + normalized.
        # Base eviction would show up as 3+ (base chain recomputed too).
        assert steady_misses == [2, 2, 2, 2]

    def test_shared_across_condenser_families(self, small_graph):
        """GCond / GCond-X / GC-SNTK reuse one propagation of the same graph."""
        cache = PropagationCache()
        config = CondensationConfig(epochs=1, ratio=0.2)
        product = GCond(config, cache=cache)._real_propagated(small_graph)
        misses_after_first = cache.misses
        assert GCondX(config, cache=cache)._real_propagated(small_graph) is product
        assert (
            GCSNTK(config, cache=cache)._real_propagated(small_graph) is product
        )
        assert cache.misses == misses_after_first
        # DC-Graph matches raw features and bypasses propagation entirely.
        assert (
            DCGraph(config, cache=cache)._real_propagated(small_graph)
            is small_graph.features
        )


class TestShardedLRUStress:
    """Property/stress coverage of the two-level (shard, entry) LRU."""

    def test_interleaved_multi_dataset_stream_respects_bounds(self):
        """Random interleaving over several datasets never exceeds the caps.

        Property-style: a long stream of base propagations and derived
        deltas over four datasets, driven by a seeded RNG, checked after
        *every* operation — ``shards <= max_shards``, every shard holds at
        most ``max_graphs`` entries, and the totals stats agree.
        """
        rng = new_rng(4242)
        cache = PropagationCache(max_graphs=3, max_shards=2)
        bases = [build_small_graph(seed=seed) for seed in range(4)]
        for _ in range(60):
            graph = bases[int(rng.integers(len(bases)))]
            if rng.random() < 0.5:
                graph = _random_delta(graph, rng)
            cache.propagated(graph, int(rng.integers(1, 4)))
            stats = cache.stats()
            assert stats["shards"] <= 2
            assert stats["graphs"] <= 2 * 3
            for shard in cache._shards.values():
                assert len(shard) <= 3

    def test_eviction_order_is_lru_within_a_shard(self, small_graph, rng):
        """Touching an entry protects it; the least-recently-used one falls."""
        cache = PropagationCache(max_graphs=3)
        cache.propagated(small_graph, 2)  # base chain (kept hot by derived use)
        first = _random_delta(small_graph, rng)
        second = _random_delta(small_graph, rng)
        cache.propagated(first, 2)
        cache.propagated(second, 2)
        cache.propagated(first, 2)  # refresh `first`: now `second` is LRU
        third = _random_delta(small_graph, rng)
        cache.propagated(third, 2)  # over capacity: evicts exactly one entry
        (shard,) = cache._shards.values()
        assert small_graph.version in shard, "base chain must stay resident"
        assert first.version in shard, "recently-touched entry was evicted"
        assert third.version in shard
        assert second.version not in shard, "LRU entry should have been evicted"

    def test_shard_eviction_retires_whole_datasets_lru_first(self):
        cache = PropagationCache(max_graphs=2, max_shards=2)
        a, b, c = (build_small_graph(seed=seed) for seed in (31, 32, 33))
        cache.propagated(a, 1)
        cache.propagated(b, 1)
        cache.propagated(a, 1)  # refresh dataset A: B is now the LRU shard
        cache.propagated(c, 1)  # third dataset: B's shard is retired whole
        assert a.version in cache._shards
        assert c.version in cache._shards
        assert b.version not in cache._shards


class TestResidentHops:
    """An in-memory entry keeps the graph's own feature matrix and a row
    source per hop callers asked for (the whole product once one of them
    materialised it); a blocked chain keeps every hop."""

    def test_requested_hop_and_features_only(self, small_graph):
        cache = PropagationCache()
        cache.propagated(small_graph, 2)
        entry = cache._lookup(small_graph)
        assert set(entry.hops) == {0, 2}
        assert entry.hops[0] is small_graph.features
        cache.propagated(small_graph, 1)
        assert set(entry.hops) == {0, 1, 2}

    def test_incremental_update_stores_no_intermediate_hop(self, small_graph, rng):
        cache = PropagationCache()
        derived = _random_delta(small_graph, rng)
        view = cache.propagated_view(derived, 3)
        hops = cache._lookup(small_graph).hops
        assert set(hops) == {0, 3}
        # Hop 3 is a row source holding only the rows read of it: none yet.
        assert hops[3] is view.base_product and isinstance(hops[3], PropagatedRows)
        assert hops[3].stored_rows == 0 and hops[3].materialized is None
        rows = np.arange(0, derived.num_nodes, 7)
        view.gather(rows)
        clean = rows[~np.isin(rows, view.dirty_rows)]
        # Only the clean rows read: a dirty row borrows one of them.
        assert hops[3].stored_rows == clean.size

    def test_blocked_chain_keeps_every_hop(self, small_graph):
        from repro.graph.blocked import BLOCKED_THRESHOLD, BlockedArray

        cache = PropagationCache()
        with BLOCKED_THRESHOLD.overridden(0):
            cache.propagated(small_graph, 2)
        hops = cache._lookup(small_graph).hops
        assert set(hops) == {0, 1, 2}
        assert all(isinstance(hops[k], BlockedArray) for k in (1, 2))


class TestDerivedProductStream:
    """An attack-style stream of same-shape derived graphs: every product is
    exact, none aliases another, and the LRU releases what it evicts."""

    @staticmethod
    def _fixed_shape_delta(graph, rng, num_new=2):
        """A delta variant with a fixed appended-node count, so successive
        products share a shape."""
        n = graph.num_nodes
        changed = np.sort(rng.choice(n, size=3, replace=False))
        dense = np.zeros((n + num_new, n + num_new))
        dense[:n, :n] = graph.adjacency.toarray()
        for i in range(num_new):
            dense[changed[i % 3], n + i] = dense[n + i, changed[i % 3]] = 1.0
        features = np.vstack(
            [graph.features.copy(), rng.normal(size=(num_new, graph.num_features))]
        )
        labels = np.concatenate([graph.labels, np.zeros(num_new, dtype=np.int64)])
        return with_delta(
            graph,
            changed, adjacency=sp.csr_matrix(dense), features=features, labels=labels
        )

    def test_steady_state_stream_stays_exact(self, small_graph):
        rng = new_rng(9)
        cache = PropagationCache(max_graphs=2)
        for _ in range(8):
            derived = self._fixed_shape_delta(small_graph, rng)
            product = cache.propagated(derived, 2)
            expected = sgc_precompute(derived.adjacency, derived.features, 2)
            np.testing.assert_allclose(product, expected, rtol=0.0, atol=1e-10)
            del product

    def test_live_products_are_never_recycled(self, small_graph):
        rng = new_rng(10)
        cache = PropagationCache(max_graphs=2)
        held = cache.propagated(self._fixed_shape_delta(small_graph, rng), 2)
        held_snapshot = held.copy()
        later = []
        for _ in range(6):  # churn versions to force evictions and pool takes
            derived = self._fixed_shape_delta(small_graph, rng)
            later.append(cache.propagated(derived, 2))
        for index, product in enumerate(later):
            assert not np.shares_memory(product, held)
            for other in later[index + 1 :]:
                assert not np.shares_memory(product, other)
        np.testing.assert_array_equal(held, held_snapshot)

    def test_evicted_product_is_released(self, small_graph):
        """Nothing outside the LRU keeps an evicted derived product alive."""
        rng = new_rng(11)
        cache = PropagationCache(max_graphs=2)
        first = self._fixed_shape_delta(small_graph, rng)
        product = weakref.ref(cache.propagated(first, 2))
        for _ in range(4):
            cache.propagated(self._fixed_shape_delta(small_graph, rng), 2)
        del first
        gc.collect()
        assert product() is None


class TestRawAdjacencyMemo:
    def test_same_matrix_returns_cached_operator(self, small_graph):
        cache = PropagationCache()
        first = cache.normalized_adjacency(small_graph.adjacency)
        assert cache.normalized_adjacency(small_graph.adjacency) is first

    def test_entry_evicted_when_matrix_dies(self):
        cache = PropagationCache()
        matrix = sp.eye(10, format="csr")
        cache.normalized_adjacency(matrix)
        assert cache.stats()["raw_matrices"] == 1
        del matrix
        gc.collect()
        assert cache.stats()["raw_matrices"] == 0

    def test_value_only_inplace_edit_is_detected(self):
        """Regression: scaling .data in place keeps (shape, nnz) intact —
        the fingerprint must still catch it."""
        from repro.graph.normalize import gcn_normalize

        cache = PropagationCache()
        dense = np.zeros((5, 5))
        dense[0, 1] = dense[1, 0] = 1.0
        matrix = sp.csr_matrix(dense)
        stale = cache.normalized_adjacency(matrix)
        matrix.data *= 2.0
        fresh = cache.normalized_adjacency(matrix)
        assert fresh is not stale
        np.testing.assert_allclose(
            fresh.toarray(), gcn_normalize(matrix).toarray(), rtol=1e-12
        )

    def test_structural_inplace_edit_is_detected(self):
        import warnings

        from repro.graph.normalize import gcn_normalize

        cache = PropagationCache()
        dense = np.zeros((6, 6))
        dense[0, 1] = dense[1, 0] = 1.0
        matrix = sp.csr_matrix(dense)
        stale = cache.normalized_adjacency(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SparseEfficiencyWarning
            matrix[2, 3] = 1.0
            matrix[3, 2] = 1.0
        fresh = cache.normalized_adjacency(matrix)
        assert fresh is not stale
        np.testing.assert_allclose(
            fresh.toarray(), gcn_normalize(matrix).toarray(), rtol=1e-12
        )


class TestBGCDeltaIntegration:
    def test_poisoned_graph_records_delta_against_working(self, small_graph, rng):
        attack = BGC(BGCConfig(poison_number=3, epochs=1))
        generator = TriggerGenerator(
            small_graph.num_features, rng, TriggerConfig(trigger_size=2)
        )
        generator.calibrate(small_graph.features)
        poisoned_nodes = np.array([1, 5, 9])
        base_poisoned = small_graph.with_(labels=small_graph.labels.copy())
        poisoned = attack._build_poisoned_graph(
            small_graph, base_poisoned, generator, poisoned_nodes
        )
        assert poisoned.derivation is not None
        assert poisoned.derivation.base is small_graph
        np.testing.assert_array_equal(
            poisoned.derivation.changed_nodes, np.unique(poisoned_nodes)
        )
        cache = PropagationCache()
        expected = sgc_precompute(poisoned.adjacency, poisoned.features, 2)
        np.testing.assert_allclose(
            cache.propagated(poisoned, 2), expected, rtol=0.0, atol=1e-10
        )
        assert cache.stats()["incremental_updates"] == 1


class TestRowSourceInCache:
    """What a base graph's entry holds once the condensers read rows of its
    product, and how the row source behaves under threads."""

    def test_threads_gathering_overlapping_rows_get_identical_bytes(self, small_graph):
        """More readers than cores, switching as often as the interpreter
        allows: every gather returns the product's bytes, and every row is
        stored once (a lost store update would duplicate or misplace rows)."""
        operator = gcn_normalize(small_graph.adjacency)
        full = sgc_precompute_hops(operator, small_graph.features, 2)[2]
        starts = [0, 20, 40, 60]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                rows = PropagatedRows(operator, small_graph.features, 2)
                barrier = threading.Barrier(len(starts))
                results = {start: [] for start in starts}

                def read(start):
                    barrier.wait()
                    selector = np.arange(start, start + 40) % small_graph.num_nodes
                    for part in range(4):
                        chunk = selector[part::4][::-1]
                        results[start].append((chunk, rows.gather(chunk)))

                threads = [threading.Thread(target=read, args=(start,)) for start in starts]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                for reads in results.values():
                    assert len(reads) == 4
                    for chunk, got in reads:
                        assert got.tobytes() == full[chunk].tobytes()
                assert rows.stored_rows == small_graph.num_nodes
        finally:
            sys.setswitchinterval(interval)

    def test_cora_gcond_cell_holds_no_whole_hop_product(self):
        """After a gcond + bgc cell on cora, no (N, F) product of cora is
        held: hop 2 is a row source holding the training rows, the rows its
        readers asked for."""
        from repro.api import ExperimentSpec, run_experiment
        from repro.api.runner import _load_graph

        spec = ExperimentSpec.from_dict(
            {
                "dataset": {"name": "cora", "overrides": {"seed": 0}},
                "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.026}},
                "attack": {
                    "name": "bgc",
                    "overrides": {
                        "epochs": 2, "poison_ratio": 0.1, "selection.selector_epochs": 5,
                    },
                },
                "trigger": {"name": "mlp", "overrides": {"trigger_size": 4}},
                "evaluation": {"overrides": {"epochs": 5}},
                "seed": 0,
            }
        )
        cache = PropagationCache()
        previous = set_default_cache(cache)
        try:
            record = run_experiment(spec)
        finally:
            set_default_cache(previous)
        assert record.ok, record.error
        graph = _load_graph(spec)
        hops = cache._lookup(graph).hops
        assert set(hops) == {0, 2} and hops[0] is graph.features
        assert isinstance(hops[2], PropagatedRows) and hops[2].materialized is None
        assert hops[2].stored_rows == graph.split.train.size
        for entry in cache._shards[graph.version].values():
            for hop, product in entry.hops.items():
                assert hop == 0 or not isinstance(product, np.ndarray), hop
            assert all(view._materialized is None for view in entry.views.values())

    @pytest.mark.parametrize("attack", ["gta", "injection"])
    def test_surrogate_fit_reads_the_training_rows_of_the_cached_hop(
        self, attack, small_graph
    ):
        """GTA and the injection attack fit their surrogates on the shared
        cache's row source, computing its training rows and no other."""
        from repro.attack.baselines.gta import GTAAttack, GTAConfig
        from repro.attack.injection import InjectionConfig, NodeInjectionAttack

        cache = PropagationCache()
        previous = set_default_cache(cache)
        try:
            if attack == "gta":
                GTAAttack(GTAConfig(surrogate_steps=3))._train_surrogate_on_original(
                    small_graph, new_rng(0)
                )
            else:
                NodeInjectionAttack(InjectionConfig(surrogate_steps=3))._train_surrogate(
                    small_graph, new_rng(0), cache
                )
        finally:
            set_default_cache(previous)
        rows = cache._lookup(small_graph).hops[2]
        assert isinstance(rows, PropagatedRows) and rows.materialized is None
        assert rows.stored_rows == np.unique(small_graph.split.train).size

    def test_cora_injection_attack_leg_holds_no_whole_hop_product(self, monkeypatch):
        """The injection surrogate fits on the training rows of the row
        source: after the attack leg no (N, F) product of cora is held."""
        from repro.api import ExperimentSpec, run_experiment
        from repro.api import runner as runner_module

        spec = ExperimentSpec.from_dict(
            {
                "dataset": {"name": "cora", "overrides": {"seed": 0}},
                "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.026}},
                "attack": {"name": "injection", "overrides": {"feature_steps": 2}},
                "evaluation": {"overrides": {"epochs": 5}},
                "seed": 0,
            }
        )

        class LegDone(Exception):
            pass

        attack_leg = runner_module._attack_leg

        def stop_after_the_leg(*args):
            attack_leg(*args)
            raise LegDone

        monkeypatch.setattr(runner_module, "_attack_leg", stop_after_the_leg)
        cache = PropagationCache()
        previous = set_default_cache(cache)
        try:
            with pytest.raises(LegDone):
                run_experiment(spec)
        finally:
            set_default_cache(previous)
        graph = runner_module._load_graph(spec)
        hops = cache._lookup(graph).hops
        assert isinstance(hops[2], PropagatedRows) and hops[2].stored_rows > 0
        for entry in cache._shards[graph.version].values():
            for hop, product in entry.hops.items():
                assert hop == 0 or not isinstance(product, np.ndarray), hop
                assert getattr(product, "materialized", None) is None, hop
            assert all(view._materialized is None for view in entry.views.values())

    def test_keep_serves_lower_hops_from_the_same_chain(self, small_graph, monkeypatch):
        chains = []
        compute = view_module.sgc_precompute_hops

        def counting(operator, features, num_hops):
            chains.append(num_hops)
            return compute(operator, features, num_hops)

        monkeypatch.setattr(view_module, "sgc_precompute_hops", counting)
        cache = PropagationCache()
        product = cache.propagated(small_graph, 3, keep=(1, 2))
        misses = cache.misses
        lower = [cache.propagated_view(small_graph, hop) for hop in (1, 2)]
        assert cache.misses == misses  # both kept hops are hits
        assert cache.propagated(small_graph, 3, keep=(1, 2)) is product
        assert chains == [3]
        full = sgc_precompute_hops(cache.normalized(small_graph), small_graph.features, 3)
        assert [hop.tobytes() for hop in lower] == [full[1].tobytes(), full[2].tobytes()]
        assert product.tobytes() == full[3].tobytes()

    def test_prbcd_reads_hops_k_and_k_minus_1_from_one_chain(self, small_graph, monkeypatch):
        from repro.attack.sampled import SampledEdgeAttack, SampledEdgeConfig

        chains = []
        compute = view_module.sgc_precompute_hops

        def counting(operator, features, num_hops):
            chains.append(num_hops)
            return compute(operator, features, num_hops)

        monkeypatch.setattr(view_module, "sgc_precompute_hops", counting)
        cache = PropagationCache()
        previous = set_default_cache(cache)
        try:
            attack = SampledEdgeAttack(
                SampledEdgeConfig(
                    poison_ratio=0.2, edge_budget=4, flip_steps=2, surrogate_steps=10
                )
            )
            condenser = GCondX(CondensationConfig(epochs=1, ratio=0.2), cache=cache)
            attack.run(small_graph, condenser, new_rng(11))
        finally:
            set_default_cache(previous)
        # Hop 2 for the surrogate fit and every step's logits, hop 1 kept
        # from the same chain for every step's messages.
        assert chains == [2]
        assert isinstance(cache._lookup(small_graph).hops[1], np.ndarray)

    def test_selector_converts_features_once_per_graph(self, small_graph, monkeypatch):
        from repro.attack.selection import RepresentativeNodeSelector, SelectionConfig

        class CountingSparse:
            conversions = 0

            def __getattr__(self, name):
                return getattr(sp, name)

            def csr_matrix(self, *args, **kwargs):
                CountingSparse.conversions += 1
                return sp.csr_matrix(*args, **kwargs)

        monkeypatch.setattr(cache_module, "sp", CountingSparse())
        cache = PropagationCache()
        previous = set_default_cache(cache)
        try:
            selector = RepresentativeNodeSelector(
                SelectionConfig(num_clusters=2, selector_epochs=5)
            )
            first = selector.select(small_graph, 6, 0, new_rng(1))
            counters = (cache.hits, cache.misses)
            second = selector.select(small_graph, 6, 0, new_rng(1))
        finally:
            set_default_cache(previous)
        assert CountingSparse.conversions == 1
        np.testing.assert_array_equal(first, second)
        # The conversion is kept beside the operator and counts nothing: the
        # second selection's hits are its operator lookups alone.
        assert cache.misses == counters[1]
        held = cache._lookup(small_graph).csr_features
        np.testing.assert_array_equal(held.toarray(), small_graph.features)
        released = weakref.ref(held)
        del held
        cache.invalidate()
        gc.collect()
        assert released() is None
