"""Unit tests for the zero-copy graph-view subsystem (repro/graph/view.py).

The equivalence of the view path against the materialised path — same
condensation losses, same gradients — is pinned in
``tests/test_hotpath_equivalence.py``; this file covers the view types
themselves (stacked feature access, lazy propagated products, cache keying
and sharding) and the warm-start surrogate machinery they enable.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import build_small_graph
from repro.attack.bgc import BGC, BGCConfig
from repro.attack.trigger import TriggerConfig
from repro.autograd import Tensor
from repro.condensation import CondensationConfig
from repro.condensation.gcond import GCondX
from repro.exceptions import GraphValidationError
from repro.graph.cache import PropagationCache
from repro.graph.propagation import sgc_precompute
from repro.graph.view import (
    GraphView,
    PropagatedView,
    StackedFeatures,
    poison_graph_view,
)
from repro.models.gcn import GCN
from repro.models.trainer import Trainer, TrainingConfig
from repro.utils.seed import new_rng


def _trigger_blocks(graph, rng, num_targets=3, trigger_size=2):
    targets = np.sort(rng.choice(graph.num_nodes, size=num_targets, replace=False))
    features = rng.normal(size=(num_targets, trigger_size, graph.num_features))
    adjacency = (rng.random((num_targets, trigger_size, trigger_size)) < 0.5).astype(
        np.float64
    )
    return targets, features, adjacency


# --------------------------------------------------------------------- #
# StackedFeatures
# --------------------------------------------------------------------- #
class TestStackedFeatures:
    def test_shape_and_gather_cross_boundary(self, rng):
        base = rng.normal(size=(10, 4))
        overlay = rng.normal(size=(3, 4))
        stacked = StackedFeatures(base, overlay)
        assert stacked.shape == (13, 4)
        assert stacked.ndim == 2
        assert len(stacked) == 13
        rows = np.array([0, 9, 10, 12, 5])
        expected = np.vstack([base, overlay])[rows]
        np.testing.assert_array_equal(stacked.gather(rows), expected)
        np.testing.assert_array_equal(stacked[rows], expected)
        np.testing.assert_array_equal(stacked[11], overlay[1])

    def test_materialize_matches_vstack_and_is_cached(self, rng):
        base = rng.normal(size=(5, 3))
        overlay = rng.normal(size=(2, 3))
        stacked = StackedFeatures(base, overlay)
        first = stacked.materialize()
        np.testing.assert_array_equal(first, np.vstack([base, overlay]))
        assert stacked.materialize() is first
        np.testing.assert_array_equal(np.asarray(stacked), first)

    def test_gather_never_materializes(self, rng):
        stacked = StackedFeatures(rng.normal(size=(8, 2)), rng.normal(size=(2, 2)))
        stacked.gather(np.array([0, 9]))
        assert stacked._materialized is None

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(GraphValidationError):
            StackedFeatures(rng.normal(size=(4, 3)), rng.normal(size=(2, 5)))

    def test_boolean_mask_selects_rows_not_indices(self, rng):
        """Regression: a boolean mask must behave like numpy fancy indexing,
        not be cast to 0/1 integer indices."""
        base = rng.normal(size=(6, 2))
        overlay = rng.normal(size=(2, 2))
        stacked = StackedFeatures(base, overlay)
        mask = np.zeros(8, dtype=bool)
        mask[[1, 6]] = True
        expected = np.vstack([base, overlay])[mask]
        np.testing.assert_array_equal(stacked[mask], expected)
        np.testing.assert_array_equal(stacked.gather(mask), expected)

    def test_negative_indices_wrap_like_ndarray(self, rng):
        """Regression: -1 must mean the last view row, not base[-1]."""
        base = rng.normal(size=(6, 2))
        overlay = rng.normal(size=(2, 2))
        stacked = StackedFeatures(base, overlay)
        full = np.vstack([base, overlay])
        np.testing.assert_array_equal(stacked[-1], full[-1])
        np.testing.assert_array_equal(
            stacked[np.array([-3, -8, 0])], full[np.array([-3, -8, 0])]
        )
        with pytest.raises(IndexError):
            stacked.gather(np.array([8]))
        with pytest.raises(IndexError):
            stacked.gather(np.array([-9]))

    def test_tuple_indices_and_mask_length_follow_ndarray(self, rng):
        """2-D indexing must behave like the ndarray it substitutes for, and
        a wrong-length boolean mask must raise instead of selecting rows."""
        base = rng.normal(size=(3, 4))
        overlay = rng.normal(size=(2, 4))
        stacked = StackedFeatures(base, overlay)
        full = np.vstack([base, overlay])
        assert stacked[0, 1] == full[0, 1]
        np.testing.assert_array_equal(
            stacked[np.array([1, 4]), :], full[np.array([1, 4]), :]
        )
        with pytest.raises(IndexError):
            stacked[np.ones(3, dtype=bool)]  # mask of the wrong length


# --------------------------------------------------------------------- #
# PropagatedView
# --------------------------------------------------------------------- #
class TestPropagatedView:
    def test_gather_resolves_dirty_and_clean_rows(self, rng):
        base_product = rng.normal(size=(6, 3))
        dirty_rows = np.array([1, 4, 6, 7])  # rows 6, 7 are appended
        dirty_values = rng.normal(size=(4, 3))
        view = PropagatedView(base_product, dirty_rows, dirty_values, num_rows=8)
        assert view.shape == (8, 3)
        np.testing.assert_array_equal(view[np.array([0, 5])], base_product[[0, 5]])
        np.testing.assert_array_equal(view[np.array([1, 7])], dirty_values[[0, 3]])
        mixed = view.gather(np.array([4, 0, 6]))
        np.testing.assert_array_equal(
            mixed, np.vstack([dirty_values[1], base_product[0], dirty_values[2]])
        )

    def test_materialize_scatter(self, rng):
        base_product = rng.normal(size=(4, 2))
        view = PropagatedView(
            base_product, np.array([2, 4]), rng.normal(size=(2, 2)), num_rows=5
        )
        full = view.materialize()
        np.testing.assert_array_equal(full[[0, 1, 3]], base_product[[0, 1, 3]])
        np.testing.assert_array_equal(full[2], view.dirty_values[0])
        np.testing.assert_array_equal(full[4], view.dirty_values[1])
        assert view.materialize() is full

    def test_row_count_validation(self, rng):
        with pytest.raises(GraphValidationError):
            PropagatedView(
                rng.normal(size=(6, 2)), np.array([0]), rng.normal(size=(1, 2)), 5
            )

    def test_boolean_mask_selects_rows_not_indices(self, rng):
        base_product = rng.normal(size=(4, 2))
        view = PropagatedView(
            base_product, np.array([1, 4]), rng.normal(size=(2, 2)), num_rows=5
        )
        mask = np.array([True, False, False, True, True])
        np.testing.assert_array_equal(view[mask], view.materialize()[mask])

    def test_negative_indices_wrap_like_ndarray(self, rng):
        base_product = rng.normal(size=(4, 2))
        view = PropagatedView(
            base_product, np.array([1, 4]), rng.normal(size=(2, 2)), num_rows=5
        )
        full = view.materialize()
        np.testing.assert_array_equal(view[-1], full[-1])
        np.testing.assert_array_equal(
            view[np.array([-5, -2])], full[np.array([-5, -2])]
        )
        with pytest.raises(IndexError):
            view.gather(np.array([5]))


class TestArrayCoercion:
    """``np.asarray`` / ``Tensor`` over a view reuse the cached matrix when
    the dtype already matches; another dtype or ``copy`` still copies."""

    @pytest.fixture(params=["stacked", "propagated"])
    def view(self, request, rng):
        if request.param == "stacked":
            return StackedFeatures(rng.normal(size=(5, 3)), rng.normal(size=(2, 3)))
        return PropagatedView(
            rng.normal(size=(5, 3)), np.array([1, 6]), rng.normal(size=(2, 3)), num_rows=7
        )

    def test_float64_coercion_shares_the_cache(self, view):
        cached = view.materialize()
        assert np.shares_memory(np.asarray(view, dtype=np.float64), cached)
        assert np.shares_memory(np.asarray(view), cached)
        assert np.shares_memory(Tensor(view).data, cached)

    def test_other_dtype_or_copy_returns_a_copy(self, view):
        cached = view.materialize()
        as_float32 = np.asarray(view, dtype=np.float32)
        assert as_float32.dtype == np.float32
        np.testing.assert_array_equal(as_float32, cached.astype(np.float32))
        copied = np.array(view)
        assert not np.shares_memory(copied, cached)
        np.testing.assert_array_equal(copied, cached)

    def test_graph_view_features_share_the_cache(self, small_graph, rng):
        view = poison_graph_view(small_graph, *_trigger_blocks(small_graph, rng))
        cached = view.features.materialize()
        assert np.shares_memory(np.asarray(view.features, dtype=np.float64), cached)
        assert np.shares_memory(Tensor(view.features).data, cached)


# --------------------------------------------------------------------- #
# GraphView + poison_graph_view
# --------------------------------------------------------------------- #
class TestGraphView:
    def test_poison_view_matches_materialised_content(self, small_graph, rng):
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        view = poison_graph_view(small_graph, targets, features, adjacency)
        materialised = view.materialize()
        assert view.num_nodes == materialised.num_nodes
        assert (view.adjacency != materialised.adjacency).nnz == 0
        np.testing.assert_array_equal(
            view.features.gather(np.arange(view.num_nodes)), materialised.features
        )
        np.testing.assert_array_equal(view.labels, materialised.labels)
        np.testing.assert_array_equal(
            view.derivation.changed_nodes, np.unique(targets)
        )
        assert view.derivation.base is small_graph
        assert materialised.derivation.base is small_graph

    def test_default_labels_and_split(self, small_graph, rng):
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        view = poison_graph_view(small_graph, targets, features, adjacency)
        num_new = targets.size * features.shape[1]
        np.testing.assert_array_equal(view.labels[: small_graph.num_nodes], small_graph.labels)
        assert (view.labels[small_graph.num_nodes :] == 0).all()
        assert view.labels.size == small_graph.num_nodes + num_new
        assert view.split is small_graph.split
        assert view.trigger_node_index.shape == (targets.size, features.shape[1])

    def test_versions_and_cache_keys_are_distinct(self, small_graph, rng):
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        first = poison_graph_view(small_graph, targets, features, adjacency)
        second = poison_graph_view(small_graph, targets, features, adjacency)
        assert first.version != second.version
        assert first.cache_key != second.cache_key
        assert first.cache_key[0] == small_graph.version

    def test_feature_dim_mismatch_rejected(self, small_graph, rng):
        targets = np.array([0, 1])
        bad_features = rng.normal(size=(2, 2, small_graph.num_features + 1))
        adjacency = np.ones((2, 2, 2))
        with pytest.raises(GraphValidationError):
            poison_graph_view(small_graph, targets, bad_features, adjacency)

    def test_views_cannot_stack_on_views(self, small_graph, rng):
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        view = poison_graph_view(small_graph, targets, features, adjacency)
        with pytest.raises(GraphValidationError):
            GraphView(
                base=view,
                adjacency=view.adjacency,
                overlay_features=np.zeros((0, view.num_features)),
                labels=view.labels,
            )


# --------------------------------------------------------------------- #
# Cache integration: difference-form propagation, keys, shards
# --------------------------------------------------------------------- #
class TestCacheViewIntegration:
    def test_propagated_view_is_exact(self, small_graph, rng):
        cache = PropagationCache()
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        view = poison_graph_view(small_graph, targets, features, adjacency)
        result = cache.propagated_view(view, 2)
        assert isinstance(result, PropagatedView)
        reference = sgc_precompute(
            view.adjacency, view.features.materialize(), 2
        )
        np.testing.assert_allclose(result.materialize(), reference, rtol=0.0, atol=1e-10)
        rows = np.array([0, 5, small_graph.num_nodes, view.num_nodes - 1])
        np.testing.assert_allclose(result.gather(rows), reference[rows], rtol=0.0, atol=1e-10)

    def test_propagated_view_then_materialised_product(self, small_graph, rng):
        """propagated() after propagated_view() reuses the difference form."""
        cache = PropagationCache()
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        view = poison_graph_view(small_graph, targets, features, adjacency)
        lazy = cache.propagated_view(view, 2)
        misses = cache.misses
        full = cache.propagated(view, 2)
        assert cache.misses == misses  # served from the resident view
        np.testing.assert_array_equal(full, lazy.materialize())

    def test_shared_overlay_key_shares_entries(self, small_graph, rng):
        cache = PropagationCache()
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        first = poison_graph_view(
            small_graph, targets, features, adjacency, overlay_key="epoch-0"
        )
        second = poison_graph_view(
            small_graph, targets, features, adjacency, overlay_key="epoch-0"
        )
        assert first.cache_key == second.cache_key
        product = cache.propagated_view(first, 2)
        hits = cache.hits
        assert cache.propagated_view(second, 2) is product
        assert cache.hits == hits + 1

    def test_view_stream_stays_in_base_shard(self, small_graph, rng):
        cache = PropagationCache(max_graphs=2, max_shards=2)
        for _ in range(5):
            targets, features, adjacency = _trigger_blocks(small_graph, rng)
            view = poison_graph_view(small_graph, targets, features, adjacency)
            cache.propagated_view(view, 2)
        stats = cache.stats()
        assert stats["shards"] == 1
        assert stats["graphs"] <= 2
        # Steady state: base chain resident, each view costs exactly
        # normalize + propagate.
        before = cache.misses
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        cache.propagated_view(
            poison_graph_view(small_graph, targets, features, adjacency), 2
        )
        assert cache.misses - before == 2

    def test_incremental_normalize_on_views(self, small_graph, rng):
        from repro.graph.normalize import gcn_normalize

        cache = PropagationCache()
        cache.normalized(small_graph)
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        view = poison_graph_view(small_graph, targets, features, adjacency)
        normalized = cache.normalized(view)
        assert cache.stats()["incremental_normalizations"] == 1
        diff = (normalized - gcn_normalize(view.adjacency)).tocsr()
        max_err = float(np.abs(diff.data).max()) if diff.nnz else 0.0
        assert max_err <= 1e-10


# --------------------------------------------------------------------- #
# Warm-start surrogate (cross-epoch batching)
# --------------------------------------------------------------------- #
class TestSurrogateWarmStart:
    def test_condenser_warm_start_tracks_step_count(self, small_graph):
        config = CondensationConfig(
            epochs=1, ratio=0.2, surrogate_warm_start=True,
            surrogate_steps=6, surrogate_refresh_steps=2,
        )
        condenser = GCondX(config, cache=PropagationCache())
        condenser.initialize(small_graph, new_rng(0))
        condenser.epoch_step()
        assert condenser._state.surrogate_steps_done == 6  # cold first epoch
        condenser.epoch_step()
        assert condenser._state.surrogate_steps_done == 8  # +refresh only
        condenser.reset_surrogate()
        assert condenser._state.surrogate_steps_done == 0

    def test_cold_path_is_unaffected_by_state_fields(self, small_graph):
        """Default config: every epoch_step retrains from scratch (reference)."""
        cache = PropagationCache()
        config = CondensationConfig(epochs=1, ratio=0.2)
        condenser = GCondX(config, cache=cache)
        condenser.initialize(small_graph, new_rng(0))
        condenser.epoch_step()
        assert condenser._state.surrogate_moments is None
        assert condenser._state.surrogate_steps_done == 0

    def test_bgc_warm_start_is_deterministic(self, small_graph):
        def run_once():
            attack = BGC(
                BGCConfig(
                    poison_number=3,
                    epochs=3,
                    surrogate_warm_start=True,
                    surrogate_steps=6,
                    surrogate_refresh_steps=2,
                    trigger=TriggerConfig(trigger_size=2, hidden=16),
                )
            )
            condenser = GCondX(
                CondensationConfig(epochs=1, ratio=0.2), cache=PropagationCache()
            )
            return attack.run(small_graph, condenser, new_rng(11))

        first, second = run_once(), run_once()
        assert first.history == second.history
        np.testing.assert_array_equal(
            first.condensed.features, second.condensed.features
        )

    def test_bgc_warm_state_resets_between_runs(self, small_graph):
        attack = BGC(
            BGCConfig(
                poison_number=2, epochs=1, surrogate_warm_start=True,
                trigger=TriggerConfig(trigger_size=2, hidden=16),
            )
        )
        condenser = GCondX(
            CondensationConfig(epochs=1, ratio=0.2), cache=PropagationCache()
        )
        attack.run(small_graph, condenser, new_rng(1))
        state_after_first = attack._surrogate_state
        condenser = GCondX(
            CondensationConfig(epochs=1, ratio=0.2), cache=PropagationCache()
        )
        attack.run(small_graph, condenser, new_rng(1))
        assert attack._surrogate_state is not state_after_first


# --------------------------------------------------------------------- #
# Trainer boundary
# --------------------------------------------------------------------- #
class TestTrainerViewBoundary:
    def test_trainer_accepts_stacked_features(self, small_graph, rng):
        targets, features, adjacency = _trigger_blocks(small_graph, rng)
        view = poison_graph_view(small_graph, targets, features, adjacency)
        model = GCN(
            in_features=view.num_features,
            num_classes=view.num_classes,
            rng=new_rng(0),
            hidden=8,
        )
        trainer = Trainer(model, TrainingConfig(epochs=3, patience=2))
        result = trainer.fit(
            view.adjacency,
            view.features,
            view.labels,
            train_index=view.split.train,
        )
        assert np.isfinite(result.final_train_loss)
        accuracy = trainer.evaluate(
            view.adjacency, view.features, view.labels, view.split.test
        )
        assert 0.0 <= accuracy <= 1.0
