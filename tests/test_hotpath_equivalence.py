"""Equivalence tests pinning every attack-loop fast path to its slow reference.

Each fast path is pinned here to the reference implementation it replaced,
at ``atol=1e-10``:

* ``batched_local_trigger_loss`` vs the per-node ``local_trigger_loss`` —
  same loss *and* same parameter gradients;
* CSR-surgery ``attach_trigger_subgraph`` vs the COO-rebuild reference —
  identical sparse matrices (indptr / indices / data);
* ``incremental_gcn_normalize`` (and its ``PropagationCache`` integration)
  vs a full ``gcn_normalize`` — under single-row and multi-row deltas;
* the zero-copy :class:`~repro.graph.view.GraphView` path (stacked-block
  features, difference-form propagation) vs the materialised
  ``GraphData.with_delta`` path — same condensation metrics *and* same
  synthetic-graph gradients, for the gradient-matching and GC-SNTK
  condensers and for a full BGC run;
* the poisoned-node selector training on CSR features vs the dense-feature
  reference (``tests/reference/selection.py``) — hidden representations
  within ``atol``, identical selected nodes on cora and citeseer.
"""

from __future__ import annotations

import gc
import os
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.attack.selection import RepresentativeNodeSelector
from repro.attack.trigger import (
    TriggerConfig,
    TriggerGenerator,
    UniversalTriggerGenerator,
    batched_local_trigger_loss,
    local_trigger_loss,
)
from repro.autograd import Tensor
from repro.condensation.gradient_matching import all_class_model_gradients
from repro.datasets import load_dataset
from repro.exceptions import ConfigurationError, GraphValidationError
from repro.graph.blocked import (
    BlockedArray,
    blocked_precompute_hops,
    blocked_spmm,
    set_blocked_threshold,
)
from repro.graph.cache import PropagationCache
from repro.graph.data import GraphData
from repro.graph.generators import stochastic_block_model
from repro.graph.normalize import (
    gcn_normalize,
    incremental_gcn_normalize,
    self_loop_degrees,
)
from repro.graph.propagation import sgc_precompute, sgc_precompute_hops
from repro.graph.view import PropagatedView
from repro.models.gcn import GCN
from repro.models.trainer import Trainer, TrainingConfig
from repro.utils.seed import new_rng

from reference.selection import DenseFeatureSelector
from reference.subgraph import (
    MaterialisedBGC,
    attach_trigger_subgraph,
    attach_trigger_subgraph_coo,
)

ATOL = 1e-10


def sparse_max_abs_diff(a: sp.spmatrix, b: sp.spmatrix) -> float:
    diff = (a - b).tocsr()
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


# --------------------------------------------------------------------- #
# Batched vs per-node trigger loss
# --------------------------------------------------------------------- #
class TestBatchedTriggerLossEquivalence:
    def _reference(self, nodes, graph, inputs, generator, weight, **kwargs):
        total = None
        for node in nodes:
            loss = local_trigger_loss(
                int(node), graph, inputs, generator, weight, **kwargs
            )
            total = loss if total is None else total + loss
        return total * (1.0 / len(nodes))

    @pytest.mark.parametrize("generator_cls", [TriggerGenerator, UniversalTriggerGenerator])
    @pytest.mark.parametrize("max_neighbors", [2, 10])
    def test_loss_and_gradients_match(self, small_graph, generator_cls, max_neighbors):
        generator = generator_cls(
            small_graph.num_features, new_rng(0), TriggerConfig(trigger_size=3, hidden=16)
        )
        generator.calibrate(small_graph.features)
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        weight = Tensor(
            new_rng(1).normal(size=(small_graph.num_features, small_graph.num_classes))
        )
        nodes = np.array([0, 5, 17, 40, 88])
        kwargs = dict(target_class=1, max_neighbors=max_neighbors, num_hops=2)

        for parameter in generator.parameters():
            parameter.zero_grad()
        reference = self._reference(nodes, small_graph, inputs, generator, weight, **kwargs)
        reference.backward()
        reference_grads = [p.grad.copy() for p in generator.parameters()]

        for parameter in generator.parameters():
            parameter.zero_grad()
        batched = batched_local_trigger_loss(
            nodes, small_graph, inputs, generator, weight, **kwargs
        )
        batched.backward()

        assert abs(batched.item() - reference.item()) <= ATOL
        for reference_grad, parameter in zip(reference_grads, generator.parameters()):
            assert parameter.grad is not None
            np.testing.assert_allclose(parameter.grad, reference_grad, atol=ATOL)

    @pytest.mark.parametrize("encoder", ["mlp", "gcn", "transformer"])
    def test_all_encoders_match(self, small_graph, encoder):
        generator = TriggerGenerator(
            small_graph.num_features,
            new_rng(2),
            TriggerConfig(trigger_size=2, hidden=16, encoder=encoder),
        )
        generator.calibrate(small_graph.features)
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        weight = Tensor(
            new_rng(3).normal(size=(small_graph.num_features, small_graph.num_classes))
        )
        nodes = np.array([1, 2, 30])
        kwargs = dict(target_class=0, max_neighbors=4, num_hops=2)
        reference = self._reference(nodes, small_graph, inputs, generator, weight, **kwargs)
        batched = batched_local_trigger_loss(
            nodes, small_graph, inputs, generator, weight, **kwargs
        )
        assert abs(batched.item() - reference.item()) <= ATOL

    def test_isolated_node_in_batch(self, small_graph):
        adjacency = small_graph.adjacency.tolil()
        adjacency[0, :] = 0
        adjacency[:, 0] = 0
        isolated = small_graph.with_(adjacency=sp.csr_matrix(adjacency))
        generator = TriggerGenerator(
            isolated.num_features, new_rng(4), TriggerConfig(trigger_size=2, hidden=16)
        )
        inputs = generator.encode_inputs(isolated.adjacency, isolated.features)
        weight = Tensor(
            new_rng(5).normal(size=(isolated.num_features, isolated.num_classes))
        )
        nodes = np.array([0, 7, 20])  # node 0 is isolated -> blocks of mixed size
        kwargs = dict(target_class=0, max_neighbors=10, num_hops=2)
        reference = self._reference(nodes, isolated, inputs, generator, weight, **kwargs)
        batched = batched_local_trigger_loss(
            nodes, isolated, inputs, generator, weight, **kwargs
        )
        assert abs(batched.item() - reference.item()) <= ATOL

    def test_single_node_batch_matches_reference(self, small_graph):
        generator = TriggerGenerator(
            small_graph.num_features, new_rng(6), TriggerConfig(trigger_size=2, hidden=16)
        )
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        weight = Tensor(
            new_rng(7).normal(size=(small_graph.num_features, small_graph.num_classes))
        )
        kwargs = dict(target_class=2, max_neighbors=10, num_hops=2)
        reference = local_trigger_loss(
            3, small_graph, inputs, generator, weight, **kwargs
        )
        batched = batched_local_trigger_loss(
            np.array([3]), small_graph, inputs, generator, weight, **kwargs
        )
        assert abs(batched.item() - reference.item()) <= ATOL


# --------------------------------------------------------------------- #
# CSR surgery vs COO rebuild
# --------------------------------------------------------------------- #
class TestAttachmentEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_identical_sparse_matrices(self, seed):
        rng = new_rng(seed)
        adjacency = stochastic_block_model(
            rng.integers(6, 25, size=3), p_in=0.3, p_out=0.05, rng=rng
        )
        n = adjacency.shape[0]
        num_features = int(rng.integers(3, 9))
        features = rng.normal(size=(n, num_features))
        num_targets = int(rng.integers(1, 6))
        trigger_size = int(rng.integers(1, 5))
        targets = rng.integers(0, n, size=num_targets)  # duplicates allowed
        trigger_features = rng.normal(size=(num_targets, trigger_size, num_features))
        trigger_adjacency = (
            rng.random((num_targets, trigger_size, trigger_size)) < 0.4
        ).astype(np.float64)

        fast_adj, fast_feat, fast_map = attach_trigger_subgraph(
            adjacency, features, targets, trigger_features, trigger_adjacency
        )
        slow_adj, slow_feat, slow_map = attach_trigger_subgraph_coo(
            adjacency, features, targets, trigger_features, trigger_adjacency
        )
        np.testing.assert_array_equal(
            fast_adj.indptr.astype(np.int64), slow_adj.indptr.astype(np.int64)
        )
        np.testing.assert_array_equal(
            fast_adj.indices.astype(np.int64), slow_adj.indices.astype(np.int64)
        )
        np.testing.assert_array_equal(fast_adj.data, slow_adj.data)
        np.testing.assert_array_equal(fast_feat, slow_feat)
        np.testing.assert_array_equal(fast_map, slow_map)

    def test_weighted_host_edges_preserved_identically(self):
        """Host weights survive attachment (clamping them would silently
        rewrite rows outside any recorded delta)."""
        adjacency = sp.csr_matrix(np.array([[0.0, 2.5], [2.5, 0.0]]))
        features = np.ones((2, 3))
        trigger_features = np.ones((1, 2, 3))
        trigger_adjacency = np.ones((1, 2, 2))
        fast_adj, _, _ = attach_trigger_subgraph(
            adjacency, features, np.array([0]), trigger_features, trigger_adjacency
        )
        slow_adj, _, _ = attach_trigger_subgraph_coo(
            adjacency, features, np.array([0]), trigger_features, trigger_adjacency
        )
        assert (fast_adj != slow_adj).nnz == 0
        assert fast_adj[0, 1] == 2.5 and fast_adj[1, 0] == 2.5

    def test_weighted_host_keeps_delta_contract_through_cache(self):
        """End-to-end: attaching triggers to a *weighted* host graph must not
        perturb unchanged rows, so cached incremental propagation and
        renormalisation stay exact against full recomputes."""
        from repro.graph.propagation import sgc_precompute
        from repro.graph.splits import SplitIndices

        rng = new_rng(31)
        adjacency = stochastic_block_model(
            np.array([15, 15]), p_in=0.3, p_out=0.05, rng=rng
        ).tolil()
        adjacency[2, 3] = 3.0  # weighted edge between two non-target nodes
        adjacency[3, 2] = 3.0
        adjacency = sp.csr_matrix(adjacency)
        n = adjacency.shape[0]
        graph = GraphData(
            adjacency=adjacency,
            features=rng.normal(size=(n, 6)),
            labels=np.zeros(n, dtype=np.int64),
            split=SplitIndices(
                train=np.arange(n), val=np.zeros(0, np.int64), test=np.zeros(0, np.int64)
            ),
        )
        cache = PropagationCache()
        cache.propagated(graph, 2)  # resident base chain + operator
        targets = np.array([10, 20])
        new_adj, new_feat, _ = attach_trigger_subgraph(
            graph.adjacency, graph.features, targets,
            rng.normal(size=(2, 2, 6)), np.ones((2, 2, 2)),
        )
        poisoned = graph.with_delta(
            targets,
            adjacency=new_adj,
            features=new_feat,
            labels=np.zeros(new_adj.shape[0], dtype=np.int64),
        )
        assert (
            sparse_max_abs_diff(cache.normalized(poisoned), gcn_normalize(new_adj))
            <= ATOL
        )
        np.testing.assert_allclose(
            cache.propagated(poisoned, 2), sgc_precompute(new_adj, new_feat, 2), atol=ATOL
        )


# --------------------------------------------------------------------- #
# Incremental vs full gcn_normalize
# --------------------------------------------------------------------- #
def _random_graph(seed: int) -> sp.csr_matrix:
    rng = new_rng(seed)
    return stochastic_block_model(
        rng.integers(10, 30, size=3), p_in=0.3, p_out=0.05, rng=rng
    )


class TestIncrementalNormalizeEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_single_row_delta(self, seed):
        adjacency = _random_graph(seed)
        n = adjacency.shape[0]
        base_normalized = gcn_normalize(adjacency)
        base_degrees = self_loop_degrees(adjacency)
        # Flip one edge (i, j): exactly the rows {i, j} change.
        rng = new_rng(seed + 100)
        i, j = 0, int(rng.integers(1, n))
        lil = adjacency.tolil()
        value = 0.0 if lil[i, j] else 1.0
        lil[i, j] = value
        lil[j, i] = value
        derived = sp.csr_matrix(lil)
        incremental, degrees = incremental_gcn_normalize(
            derived, base_normalized, base_degrees, np.array([i, j])
        )
        full = gcn_normalize(derived)
        assert sparse_max_abs_diff(incremental, full) <= ATOL
        np.testing.assert_allclose(degrees, self_loop_degrees(derived), atol=ATOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_row_delta_with_appended_rows(self, seed):
        adjacency = _random_graph(seed)
        n = adjacency.shape[0]
        rng = new_rng(seed + 200)
        features = rng.normal(size=(n, 4))
        targets = np.unique(rng.integers(0, n, size=4))
        trigger_features = rng.normal(size=(targets.size, 3, 4))
        trigger_adjacency = (rng.random((targets.size, 3, 3)) < 0.5).astype(np.float64)
        derived, _, _ = attach_trigger_subgraph(
            adjacency, features, targets, trigger_features, trigger_adjacency
        )
        incremental, degrees = incremental_gcn_normalize(
            derived, gcn_normalize(adjacency), self_loop_degrees(adjacency), targets
        )
        full = gcn_normalize(derived)
        assert sparse_max_abs_diff(incremental, full) <= ATOL
        np.testing.assert_allclose(degrees, self_loop_degrees(derived), atol=ATOL)

    def test_nonpositive_degree_rows_match_full_recompute(self):
        """Negative edge weights can drive a self-loop degree to zero.

        ``gcn_normalize`` zeroes such rows instead of emitting NaNs; the
        incremental path must do the same — both when a changed row's *new*
        degree collapses and when a collapsed base row's degree recovers.
        """
        adjacency = sp.csr_matrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        )
        base_normalized = gcn_normalize(adjacency)
        base_degrees = self_loop_degrees(adjacency)
        collapsed = adjacency.tolil()
        collapsed[0, 1] = -1.0  # self-loop-inclusive degree of row 0 becomes 0
        collapsed[1, 0] = -1.0
        collapsed = sp.csr_matrix(collapsed)
        incremental, degrees = incremental_gcn_normalize(
            collapsed, base_normalized, base_degrees, np.array([0, 1])
        )
        full = gcn_normalize(collapsed)
        assert np.all(np.isfinite(incremental.data))
        assert sparse_max_abs_diff(incremental, full) <= ATOL
        # And the reverse delta: the collapsed row recovers a positive degree.
        recovered, degrees_back = incremental_gcn_normalize(
            adjacency, incremental, degrees, np.array([0, 1])
        )
        assert sparse_max_abs_diff(recovered, base_normalized) <= ATOL
        np.testing.assert_allclose(degrees_back, base_degrees, atol=ATOL)

    def test_degree_recovery_resurrects_unchanged_neighbor_entries(self):
        """A recovered column must reappear in *unchanged* adjacent rows.

        Base: node 1 has self-loop degree 0 (negative weight on edge (1, 2)),
        so column 1 of the base operator is all zeros — including in row 0,
        which the delta does not touch.  Removing edge (1, 2) recovers node
        1's degree; the fix-up cannot rescale a missing entry, so row 0 must
        be folded into the full-recompute set.
        """
        base = sp.csr_matrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -2.0], [0.0, -2.0, 0.0]])
        )
        base_normalized = gcn_normalize(base)
        base_degrees = self_loop_degrees(base)
        derived = sp.csr_matrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        )
        # Per the GraphDelta contract row 0's incident edges are unchanged,
        # so only rows 1 and 2 are listed.
        incremental, degrees = incremental_gcn_normalize(
            derived, base_normalized, base_degrees, np.array([1, 2])
        )
        full = gcn_normalize(derived)
        assert sparse_max_abs_diff(incremental, full) <= ATOL
        np.testing.assert_allclose(degrees, self_loop_degrees(derived), atol=ATOL)
        assert abs(incremental[0, 1] - 0.5) <= ATOL  # the resurrected entry

    def test_cache_uses_incremental_path_and_stays_exact(self, small_graph):
        cache = PropagationCache()
        cache.normalized(small_graph)  # residence for the base operator
        rng = new_rng(9)
        targets = np.array([3, 40, 77])
        trigger_features = rng.normal(size=(3, 2, small_graph.num_features))
        trigger_adjacency = np.ones((3, 2, 2))
        new_adj, new_feat, _ = attach_trigger_subgraph(
            small_graph.adjacency, small_graph.features, targets,
            trigger_features, trigger_adjacency,
        )
        labels = np.concatenate([small_graph.labels, np.zeros(6, dtype=np.int64)])
        poisoned = small_graph.with_delta(
            targets, adjacency=new_adj, features=new_feat, labels=labels
        )
        normalized = cache.normalized(poisoned)
        assert cache.stats()["incremental_normalizations"] == 1
        assert sparse_max_abs_diff(normalized, gcn_normalize(new_adj)) <= ATOL
        # And the propagated features stay exact on top of it.
        from repro.graph.propagation import sgc_precompute

        propagated = cache.propagated(poisoned, 2)
        np.testing.assert_allclose(
            propagated, sgc_precompute(new_adj, new_feat, 2), atol=ATOL
        )

    def test_metadata_variant_shares_base_operator(self, small_graph):
        cache = PropagationCache()
        base_normalized = cache.normalized(small_graph)
        variant = small_graph.with_(labels=small_graph.labels.copy())
        assert cache.normalized(variant) is base_normalized
        assert cache.stats()["incremental_normalizations"] == 0


# --------------------------------------------------------------------- #
# Zero-copy GraphView vs materialised poisoned GraphData
# --------------------------------------------------------------------- #
def _poisoned_pair(graph, seed: int, num_targets: int = 3, trigger_size: int = 2):
    """A (view, materialised) pair of identical poisoned-graph content."""
    from repro.graph.view import poison_graph_view

    rng = new_rng(seed)
    targets = np.sort(rng.choice(graph.num_nodes, size=num_targets, replace=False))
    trigger_features = rng.normal(size=(num_targets, trigger_size, graph.num_features))
    trigger_adjacency = (
        rng.random((num_targets, trigger_size, trigger_size)) < 0.5
    ).astype(np.float64)
    view = poison_graph_view(graph, targets, trigger_features, trigger_adjacency)
    new_adj, new_feat, _ = attach_trigger_subgraph(
        graph.adjacency, graph.features, targets, trigger_features, trigger_adjacency
    )
    materialised = graph.with_delta(
        targets,
        adjacency=new_adj,
        features=new_feat,
        labels=view.labels.copy(),
    )
    return view, materialised


class TestGraphViewEquivalence:
    def test_view_content_is_identical(self, small_graph):
        view, materialised = _poisoned_pair(small_graph, seed=41)
        np.testing.assert_array_equal(
            view.adjacency.indptr.astype(np.int64),
            materialised.adjacency.indptr.astype(np.int64),
        )
        np.testing.assert_array_equal(
            view.adjacency.indices.astype(np.int64),
            materialised.adjacency.indices.astype(np.int64),
        )
        np.testing.assert_array_equal(view.adjacency.data, materialised.adjacency.data)
        np.testing.assert_array_equal(
            view.features.materialize(), materialised.features
        )

    def test_propagated_rows_bit_identical(self, small_graph):
        """The difference-form product gathers the exact same floats the
        materialised incremental product holds (same kernel, same inputs)."""
        view, materialised = _poisoned_pair(small_graph, seed=42)
        view_cache, mat_cache = PropagationCache(), PropagationCache()
        lazy = view_cache.propagated_view(view, 2)
        full = mat_cache.propagated(materialised, 2)
        rows = np.arange(view.num_nodes)
        np.testing.assert_array_equal(lazy.gather(rows), full)

    @pytest.mark.parametrize("condenser_name", ["gcond-x", "gcond", "gc-sntk"])
    def test_epoch_step_metrics_and_gradients_match(self, small_graph, condenser_name):
        """One condensation epoch on the view == one on the materialised graph.

        Compares the matching loss, the synthetic features after the update
        (i.e. the applied gradient) and the surrogate weight, at atol 1e-10.
        """
        from repro.condensation import make_condenser
        from repro.condensation.base import CondensationConfig

        results = []
        for variant in range(2):
            condenser = make_condenser(
                condenser_name, CondensationConfig(epochs=1, ratio=0.2)
            )
            condenser._cache = PropagationCache()
            condenser.initialize(small_graph, new_rng(5))
            view, materialised = _poisoned_pair(small_graph, seed=43)
            poisoned = view if variant == 0 else materialised
            loss = condenser.epoch_step(poisoned)
            results.append((loss, condenser.synthetic().features))
        (view_loss, view_features), (mat_loss, mat_features) = results
        assert abs(view_loss - mat_loss) <= ATOL
        np.testing.assert_allclose(view_features, mat_features, rtol=0.0, atol=ATOL)

    def test_bgc_view_matches_materialised_bgc(self, small_graph):
        """BGC (view) vs MaterialisedBGC: same history, same condensed graph."""
        from repro.attack.bgc import BGC, BGCConfig
        from repro.attack.trigger import TriggerConfig
        from repro.condensation.base import CondensationConfig
        from repro.condensation.gcond import GCondX

        def run(attack_cls):
            attack = attack_cls(
                BGCConfig(
                    poison_number=3,
                    epochs=2,
                    trigger=TriggerConfig(trigger_size=2, hidden=16),
                )
            )
            condenser = GCondX(
                CondensationConfig(epochs=1, ratio=0.2), cache=PropagationCache()
            )
            return attack.run(small_graph, condenser, new_rng(13))

        with_view, without_view = run(BGC), run(MaterialisedBGC)
        assert with_view.history == without_view.history
        np.testing.assert_array_equal(
            with_view.condensed.features, without_view.condensed.features
        )
        np.testing.assert_array_equal(
            with_view.poisoned_nodes, without_view.poisoned_nodes
        )

    @pytest.mark.parametrize("condenser", ["gcond", "dc-graph", "gc-sntk"])
    def test_bgc_view_matches_materialised_bgc_under_every_condenser(
        self, small_graph, condenser
    ):
        """Structure-learning, one-step and KRR condensers all see the same
        poisoned graph through the overlay as through the materialised one."""
        from repro.attack.bgc import BGC, BGCConfig
        from repro.attack.trigger import TriggerConfig
        from repro.condensation.base import CondensationConfig
        from repro.condensation.dc_graph import DCGraph
        from repro.condensation.gc_sntk import GCSNTK
        from repro.condensation.gcond import GCond

        condenser_cls = {"gcond": GCond, "dc-graph": DCGraph, "gc-sntk": GCSNTK}[condenser]

        def run(attack_cls):
            attack = attack_cls(
                BGCConfig(
                    poison_number=3,
                    epochs=2,
                    trigger=TriggerConfig(trigger_size=2, hidden=16),
                )
            )
            condenser = condenser_cls(
                CondensationConfig(epochs=1, ratio=0.2), cache=PropagationCache()
            )
            return attack.run(small_graph, condenser, new_rng(13))

        with_view, without_view = run(BGC), run(MaterialisedBGC)
        assert with_view.history == without_view.history
        for part in ("features", "adjacency", "labels"):
            np.testing.assert_array_equal(
                getattr(with_view.condensed, part), getattr(without_view.condensed, part)
            )
        np.testing.assert_array_equal(with_view.poisoned_nodes, without_view.poisoned_nodes)


# --------------------------------------------------------------------- #
# Blocked (out-of-core) propagation vs the dense reference
# --------------------------------------------------------------------- #
@pytest.fixture
def force_blocked():
    """Route every hop chain through the blocked engine for one test."""
    previous = set_blocked_threshold(0)
    yield
    set_blocked_threshold(previous)


def _poison_with_delta(graph, seed: int, num_targets: int = 3, trigger_size: int = 2):
    """A poisoned derived graph (GraphDelta) plus its raw (adj, feat) pair."""
    rng = new_rng(seed)
    targets = np.sort(rng.choice(graph.num_nodes, size=num_targets, replace=False))
    trigger_features = rng.normal(size=(num_targets, trigger_size, graph.num_features))
    trigger_adjacency = (
        rng.random((num_targets, trigger_size, trigger_size)) < 0.5
    ).astype(np.float64)
    new_adj, new_feat, _ = attach_trigger_subgraph(
        graph.adjacency, graph.features, targets, trigger_features, trigger_adjacency
    )
    labels = np.concatenate(
        [graph.labels, np.zeros(new_adj.shape[0] - graph.num_nodes, dtype=np.int64)]
    )
    poisoned = graph.with_delta(
        targets, adjacency=new_adj, features=new_feat, labels=labels
    )
    return poisoned, new_adj, new_feat


class TestBlockedPropagationEquivalence:
    @pytest.mark.parametrize("row_block,col_block", [(7, 3), (16, 256), (1024, 2)])
    def test_blocked_spmm_matches_dense_at_any_tiling(self, row_block, col_block):
        rng = new_rng(51)
        adjacency = stochastic_block_model(
            np.array([20, 20, 20]), p_in=0.3, p_out=0.05, rng=rng
        )
        normalized = gcn_normalize(adjacency)
        features = rng.normal(size=(60, 11))
        dense = normalized @ features
        blocked = blocked_spmm(
            normalized, features, row_block=row_block, col_block=col_block
        )
        assert isinstance(blocked, BlockedArray)
        np.testing.assert_allclose(blocked.materialize(), dense, rtol=0.0, atol=ATOL)
        if row_block >= 60:
            # Single row block: identical summation order => bit-identical.
            np.testing.assert_array_equal(blocked.materialize(), dense)

    def test_single_block_chain_is_bit_identical(self, small_graph):
        normalized = gcn_normalize(small_graph.adjacency)
        dense = sgc_precompute_hops(normalized, small_graph.features, 3)
        blocked = blocked_precompute_hops(
            normalized, small_graph.features, 3, row_block=small_graph.num_nodes
        )
        assert blocked[0] is not None and not isinstance(blocked[0], BlockedArray)
        for dense_hop, blocked_hop in zip(dense[1:], blocked[1:]):
            assert isinstance(blocked_hop, BlockedArray)
            np.testing.assert_array_equal(blocked_hop.materialize(), dense_hop)

    def test_multi_block_chain_matches_to_tolerance(self, small_graph):
        normalized = gcn_normalize(small_graph.adjacency)
        dense = sgc_precompute_hops(normalized, small_graph.features, 3)
        blocked = blocked_precompute_hops(
            normalized, small_graph.features, 3, row_block=13, col_block=5
        )
        for dense_hop, blocked_hop in zip(dense[1:], blocked[1:]):
            np.testing.assert_allclose(
                blocked_hop.materialize(), dense_hop, rtol=0.0, atol=ATOL
            )

    def test_cache_routes_above_threshold_and_stays_exact(
        self, small_graph, force_blocked
    ):
        cache = PropagationCache()
        product = cache.propagated(small_graph, 2)
        assert isinstance(product, BlockedArray)
        reference = sgc_precompute(
            small_graph.adjacency, small_graph.features, 2
        )
        # Default row tile (8192) >= 90 nodes: one block, bit-identical.
        np.testing.assert_array_equal(product.materialize(), reference)
        assert cache.propagated(small_graph, 2) is product  # plain cache hit

    def test_dense_path_still_used_below_threshold(self, small_graph):
        previous = set_blocked_threshold(10**9)
        try:
            cache = PropagationCache()
            product = cache.propagated(small_graph, 2)
            assert isinstance(product, np.ndarray)
        finally:
            set_blocked_threshold(previous)

    def test_incremental_delta_patches_against_blocked_base(
        self, small_graph, force_blocked
    ):
        cache = PropagationCache()
        cache.propagated(small_graph, 2)  # resident blocked base chain
        poisoned, new_adj, new_feat = _poison_with_delta(small_graph, seed=61)
        result = cache.propagated(poisoned, 2)
        assert cache.stats()["incremental_updates"] == 1
        np.testing.assert_allclose(
            np.asarray(result), sgc_precompute(new_adj, new_feat, 2), rtol=0.0, atol=ATOL
        )

    def test_propagated_view_difference_form_over_blocked_base(
        self, small_graph, force_blocked
    ):
        cache = PropagationCache()
        cache.propagated(small_graph, 2)
        poisoned, new_adj, new_feat = _poison_with_delta(small_graph, seed=62)
        view = cache.propagated_view(poisoned, 2)
        assert isinstance(view, PropagatedView)
        assert isinstance(view.base_product, BlockedArray)
        reference = sgc_precompute(new_adj, new_feat, 2)
        rows = np.arange(poisoned.num_nodes)
        np.testing.assert_allclose(view.gather(rows), reference, rtol=0.0, atol=ATOL)

    @pytest.mark.parametrize("block_size", [90, 13])
    def test_blocked_class_gradients_match_dense(self, small_graph, block_size):
        normalized = gcn_normalize(small_graph.adjacency)
        blocked = blocked_spmm(
            normalized, small_graph.features, row_block=block_size
        )
        dense = np.asarray(normalized @ small_graph.features)
        rng = new_rng(63)
        weight = rng.normal(size=(small_graph.num_features, small_graph.num_classes))
        index = small_graph.split.train
        dense_grads = all_class_model_gradients(
            dense, small_graph.labels, weight, index, small_graph.num_classes
        )
        blocked_grads = all_class_model_gradients(
            blocked, small_graph.labels, weight, index, small_graph.num_classes
        )
        assert set(dense_grads) == set(blocked_grads)
        for cls, gradient in dense_grads.items():
            if block_size >= small_graph.num_nodes:
                np.testing.assert_array_equal(blocked_grads[cls], gradient)
            else:
                np.testing.assert_allclose(
                    blocked_grads[cls], gradient, rtol=0.0, atol=ATOL
                )

    def test_threshold_override_validation(self):
        with pytest.raises(ConfigurationError):
            set_blocked_threshold(-1)
        with pytest.raises(ConfigurationError):
            set_blocked_threshold(True)
        previous = set_blocked_threshold(123)
        try:
            assert set_blocked_threshold(previous) == 123
        finally:
            set_blocked_threshold(previous)


class TestBlockedStoreProperties:
    def test_write_rows_spanning_block_boundaries(self):
        rng = new_rng(71)
        mirror = np.zeros((50, 4))
        store = BlockedArray((50, 4), block_size=8)
        # Writes chosen to start mid-block and cross one or more boundaries.
        for start, count in [(0, 3), (5, 10), (14, 20), (47, 3), (20, 0)]:
            values = rng.normal(size=(count, 4))
            store.write_rows(start, values)
            mirror[start : start + count] = values
        np.testing.assert_array_equal(store.materialize(), mirror)
        with pytest.raises(GraphValidationError):
            store.write_rows(48, np.zeros((3, 4)))  # past the last row
        with pytest.raises(GraphValidationError):
            store.write_rows(0, np.zeros((2, 5)))  # wrong width

    def test_gather_and_getitem_mirror_ndarray_semantics(self):
        rng = new_rng(72)
        dense = rng.normal(size=(30, 6))
        store = BlockedArray((30, 6), block_size=7)
        store.write_rows(0, dense)
        rows = np.array([29, 0, 13, 13, 6])  # unsorted, duplicated, cross-block
        np.testing.assert_array_equal(store.gather(rows), dense[rows])
        mask = dense[:, 0] > 0.0
        np.testing.assert_array_equal(store.gather(mask), dense[mask])
        np.testing.assert_array_equal(store[rows, 1:4], dense[rows, 1:4])
        np.testing.assert_array_equal(store[5:20:3], dense[5:20:3])
        np.testing.assert_array_equal(store[np.array([-1, -30])], dense[[-1, -30]])
        np.testing.assert_array_equal(store[4], dense[4])
        np.testing.assert_array_equal(np.asarray(store), dense)
        with pytest.raises(IndexError):
            store.gather(np.array([30]))

    def test_std_matches_numpy(self):
        rng = new_rng(73)
        dense = rng.normal(size=(40, 3))
        single = BlockedArray((40, 3), block_size=64)
        single.write_rows(0, dense)
        assert single.std() == np.std(dense)  # single block: bit-identical
        multi = BlockedArray((40, 3), block_size=9)
        multi.write_rows(0, dense)
        assert abs(multi.std() - np.std(dense)) <= ATOL

    def test_pickle_round_trip_never_deletes_the_owners_files(self):
        rng = new_rng(74)
        dense = rng.normal(size=(20, 5))
        store = BlockedArray((20, 5), block_size=6)
        store.write_rows(0, dense)
        copy = pickle.loads(pickle.dumps(store))
        np.testing.assert_array_equal(copy.materialize(), dense)
        directory = store.directory
        del copy
        gc.collect()
        # The unpickled replica is not the owner: the files must survive it.
        assert os.path.isdir(directory)
        np.testing.assert_array_equal(store.materialize(), dense)

    def test_warm_start_round_trip_with_blocked_chains(
        self, small_graph, force_blocked
    ):
        exporter = PropagationCache()
        reference = exporter.propagated(small_graph, 2).materialize()
        payload = pickle.loads(pickle.dumps(exporter.export_base_chains(small_graph)))
        assert any(isinstance(hop, BlockedArray) for hop in payload["hops"].values())
        receiver = PropagationCache()
        receiver.warm_start(small_graph, payload)
        served = receiver.propagated(small_graph, 2)
        assert receiver.stats()["hits"] == 1 and receiver.stats()["misses"] == 0
        np.testing.assert_array_equal(np.asarray(served), reference)

    def test_block_files_cleaned_up_on_cache_eviction(self, force_blocked):
        from repro.graph.splits import SplitIndices

        cache = PropagationCache(max_graphs=2, max_shards=1)
        empty = np.zeros(0, dtype=np.int64)
        graphs = [
            GraphData(
                adjacency=stochastic_block_model(
                    np.array([10, 10]), p_in=0.4, p_out=0.1, rng=new_rng(80 + i)
                ),
                features=new_rng(90 + i).normal(size=(20, 4)),
                labels=np.zeros(20, dtype=np.int64),
                split=SplitIndices(train=np.arange(20), val=empty, test=empty),
            )
            for i in range(2)
        ]
        directory = cache.propagated(graphs[0], 1).directory
        assert os.path.isdir(directory)
        # A second root graph opens a new shard; max_shards=1 evicts the
        # first shard whole, retiring its entry and dropping the last
        # reference to the blocked product.
        cache.propagated(graphs[1], 1)
        gc.collect()
        assert not os.path.exists(directory)

    def test_scratch_dir_honours_configured_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCKED_DIR", str(tmp_path / "blocked-cache"))
        store = BlockedArray((10, 3), block_size=4)
        assert store.directory.startswith(str(tmp_path / "blocked-cache"))
        assert os.path.isdir(store.directory)
        directory = store.directory
        del store
        gc.collect()
        assert not os.path.exists(directory)


class TestBlockedThresholdResolution:
    """The threshold's own error messages; the memo, environment and override
    contract shared by every knob is pinned in ``tests/test_knobs.py``."""

    def test_malformed_environment_raises_actionable_error(self, monkeypatch):
        from repro.graph.blocked import blocked_threshold

        set_blocked_threshold(None)
        monkeypatch.setenv("REPRO_BLOCKED_THRESHOLD", "banana")
        with pytest.raises(ConfigurationError, match="must be an integer"):
            blocked_threshold()
        monkeypatch.setenv("REPRO_BLOCKED_THRESHOLD", "-5")
        with pytest.raises(ConfigurationError, match=">= 0"):
            blocked_threshold()


# --------------------------------------------------------------------- #
# Sparse-feature selector vs the dense-feature reference
# --------------------------------------------------------------------- #
class TestSparseSelectorEquivalence:
    """The selector GCN on CSR features vs the dense-feature reference.

    Sparse products sum each row in stored-index order, BLAS in its own, so
    the hidden representations agree to rounding rather than bit for bit.
    What the attack consumes — the selected nodes, and the rng draws left
    for the stages after selection — must be identical.
    """

    @pytest.mark.parametrize("dataset", ["cora", "citeseer"])
    @pytest.mark.parametrize("seed", range(6))
    def test_selected_nodes_identical(self, dataset, seed):
        graph = load_dataset(dataset)
        # BGCConfig's default poison ratio, over the training set.
        budget = max(1, int(round(0.1 * graph.split.train.size)))
        sparse, dense = RepresentativeNodeSelector(), DenseFeatureSelector()
        sparse_rng, dense_rng = new_rng(seed), new_rng(seed)
        chosen = sparse.select(graph, budget, 0, sparse_rng)
        expected = dense.select(graph, budget, 0, dense_rng)
        np.testing.assert_allclose(
            sparse._representations, dense._representations, rtol=0, atol=ATOL
        )
        np.testing.assert_array_equal(chosen, expected)
        assert sparse_rng.bit_generator.state == dense_rng.bit_generator.state

    def test_trainer_accepts_csr_features(self, small_graph):
        """Fit and predict on CSR features track the dense run to rounding."""
        graph = small_graph
        results = []
        for features in (graph.features, sp.csr_matrix(graph.features)):
            model = GCN(graph.num_features, graph.num_classes, rng=new_rng(3), hidden=8)
            trainer = Trainer(model, TrainingConfig(epochs=15, patience=15))
            fit = trainer.fit(
                graph.adjacency, features, graph.labels, graph.split.train, graph.split.val
            )
            results.append((fit, model.state_dict(), model.predict(graph.adjacency, features)))
        (dense_fit, dense_state, dense_pred), (sparse_fit, sparse_state, sparse_pred) = results
        assert sparse_fit.best_epoch == dense_fit.best_epoch
        assert abs(sparse_fit.final_train_loss - dense_fit.final_train_loss) <= ATOL
        for name, value in dense_state.items():
            np.testing.assert_allclose(sparse_state[name], value, rtol=0, atol=ATOL)
        np.testing.assert_array_equal(sparse_pred, dense_pred)
