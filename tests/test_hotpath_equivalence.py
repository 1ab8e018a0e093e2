"""Equivalence tests pinning every attack-loop fast path to its slow reference.

Each fast path is pinned here to the reference implementation it replaced,
at ``atol=1e-10``:

* ``batched_local_trigger_loss`` vs the per-node ``local_trigger_loss`` —
  same loss *and* same parameter gradients — and GTA and DOORPING runs on
  the batched loss vs the same runs on the per-node loop
  (``tests/reference/trigger.py``) — same poisoned nodes and condensed
  adjacency, features and generator weights within ``atol``;
* CSR-surgery ``attach_trigger_subgraph`` vs the COO-rebuild reference —
  identical sparse matrices (indptr / indices / data);
* ``incremental_gcn_normalize`` (and its ``PropagationCache`` integration)
  vs a full ``gcn_normalize`` — under single-row and multi-row deltas;
* the zero-copy :class:`~repro.graph.view.GraphView` path (stacked-block
  features, difference-form propagation) vs the materialised delta-carrying
  ``GraphData`` (``tests/reference/subgraph.py``) — same condensation
  metrics *and* same synthetic-graph gradients, for the gradient-matching
  and GC-SNTK condensers and for a full BGC run;
* the poisoned-node selector training on CSR features vs the dense-feature
  reference (``tests/reference/selection.py``) — hidden representations
  within ``atol``, identical selected nodes on cora and citeseer;
* the fused full-batch GCN fit (:class:`~repro.models.gcn.FusedGCNFit`) vs
  the autograd tape (``tests/reference/trainer.py``) — bit-identical
  parameters, model rng state and ``TrainingResult``, not within ``atol``;
* :meth:`~repro.attack.trigger.TriggerGenerator.generate`'s in-place
  feature head vs the generator's tape forward
  (``tests/reference/trigger.py``) — identical trigger bytes;
* the per-block first layer of GCN, MLP, APPNP and GAT on a triggered
  graph's :class:`~repro.graph.view.StackedFeatures` vs the same forward on
  the materialised matrix — logits within ``atol``, identical argmax — and
  an ``evaluate`` stage that never stacks for those four models;
* the triggered graph's trigger rows generated chunk by chunk
  (:class:`~repro.graph.view.ChunkedRows`) and read through one weight
  pass vs the whole-batch ``generate`` stacked into one matrix — logits
  within ``atol``, identical argmax — with set-up and ``evaluate`` on
  cora allocating no full-size temporary (tracemalloc);
* the trigger scaffolds the batched loss builds in one pass vs the per-node
  scipy gathers (``tests/reference/trigger.py``) — identical bytes, over
  weighted, asymmetric, isolated and self-looped adjacency, sampled
  neighbourhoods, repeated nodes and half-cached batches;
* the tape-free ``fit_linear_surrogate`` vs the tape loop
  (``tests/reference/surrogate.py``) — identical weight bytes and rng state;
* ``incremental_sgc_delta`` over a chain that keeps only hop 0 and hop K
  (the cache's) vs the same call over the full stored chain — identical
  dirty rows and value bytes, over K = 1–3, changed/appended/both/no rows,
  weighted, asymmetric, isolated and unsorted-index operators; the
  blocked engine's in-place term sum vs the allocating one — identical
  bytes, one output-size array (tracemalloc); and the gcn trigger encoder
  served from the cache vs ``sgc_precompute`` — identical bytes;
* a base graph's requested hop read row by row
  (:class:`~repro.graph.view.PropagatedRows`) vs ``sgc_precompute_hops`` —
  identical bytes over K = 1–3, the same operator kinds, repeated,
  overlapping, masked and negative row selections, each row computed
  once, and a ``PropagatedView`` over it vs one over the whole product;
  a tiny gcond + bgc cell runs with the row sources refusing to
  materialise.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import multiprocessing
import os
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.attack.selection import RepresentativeNodeSelector
from repro.attack.surrogate import fit_linear_surrogate
from repro.attack.trigger import (
    TriggerConfig,
    TriggerGenerator,
    UniversalTriggerGenerator,
    _local_scaffolds,
    batched_local_trigger_loss,
    generate_hard_triggers,
)
from repro.api import runner
from repro.api.spec import ExperimentSpec
from repro.autograd import Tensor, no_grad
from repro.condensation.base import CondensationConfig, make_condenser
from repro.condensation.gradient_matching import all_class_model_gradients
from repro.datasets import load_dataset
from repro.exceptions import ConfigurationError, GraphValidationError
from repro.graph.blocked import (
    BlockedArray,
    blocked_precompute_hops,
    blocked_spmm,
    set_blocked_threshold,
)
from repro.graph.cache import PropagationCache, set_default_cache
from repro.graph.data import GraphData
from repro.graph.generators import stochastic_block_model
from repro.graph.normalize import (
    gcn_normalize,
    incremental_gcn_normalize,
    self_loop_degrees,
)
from repro.graph.propagation import (
    _base_columns,
    _matmul_hop_product,
    incremental_sgc_delta,
    sgc_precompute,
    sgc_precompute_hops,
)
from repro.evaluation.pipeline import project_triggers, triggered_test_graph
from repro.graph import view as view_module
from repro.graph.view import (
    ChunkedRows,
    PropagatedRows,
    PropagatedView,
    StackedFeatures,
    poison_graph_view,
)
from repro.models import make_model
from repro.models.gcn import GCN, FusedGCNFit
from repro.models.trainer import Trainer, TrainingConfig
from repro.utils.seed import new_rng

from reference.selection import DenseFeatureSelector
from reference.subgraph import (
    MaterialisedBGC,
    attach_trigger_subgraph,
    attach_trigger_subgraph_coo,
    with_delta,
)
from reference.surrogate import tape_fit_linear_surrogate
from reference.trainer import TapeGCN
from reference.trigger import (
    PerNodeDoorping,
    PerNodeGTA,
    local_trigger_loss,
    scaffold_for_node,
    tape_generate,
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


class TestBaselineAttacksMatchPerNodeLoss:
    """GTA and DOORPING on the batched loss vs the per-node loop they used to run."""

    @staticmethod
    def _configs():
        from repro.attack.baselines import DoorpingConfig, GTAConfig
        from repro.attack.selection import SelectionConfig

        shared = dict(
            poison_ratio=0.3,
            update_batch_size=4,
            trigger=TriggerConfig(trigger_size=2, hidden=16),
            selection=SelectionConfig(num_clusters=2, selector_epochs=15),
        )
        return {
            "gta": GTAConfig(generator_epochs=3, surrogate_steps=20, **shared),
            "doorping": DoorpingConfig(epochs=2, trigger_steps=2, surrogate_steps=10, **shared),
        }

    @pytest.mark.parametrize("condenser", ["gcond", "gc-sntk"])
    @pytest.mark.parametrize("attack", ["gta", "doorping"])
    def test_same_nodes_adjacency_and_weights(self, small_graph, attack, condenser):
        from repro.attack.baselines import DoorpingAttack, GTAAttack
        from repro.condensation import CondensationConfig, make_condenser

        shipped_cls, reference_cls = {
            "gta": (GTAAttack, PerNodeGTA),
            "doorping": (DoorpingAttack, PerNodeDoorping),
        }[attack]
        config = self._configs()[attack]

        def run(attack_cls):
            return attack_cls(config).run(
                small_graph,
                make_condenser(condenser, CondensationConfig(epochs=2, ratio=0.2)),
                new_rng(21),
            )

        shipped, reference = run(shipped_cls), run(reference_cls)
        np.testing.assert_array_equal(shipped.poisoned_nodes, reference.poisoned_nodes)
        np.testing.assert_array_equal(shipped.condensed.adjacency, reference.condensed.adjacency)
        np.testing.assert_allclose(
            shipped.condensed.features, reference.condensed.features, rtol=0.0, atol=ATOL
        )
        for ours, theirs in zip(shipped.generator.parameters(), reference.generator.parameters()):
            np.testing.assert_allclose(ours.data, theirs.data, rtol=0.0, atol=ATOL)


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
        poisoned = with_delta(
            graph,
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
        poisoned = with_delta(
            small_graph,
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
    materialised = with_delta(
        graph,
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
    poisoned = with_delta(
        graph,
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

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_unflushed_writes_read_back_here_and_in_a_worker(self, start_method):
        """Writes are never flushed to disk, yet this process and a pool
        worker mapping the same files both read every written row."""
        rng = new_rng(75)
        dense = rng.normal(size=(23, 4))
        store = BlockedArray((23, 4), block_size=6)
        store.write_rows(0, dense[:10])
        store.write_rows(10, dense[10:])
        np.testing.assert_array_equal(store.materialize(), dense)
        context = multiprocessing.get_context(start_method)
        with context.Pool(1) as pool:
            read = pool.apply(BlockedArray.materialize, (store,))
        np.testing.assert_array_equal(read, dense)

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


# --------------------------------------------------------------------- #
# Fused full-batch GCN fit vs the autograd tape
# --------------------------------------------------------------------- #
def _fit_bits(model_cls, graph, *, num_layers=2, dropout=0.5, weight_decay=5e-4,
              validation="full", dense_adjacency=False, csr_features=False):
    """Everything a fit leaves behind, as bytes: result, parameters, rng state."""
    rng = new_rng(11)
    model = model_cls(
        graph.num_features, graph.num_classes, rng=rng,
        hidden=16, num_layers=num_layers, dropout=dropout,
    )
    epochs, patience = (80, 3) if validation == "early" else (25, 25)
    trainer = Trainer(
        model, TrainingConfig(epochs=epochs, weight_decay=weight_decay, patience=patience)
    )
    adjacency = graph.adjacency.toarray() if dense_adjacency else graph.adjacency
    features = sp.csr_matrix(graph.features) if csr_features else graph.features
    val_index = None if validation == "none" else graph.split.val
    result = trainer.fit(adjacency, features, graph.labels, graph.split.train, val_index)
    if validation == "early":
        assert len(result.history) < epochs, "the early-stop case must stop early"
    state = {name: (value.shape, value.tobytes()) for name, value in model.state_dict().items()}
    # pickle writes floats as their IEEE bytes, so NaN == NaN here.
    return pickle.dumps(dataclasses.asdict(result)), state, rng.bit_generator.state


class TestFusedGCNFitEquivalence:
    """``Trainer.fit`` on a ``GCN`` (fused) vs on ``TapeGCN`` (the tape).

    The fused loop makes the tape's kernel calls on the tape's operands, so
    the two must agree bit for bit, not to a tolerance.  Reusing the
    validation pass's first layer after a weight update, or skipping a
    dropout draw, breaks this.
    """

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    @pytest.mark.parametrize("validation", ["none", "full", "early"])
    @pytest.mark.parametrize("dense_adjacency", [False, True])
    @pytest.mark.parametrize("csr_features", [False, True])
    def test_bit_identical_to_tape(
        self, small_graph, num_layers, dropout, weight_decay, validation,
        dense_adjacency, csr_features,
    ):
        options = dict(
            num_layers=num_layers, dropout=dropout, weight_decay=weight_decay,
            validation=validation, dense_adjacency=dense_adjacency,
            csr_features=csr_features,
        )
        fused = _fit_bits(GCN, small_graph, **options)
        tape = _fit_bits(TapeGCN, small_graph, **options)
        assert fused[0] == tape[0], "TrainingResult differs"
        assert fused[1] == tape[1], "parameters differ"
        assert fused[2] == tape[2], "model rng state differs"

    def test_dispatch_is_by_exact_type(self, small_graph, monkeypatch):
        """A GCN trains fused and never calls forward; a subclass uses the tape."""
        calls = {"step": 0, "forward": 0}
        step, forward = FusedGCNFit.step, GCN.forward

        def counting_step(self, optimizer):
            calls["step"] += 1
            return step(self, optimizer)

        def counting_forward(self, *args):
            calls["forward"] += 1
            return forward(self, *args)

        monkeypatch.setattr(FusedGCNFit, "step", counting_step)
        monkeypatch.setattr(GCN, "forward", counting_forward)
        _fit_bits(GCN, small_graph, validation="none")
        assert calls == {"step": 25, "forward": 0}
        _fit_bits(TapeGCN, small_graph, validation="none")
        assert calls == {"step": 25, "forward": 25}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_selector_matches_tape_selector(self, monkeypatch, seed):
        """The selector's fit (CSR features, validation every epoch) is unchanged."""
        graph = load_dataset("tiny")
        fused_rng, tape_rng = new_rng(seed), new_rng(seed)
        fused = RepresentativeNodeSelector()
        chosen = fused.select(graph, 6, 0, fused_rng)
        monkeypatch.setattr("repro.attack.selection.GCN", TapeGCN)
        tape = RepresentativeNodeSelector()
        expected = tape.select(graph, 6, 0, tape_rng)
        assert fused._representations.tobytes() == tape._representations.tobytes()
        np.testing.assert_array_equal(chosen, expected)
        assert fused_rng.bit_generator.state == tape_rng.bit_generator.state


# --------------------------------------------------------------------- #
# In-place trigger generation vs the tape forward
# --------------------------------------------------------------------- #
CORA_WIDTH = 1433


class TestInPlaceTriggerGeneration:
    """``generate`` computes the feature head in one array, in place; it must
    give the tape forward's bytes.

    A fresh ``Linear`` has a zero bias, which would hide a dropped bias or a
    ``tanh`` taken before it, so both heads get non-zero biases here.
    """

    @staticmethod
    def _generator(encoder: str, trigger_size: int) -> TriggerGenerator:
        rng = new_rng(21)
        generator = TriggerGenerator(
            CORA_WIDTH, rng, TriggerConfig(trigger_size=trigger_size, hidden=16, encoder=encoder)
        )
        for head in (generator.feature_head, generator.structure_head):
            head.bias.data = rng.normal(scale=0.5, size=head.bias.data.shape)
        generator.calibrate(3.0 * rng.random((8, CORA_WIDTH)))
        return generator

    @pytest.mark.parametrize("rows", [0, 1, 12, 1000])
    @pytest.mark.parametrize("trigger_size", [1, 2, 4])
    @pytest.mark.parametrize("encoder", ["mlp", "gcn", "transformer"])
    def test_bytes_equal_to_tape(self, encoder, trigger_size, rows):
        generator = self._generator(encoder, trigger_size)
        inputs = new_rng(rows).random((rows, CORA_WIDTH))
        features, adjacency = generator.generate(inputs)
        tape_features, tape_adjacency = tape_generate(generator, inputs)
        assert features.shape == tape_features.shape == (rows, trigger_size, CORA_WIDTH)
        assert adjacency.shape == tape_adjacency.shape == (rows, trigger_size, trigger_size)
        assert features.tobytes() == tape_features.tobytes()
        assert adjacency.tobytes() == tape_adjacency.tobytes()


# --------------------------------------------------------------------- #
# Per-block first layer vs the materialised forward
# --------------------------------------------------------------------- #
LINEAR_FIRST = ["gcn", "mlp", "appnp", "gat"]


def _triggered_graph(dataset: str, test_nodes: str):
    """``dataset``'s triggered test graph over all, one or the source-class test nodes."""
    graph = load_dataset(dataset)
    test = graph.split.test
    if test_nodes == "one":
        test = test[:1]
    elif test_nodes == "source-class":
        test = test[graph.labels[test] == 1]
    generator = TriggerGenerator(
        graph.num_features, new_rng(3), TriggerConfig(trigger_size=4, hidden=16)
    )
    generator.calibrate(graph.features)
    return triggered_test_graph(graph, generator, target_class=0, test_index=test)


class TestPerBlockFirstLayer:
    """Under ``no_grad`` a Linear-first model multiplies the base and trigger
    blocks separately.  That is a row split of the stacked gemm, so the
    logits match the materialised forward within ``atol``, not bit for bit."""

    @pytest.mark.parametrize("test_nodes", ["all", "one", "source-class"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("architecture", LINEAR_FIRST)
    @pytest.mark.parametrize("dataset", ["tiny", "cora"])
    def test_logits_match_materialised_forward(
        self, dataset, architecture, num_layers, test_nodes
    ):
        triggered = _triggered_graph(dataset, test_nodes)
        model = make_model(
            architecture, triggered.num_features, triggered.base.num_classes,
            new_rng(4), num_layers=num_layers,
        )
        model.eval()
        with no_grad():
            blocks = model.forward(triggered.adjacency, triggered.features).data
            assert triggered.features._materialized is None, "the forward stacked"
            stacked = model.forward(
                triggered.adjacency, triggered.features.materialize()
            ).data
        assert blocks.shape == (triggered.num_nodes, triggered.base.num_classes)
        np.testing.assert_allclose(blocks, stacked, rtol=0, atol=ATOL)
        np.testing.assert_array_equal(blocks.argmax(axis=1), stacked.argmax(axis=1))

    def test_grad_enabled_forward_still_materialises(self, small_graph):
        """The tape needs one operand: with gradients on, a stacked input is
        materialised and the weight still gets its gradient."""
        triggered = triggered_test_graph(
            small_graph,
            TriggerGenerator(small_graph.num_features, new_rng(3), TriggerConfig(hidden=8)),
            target_class=0,
        )
        model = make_model("mlp", small_graph.num_features, small_graph.num_classes, new_rng(4))
        model.forward(triggered.adjacency, triggered.features).sum().backward()
        assert triggered.features._materialized is not None
        assert model.fc_0.weight.grad is not None

    @pytest.mark.parametrize("architecture", LINEAR_FIRST)
    def test_evaluate_never_stacks(self, monkeypatch, architecture):
        """A tiny cell's ``evaluate`` stage (CTA, then victim, clean and
        defended ASR) completes with ``StackedFeatures.materialize`` and the
        trigger rows' whole-block ``ChunkedRows.materialize`` raising."""
        evaluate = runner._evaluate

        def no_stack(self):
            raise AssertionError("evaluate stacked the triggered graph's features")

        def guarded(*args):
            with monkeypatch.context() as patch:
                patch.setattr(StackedFeatures, "materialize", no_stack)
                patch.setattr(ChunkedRows, "materialize", no_stack)
                return evaluate(*args)

        monkeypatch.setattr(runner, "_evaluate", guarded)
        spec = ExperimentSpec.from_dict(
            {
                "dataset": "tiny",
                "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
                "attack": {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
                "trigger": {"overrides": {"trigger_size": 2}},
                "model": architecture,
                "defense": "prune",
                "evaluation": {"overrides": {"epochs": 10}},
                "seed": 3,
            }
        )
        record = runner.run_experiment(spec)
        assert record.ok
        for field in ("attack_asr", "clean_asr", "defense_asr"):
            assert getattr(record, field) is not None, field


# --------------------------------------------------------------------- #
# Streamed trigger rows vs the materialised triggered graph
# --------------------------------------------------------------------- #
TRIGGER_KINDS = ["mlp", "gcn", "transformer", "universal"]
TEST_SETS = ["empty", "one", "chunk-1", "chunk", "chunk+1", "all", "source-class"]
#: Tiny's chunks are shrunk to this many nodes, so its test sets span several.
TINY_CHUNK_NODES = 5


def _trigger_generator(kind: str, graph: GraphData, trigger_size: int = 4):
    rng = new_rng(41)
    if kind == "universal":
        generator = UniversalTriggerGenerator(
            graph.num_features, rng, TriggerConfig(trigger_size=trigger_size)
        )
    else:
        config = TriggerConfig(trigger_size=trigger_size, hidden=16, encoder=kind)
        generator = TriggerGenerator(graph.num_features, rng, config)
        for head in (generator.feature_head, generator.structure_head):
            head.bias.data = rng.normal(scale=0.5, size=head.bias.data.shape)
    generator.calibrate(graph.features)
    return generator


def _test_set(graph: GraphData, name: str, chunk: int) -> np.ndarray:
    test = graph.split.test
    sizes = {"empty": 0, "one": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}
    if name in sizes:
        assert sizes[name] <= test.size
        return test[: sizes[name]]
    if name == "source-class":
        return test[graph.labels[test] == 1]
    return test


def _streamed_and_materialised(graph, generator, test):
    """The streamed triggered graph, and the materialised reference: the
    whole-batch ``generate`` stacked into one feature matrix."""
    streamed = triggered_test_graph(graph, generator, target_class=0, test_index=test)
    features, structures = generate_hard_triggers(
        generator, graph.adjacency, graph.features, test
    )
    reference = poison_graph_view(graph, test, features, structures)
    return streamed, reference.features.materialize()


def _no_whole_block(self):
    raise AssertionError("the trigger rows were generated whole")


class TestStreamedTriggerRows:
    """The evaluate stage's triggered graph generates its trigger rows a
    chunk at a time, and a weight pass multiplies each chunk by every model's
    first-layer weight.  Chunked gemms round like smaller gemms, so the
    logits match the materialised triggered graph's within ``atol`` and the
    argmax is identical."""

    @pytest.fixture
    def shrink_tiny_chunks(self, monkeypatch):
        def shrink(graph, trigger_size=4):
            if graph.name == "tiny":
                monkeypatch.setattr(
                    view_module, "CHUNK_ELEMENTS",
                    TINY_CHUNK_NODES * trigger_size * graph.num_features,
                )
            return ChunkedRows.items_per_chunk(trigger_size, graph.num_features)

        return shrink

    @staticmethod
    def _assert_streamed_forward_matches(monkeypatch, models, streamed, stacked):
        with monkeypatch.context() as patch:
            patch.setattr(ChunkedRows, "materialize", _no_whole_block)
            patch.setattr(StackedFeatures, "materialize", _no_whole_block)
            project_triggers(streamed, models)
            with no_grad():
                logits = [
                    model.forward(streamed.adjacency, streamed.features).data
                    for model in models
                ]
        assert isinstance(streamed.features._overlay, ChunkedRows)
        with no_grad():
            for model, got in zip(models, logits):
                expected = model.forward(streamed.adjacency, stacked).data
                assert got.shape == expected.shape == (streamed.num_nodes, model.num_classes)
                np.testing.assert_allclose(got, expected, rtol=0, atol=ATOL)
                np.testing.assert_array_equal(got.argmax(axis=1), expected.argmax(axis=1))

    @pytest.mark.parametrize("test_set", TEST_SETS)
    @pytest.mark.parametrize("kind", TRIGGER_KINDS)
    @pytest.mark.parametrize("dataset", ["tiny", "cora"])
    def test_logits_match_materialised_graph(
        self, monkeypatch, shrink_tiny_chunks, dataset, kind, test_set
    ):
        graph = load_dataset(dataset)
        chunk = shrink_tiny_chunks(graph)
        test = _test_set(graph, test_set, chunk)
        streamed, stacked = _streamed_and_materialised(graph, _trigger_generator(kind, graph), test)
        models = [
            make_model(name, graph.num_features, graph.num_classes, new_rng(4))
            for name in LINEAR_FIRST
        ]
        for model in models:
            model.eval()
        self._assert_streamed_forward_matches(monkeypatch, models, streamed, stacked)

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("architecture", LINEAR_FIRST)
    @pytest.mark.parametrize("dataset", ["tiny", "cora"])
    def test_every_depth(self, monkeypatch, shrink_tiny_chunks, dataset, architecture, num_layers):
        graph = load_dataset(dataset)
        shrink_tiny_chunks(graph)
        streamed, stacked = _streamed_and_materialised(
            graph, _trigger_generator("mlp", graph), graph.split.test
        )
        model = make_model(
            architecture, graph.num_features, graph.num_classes, new_rng(4),
            num_layers=num_layers,
        )
        model.eval()
        self._assert_streamed_forward_matches(monkeypatch, [model], streamed, stacked)

    @pytest.mark.parametrize("architecture", LINEAR_FIRST)
    def test_defended_model_that_is_the_victim(self, monkeypatch, shrink_tiny_chunks, architecture):
        """A defense may return the victim itself: each distinct weight is
        multiplied once, and every chunk is generated once for all models."""
        graph = load_dataset("tiny")
        shrink_tiny_chunks(graph)
        generator = _trigger_generator("mlp", graph)
        streamed, stacked = _streamed_and_materialised(graph, generator, graph.split.test)
        victim, clean = (
            make_model(architecture, graph.num_features, graph.num_classes, new_rng(seed))
            for seed in (4, 5)
        )
        for model in (victim, clean):
            model.eval()
        heads = []
        feature_rows = generator.feature_rows

        def counted(encoded):
            heads.append(encoded.shape[0])
            return feature_rows(encoded)

        monkeypatch.setattr(streamed.features._overlay, "head", counted)
        self._assert_streamed_forward_matches(
            monkeypatch, [victim, clean, victim], streamed, stacked
        )
        distinct = len(victim.feature_weights()) + len(clean.feature_weights())
        assert len(streamed.features._products) == distinct
        assert sum(heads) == graph.split.test.size
        assert len(heads) == -(-graph.split.test.size // TINY_CHUNK_NODES)

    def test_models_without_weights_stack_on_demand(self, shrink_tiny_chunks):
        """SGC propagates the raw features first: it gets the stacked matrix,
        generated whole once, equal to the materialised reference's rows."""
        graph = load_dataset("tiny")
        shrink_tiny_chunks(graph)
        streamed, stacked = _streamed_and_materialised(
            graph, _trigger_generator("mlp", graph), graph.split.test
        )
        model = make_model("sgc", graph.num_features, graph.num_classes, new_rng(4))
        assert model.feature_weights() == []
        project_triggers(streamed, [model])
        assert streamed.features._products == []
        np.testing.assert_allclose(np.asarray(streamed.features), stacked, rtol=0, atol=ATOL)


# --------------------------------------------------------------------- #
# Set-up and evaluate hold no full-size temporary (tracemalloc, cora)
# --------------------------------------------------------------------- #
def _traced_growth(call) -> int:
    """Peak traced bytes above the entry level while ``call()`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


class TestNoFullSizeTemporaries:
    """On cora's graph, a cell's set-up and evaluate stage allocate far less
    than the arrays they read: no ``np.abs(X)``, no ``X − mean`` and no
    ``(t·|test|, F)`` trigger block."""

    def test_calibrate(self):
        graph = load_dataset("cora")
        for generator in (
            _trigger_generator("mlp", graph),
            _trigger_generator("universal", graph),
        ):
            growth = _traced_growth(lambda: generator.calibrate(graph.features))
            assert growth < graph.features.nbytes / 10, growth

    def test_condenser_initialize(self):
        graph = load_dataset("cora")
        condenser = make_condenser("gcond", CondensationConfig(ratio=0.026))
        growth = _traced_growth(lambda: condenser.initialize(graph, new_rng(3)))
        assert growth < graph.features.nbytes / 10, growth

    @staticmethod
    def _evaluate_growth(graph, encoder: str) -> int:
        """Traced growth of a warm three-GCN ``evaluate`` stage on ``graph``."""
        generator = _trigger_generator(encoder, graph)
        victim, clean, defended = (
            make_model("gcn", graph.num_features, graph.num_classes, new_rng(seed))
            for seed in (4, 5, 6)
        )
        leg = runner.Leg(
            None, "", generator=generator, target_class=0, test_nodes=graph.split.test
        )
        record = runner.RunRecord(spec=ExperimentSpec.from_dict({"dataset": "cora"}))
        runner._evaluate(record, graph, leg, victim, clean, defended)  # warm the caches
        return _traced_growth(
            lambda: runner._evaluate(record, graph, leg, victim, clean, defended)
        )

    def test_evaluate_stage(self):
        graph = load_dataset("cora")
        trigger_block = 4 * graph.split.test.size * graph.num_features * 8
        growth = self._evaluate_growth(graph, "mlp")
        assert growth < trigger_block / 2, (growth, trigger_block)

    def test_evaluate_stage_gcn_encoder(self):
        """The gcn encoder's ``Â²X`` is the cache's, not a fresh
        normalisation and two ``(N, F)`` hops per call."""
        graph = load_dataset("cora")
        growth = self._evaluate_growth(graph, "gcn")
        assert growth < graph.features.nbytes * 0.75, (growth, graph.features.nbytes)


# --------------------------------------------------------------------- #
# One-pass trigger scaffolds vs the per-node scipy gathers
# --------------------------------------------------------------------- #
def _scaffold_graph(small_graph, kind: str) -> GraphData:
    """``small_graph`` with the adjacency each scaffold case needs."""
    adjacency = small_graph.adjacency.tocsr()
    rng = new_rng(31)
    if kind == "weighted":
        weighted = sp.triu(adjacency, k=1).tocsr()
        weighted.data = rng.uniform(0.1, 3.0, size=weighted.nnz)
        adjacency = (weighted + weighted.T).tocsr()
    elif kind == "asymmetric":
        adjacency = adjacency.copy()
        adjacency.data = rng.uniform(0.1, 3.0, size=adjacency.nnz)
        adjacency = (adjacency + sp.csr_matrix(
            (np.ones(4), ([0, 1, 2, 3], [40, 41, 42, 43])), shape=adjacency.shape
        )).tocsr()
    elif kind == "isolated":
        lil = adjacency.tolil()
        lil[0, :] = 0
        lil[:, 0] = 0
        adjacency = sp.csr_matrix(lil)
    elif kind == "self-loop":
        # Node 3 lists itself, so its set holds it twice.
        adjacency = (adjacency + sp.csr_matrix(
            ([2.0], ([3], [3])), shape=adjacency.shape
        )).tocsr()
    return small_graph.with_(adjacency=adjacency)


SCAFFOLD_GRAPHS = ["plain", "weighted", "asymmetric", "isolated", "self-loop"]


def _assert_scaffolds_equal(got, expected) -> None:
    for (local, block), (ref_local, ref_block) in zip(got, expected, strict=True):
        np.testing.assert_array_equal(local, ref_local)
        assert block.shape == ref_block.shape and block.dtype == ref_block.dtype
        assert block.tobytes() == ref_block.tobytes()


class TestOnePassScaffolds:
    """Every uncached node's scaffold built in one pass must hold the bytes
    the per-node ``csr[local][:, local].toarray()`` gathers gave."""

    @pytest.mark.parametrize("kind", SCAFFOLD_GRAPHS)
    @pytest.mark.parametrize("max_neighbors", [1, 3, 10])
    def test_bytes_equal_to_per_node_reference(self, small_graph, kind, max_neighbors):
        graph = _scaffold_graph(small_graph, kind)
        degrees = np.diff(graph.adjacency.indptr)
        over_cap = int(np.argmax(degrees))
        assert degrees[over_cap] > max_neighbors, "one node must be sampled down"
        nodes = [0, 3, 17, over_cap, 88, 5]
        got = _local_scaffolds(graph, nodes, max_neighbors)
        _assert_scaffolds_equal(
            got, [scaffold_for_node(graph, node, max_neighbors) for node in nodes]
        )

    def test_self_loop_set_holds_the_node_twice(self, small_graph):
        graph = _scaffold_graph(small_graph, "self-loop")
        local = scaffold_for_node(graph, 3, 10)[0]
        assert np.count_nonzero(local == 3) == 2

    @pytest.mark.parametrize("kind", SCAFFOLD_GRAPHS)
    def test_half_cached_batch_with_a_repeated_node(self, small_graph, kind):
        """Cached nodes are served as they are; the rest are built in one
        pass; the loss equals the loss over reference scaffolds bit for bit."""
        graph = _scaffold_graph(small_graph, kind)
        generator = TriggerGenerator(
            graph.num_features, new_rng(32), TriggerConfig(trigger_size=2, hidden=16)
        )
        generator.calibrate(graph.features)
        inputs = generator.encode_inputs(graph.adjacency, graph.features)
        weight = Tensor(new_rng(33).normal(size=(graph.num_features, graph.num_classes)))
        nodes = np.array([0, 3, 17, 17, 40, 88])
        kwargs = dict(target_class=1, max_neighbors=3, num_hops=2)
        reference = {int(node): scaffold_for_node(graph, int(node), 3) for node in nodes}
        cache = {node: reference[node] for node in (0, 17)}
        loss = batched_local_trigger_loss(
            nodes, graph, inputs, generator, weight, scaffold_cache=cache, **kwargs
        )
        assert sorted(cache) == sorted(reference)
        assert cache[0] is reference[0] and cache[17] is reference[17]
        _assert_scaffolds_equal(
            [cache[node] for node in (3, 40, 88)], [reference[node] for node in (3, 40, 88)]
        )
        expected = batched_local_trigger_loss(
            nodes, graph, inputs, generator, weight, scaffold_cache=dict(reference), **kwargs
        )
        uncached = batched_local_trigger_loss(nodes, graph, inputs, generator, weight, **kwargs)
        assert loss.data.tobytes() == expected.data.tobytes() == uncached.data.tobytes()

    def test_scaffold_holds_no_feature_rows(self, small_graph):
        """A cached scaffold is the local index set and its adjacency block;
        the host feature rows are read from the graph on every call."""
        generator = TriggerGenerator(
            small_graph.num_features, new_rng(32), TriggerConfig(trigger_size=2, hidden=16)
        )
        generator.calibrate(small_graph.features)
        inputs = generator.encode_inputs(small_graph.adjacency, small_graph.features)
        weight = Tensor(new_rng(33).normal(size=(small_graph.num_features, 3)))
        nodes = np.array([0, 3, 17, 40, 88])
        cache: dict = {}
        batched_local_trigger_loss(
            nodes, small_graph, inputs, generator, weight, target_class=1, scaffold_cache=cache
        )
        for node, (local, block) in cache.items():
            assert local[0] == node and local.dtype == np.int64
            assert block.shape == (local.size, local.size)


# --------------------------------------------------------------------- #
# Tape-free surrogate fit vs the tape loop
# --------------------------------------------------------------------- #
class TestTapeFreeSurrogate:
    """``fit_linear_surrogate`` makes the tape's kernel calls without the
    tape: the same weight bytes and the same rng state."""

    @pytest.mark.parametrize("steps", [1, 5, 20])
    @pytest.mark.parametrize("extra_classes", [0, 2])
    def test_bytes_equal_to_tape(self, steps, extra_classes):
        data_rng = new_rng(steps + 10 * extra_classes)
        inputs = data_rng.normal(size=(30, 12))
        targets = data_rng.integers(0, 4, size=30)
        num_classes = int(targets.max()) + 1 + extra_classes
        fast_rng, tape_rng = new_rng(41), new_rng(41)
        fast = fit_linear_surrogate(inputs, targets, num_classes, steps, 0.05, fast_rng)
        tape = tape_fit_linear_surrogate(inputs, targets, num_classes, steps, 0.05, tape_rng)
        assert fast.shape == tape.shape == (12, num_classes)
        assert fast.tobytes() == tape.tobytes()
        assert fast_rng.bit_generator.state == tape_rng.bit_generator.state

    def test_bgc_surrogate_on_a_condensed_graph(self, small_graph):
        """The propagated condensed rows BGC fits on, not just random ones."""
        condensed = make_condenser("gcond", CondensationConfig(epochs=1, ratio=0.3)).condense(
            small_graph, new_rng(42)
        )
        propagated = sgc_precompute(sp.csr_matrix(condensed.adjacency), condensed.features, 2)
        fast = fit_linear_surrogate(
            propagated, condensed.labels, small_graph.num_classes, 20, 0.05, new_rng(43)
        )
        tape = tape_fit_linear_surrogate(
            propagated, condensed.labels, small_graph.num_classes, 20, 0.05, new_rng(43)
        )
        assert fast.tobytes() == tape.tobytes()


# --------------------------------------------------------------------- #
# Unstored intermediate hops read by rows vs the full stored chain
# --------------------------------------------------------------------- #
UNSTORED_KINDS = ["plain", "weighted", "asymmetric", "isolated", "unsorted"]
DELTA_KINDS = ["changed", "appended", "both", "none"]


def _shuffled_rows(matrix: sp.csr_matrix, rng) -> sp.csr_matrix:
    """``matrix`` with each row's stored entries in a random order."""
    matrix = matrix.tocsr()
    row_of = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    order = np.lexsort((rng.random(matrix.nnz), row_of))
    shuffled = sp.csr_matrix(
        (matrix.data[order], matrix.indices[order], matrix.indptr.copy()), shape=matrix.shape
    )
    assert not shuffled.has_sorted_indices
    return shuffled


def _unstored_case(small_graph, kind: str, delta: str, seed: int = 0):
    """``(base, derived, changed)``: a base graph with dense features, a
    derived graph honouring the GraphDelta contract, and its changed rows."""
    rng = new_rng(90 + seed)
    n = small_graph.num_nodes
    dense = small_graph.adjacency.toarray()
    if kind in ("weighted", "asymmetric", "unsorted"):
        weights = rng.uniform(0.1, 3.0, size=dense.shape)
        if kind != "asymmetric":
            weights = np.triu(weights, 1) + np.triu(weights, 1).T
        dense = dense * weights
        if kind == "asymmetric":
            dense[[0, 1, 2, 3], [40, 41, 42, 43]] = 1.5
    elif kind == "isolated":
        dense[[0, 5, 50], :] = 0.0
        dense[:, [0, 5, 50]] = 0.0
    features = rng.normal(size=(n, small_graph.num_features))
    base = small_graph.with_(adjacency=sp.csr_matrix(dense), features=features)

    changed = {
        "changed": np.array([0, 7, 33, 61]),
        "appended": np.array([], dtype=np.int64),
        "both": np.array([5, 18, 72]),
        "none": np.array([], dtype=np.int64),
    }[delta]
    num_new = 3 if delta in ("appended", "both") else 0
    total = n + num_new
    derived_dense = np.zeros((total, total))
    derived_dense[:n, :n] = dense
    if delta == "changed":
        for i, j in ((0, 7), (7, 33), (33, 61), (61, 0)):
            derived_dense[i, j] = derived_dense[j, i] = rng.uniform(0.5, 2.0)
    if num_new:
        derived_dense[n, n + 1] = derived_dense[n + 1, n] = 1.0
        derived_dense[n + 1, n + 2] = derived_dense[n + 2, n + 1] = 0.7
    if delta == "both":
        for host, new in zip(changed, range(n, total)):
            derived_dense[host, new] = derived_dense[new, host] = 1.0
    derived_features = np.vstack([features, rng.normal(size=(num_new, features.shape[1]))])
    derived_features[changed] += rng.normal(scale=0.5, size=(changed.size, features.shape[1]))
    derived = with_delta(
        base,
        changed,
        adjacency=sp.csr_matrix(derived_dense),
        features=derived_features,
        labels=np.concatenate([base.labels, np.zeros(num_new, dtype=np.int64)]),
    )
    return base, derived, changed


def _assert_same_delta(got, expected) -> None:
    np.testing.assert_array_equal(got[0], expected[0])
    assert got[1].shape == expected[1].shape
    assert got[1].tobytes() == expected[1].tobytes()


class TestUnstoredHopReads:
    """A chain that keeps only hop 0 and hop K reads every hop between at the
    rows the recursion touches; the result must be byte-equal to the same
    call over the full stored chain."""

    @pytest.mark.parametrize("num_hops", [1, 2, 3])
    @pytest.mark.parametrize("delta", DELTA_KINDS)
    @pytest.mark.parametrize("kind", UNSTORED_KINDS)
    def test_partial_chain_bytes_equal_full_chain(self, small_graph, kind, delta, num_hops):
        base, derived, changed = _unstored_case(small_graph, kind, delta)
        base_normalized = gcn_normalize(base.adjacency)
        derived_normalized = gcn_normalize(derived.adjacency)
        if kind == "unsorted":
            # Rows summed in any other order than the stored one round
            # differently, so a reader that sorts a row's entries fails here.
            base_normalized = _shuffled_rows(base_normalized, new_rng(5))
            derived_normalized = _shuffled_rows(derived_normalized, new_rng(6))
        full = sgc_precompute_hops(base_normalized, base.features, num_hops)
        args = (derived_normalized, derived.features)
        expected = incremental_sgc_delta(*args, full, changed, num_hops)
        # Every set of unstored intermediate hops, the cache's (all of them)
        # last: a read hop may sit above or below a stored one.
        for kept in itertools.product([True, False], repeat=num_hops - 1):
            partial = [full[0]]
            partial += [hop if keep else None for hop, keep in zip(full[1:-1], kept)]
            partial.append(full[num_hops])
            got = incremental_sgc_delta(
                *args, partial, changed, num_hops, base_normalized=base_normalized
            )
            _assert_same_delta(got, expected)

        product = PropagatedView(full[num_hops], *got, derived.num_nodes).materialize()
        reference = sgc_precompute_hops(derived_normalized, derived.features, num_hops)
        np.testing.assert_allclose(product, reference[num_hops], rtol=0.0, atol=ATOL)

    @pytest.mark.parametrize("num_hops", [2, 3])
    @pytest.mark.parametrize("kind", ["plain", "weighted", "asymmetric", "isolated"])
    def test_cache_chain_bytes_equal_full_chain(self, small_graph, kind, num_hops):
        """The cache's own chain (hops 0 and K, its operator) serves the
        same dirty rows as the full stored chain, through propagated_view."""
        base, derived, changed = _unstored_case(small_graph, kind, "both", seed=num_hops)
        cache = PropagationCache()
        view = cache.propagated_view(derived, num_hops)
        chain, operator = cache._chain(base, num_hops)
        assert [hop is None for hop in chain] == [False] + [True] * (num_hops - 1) + [False]
        # Hop K is the base's row source, which the update never reads.
        assert isinstance(chain[num_hops], PropagatedRows)
        assert chain[num_hops].stored_rows == 0
        full = sgc_precompute_hops(operator, base.features, num_hops)
        assert full[num_hops].tobytes() == chain[num_hops].materialize().tobytes()
        expected = incremental_sgc_delta(
            cache.normalized(derived), derived.features, full, changed, num_hops,
            nonnegative=True,
        )
        _assert_same_delta((view.dirty_rows, view.dirty_values), expected)

    def test_missing_hop_without_operator_is_rejected(self, small_graph):
        base, derived, changed = _unstored_case(small_graph, "plain", "changed")
        full = sgc_precompute_hops(gcn_normalize(base.adjacency), base.features, 2)
        with pytest.raises(GraphValidationError, match="base_normalized"):
            incremental_sgc_delta(
                gcn_normalize(derived.adjacency), derived.features,
                [full[0], None, full[2]], changed, 2,
            )

    @pytest.mark.parametrize("kind", ["plain", "unsorted"])
    def test_column_compression_keeps_stored_order(self, small_graph, kind):
        """``_base_columns`` is ``[:, :n]`` entry for entry, and its renumbered
        form times the referenced rows is the full product's rows, byte for byte."""
        operator = gcn_normalize(_unstored_case(small_graph, "weighted", "both")[1].adjacency)
        if kind == "unsorted":
            operator = _shuffled_rows(operator, new_rng(8))
        n_base = small_graph.num_nodes
        rows = operator[np.array([0, 5, 18, 40, 91])]
        sliced = rows[:, :n_base]
        compressed = _base_columns(rows, n_base)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(compressed, name), getattr(sliced, name)
            )
        hop = new_rng(9).normal(size=(n_base, 6))
        referenced = np.unique(sliced.indices)
        renumbered = _base_columns(rows, n_base, referenced)
        assert renumbered.shape == (5, referenced.size)
        assert (renumbered @ hop[referenced]).tobytes() == (sliced @ hop).tobytes()


def _row_source_case(small_graph, kind: str, num_hops: int):
    """``(graph, operator, rows, full)``: a base graph, its operator (rows
    shuffled for ``unsorted``), a fresh row source over it and the whole
    product ``sgc_precompute_hops(...)[K]`` the rows must equal."""
    base = _unstored_case(small_graph, kind, "none")[0]
    operator = gcn_normalize(base.adjacency)
    if kind == "unsorted":
        operator = _shuffled_rows(operator, new_rng(5))
    full = sgc_precompute_hops(operator, base.features, num_hops)[num_hops]
    return base, operator, PropagatedRows(operator, base.features, num_hops), full


def _selectors(num_rows: int) -> list:
    """Row selectors in the shapes readers pass: unsorted with repeats,
    overlapping ranges, a boolean mask, negative indices and no rows."""
    mask = np.zeros(num_rows, dtype=bool)
    mask[[3, 30, 31, 77]] = True
    return [
        np.array([17, 2, 88, 17, 40]),
        np.arange(0, 60, 3),
        np.arange(30, 90, 2),
        mask,
        np.array([-1, -12, 5]),
        np.array([], dtype=np.int64),
        [8, 8, 1],
    ]


class TestRowSource:
    """A base graph's requested hop as a row source: every row computed on
    its first read, byte-equal to the same row of ``sgc_precompute_hops``,
    and computed once."""

    @pytest.mark.parametrize("num_hops", [1, 2, 3])
    @pytest.mark.parametrize("kind", UNSTORED_KINDS)
    def test_rows_bytes_equal_full_product(self, small_graph, kind, num_hops):
        base, _, rows, full = _row_source_case(small_graph, kind, num_hops)
        read = set()
        for selector in _selectors(base.num_nodes):
            got = rows.gather(selector)
            expected = full[np.asarray(selector)]
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            read.update(np.arange(base.num_nodes)[np.asarray(selector)].tolist())
            # Every row read is kept, each once.
            assert rows.stored_rows == len(read)
        assert rows[17].tobytes() == full[17].tobytes()
        assert rows[np.int64(-3)].tobytes() == full[-3].tobytes()
        assert rows.stored_rows == len(read | {base.num_nodes - 3})
        assert rows.materialized is None

    @pytest.mark.parametrize("kind", ["plain", "unsorted"])
    def test_each_row_computed_once(self, small_graph, kind, monkeypatch):
        """Counting the rows handed to the reader: a row read again, alone
        or in an overlapping gather, is served from the store."""
        _, _, rows, full = _row_source_case(small_graph, kind, 2)
        computed = []
        reader = view_module._read_unstored_hops

        def counting(operator, chain, wanted, n_base):
            computed.extend(np.concatenate(wanted[2]).tolist())
            return reader(operator, chain, wanted, n_base)

        monkeypatch.setattr(view_module, "_read_unstored_hops", counting)
        for selector in (np.arange(10), np.arange(5, 15), np.array([14, 3, 3]), np.arange(15)):
            assert rows.gather(selector).tobytes() == full[selector].tobytes()
        assert sorted(computed) == list(range(15))

    @pytest.mark.parametrize("num_hops", [1, 2, 3])
    def test_materialize_after_partial_reads(self, small_graph, num_hops):
        _, _, rows, full = _row_source_case(small_graph, "weighted", num_hops)
        before = rows.gather(np.array([9, 4, 60]))
        whole = rows.materialize()
        assert whole.tobytes() == full.tobytes()
        assert rows.materialize() is whole and np.asarray(rows) is whole
        assert rows.stored_rows == 0
        after = rows.gather(np.array([9, 4, 60]))
        assert after.tobytes() == before.tobytes()
        assert rows[2:7].tobytes() == full[2:7].tobytes()

    def test_chain_keeps_last_hop_and_returns_every_hop(self, small_graph):
        base, operator, rows, full = _row_source_case(small_graph, "plain", 3)
        chain = rows.chain()
        expected = sgc_precompute_hops(operator, base.features, 3)
        assert [hop.tobytes() for hop in chain[1:]] == [hop.tobytes() for hop in expected[1:]]
        assert rows.materialized is chain[3]
        # A second chain leaves the materialised product in place.
        assert rows.chain()[3] is not chain[3] and rows.materialized is chain[3]

    @pytest.mark.parametrize("num_hops", [2, 3])
    @pytest.mark.parametrize("delta", ["changed", "appended", "both"])
    @pytest.mark.parametrize("kind", ["plain", "asymmetric", "isolated", "unsorted"])
    def test_view_over_row_source_equals_view_over_product(
        self, small_graph, kind, delta, num_hops
    ):
        """A PropagatedView over the row source reads the same bytes as one
        over the whole base product, gathered and materialised."""
        base, derived, changed = _unstored_case(small_graph, kind, delta, seed=num_hops)
        operator = gcn_normalize(base.adjacency)
        if kind == "unsorted":
            operator = _shuffled_rows(operator, new_rng(5))
        full = sgc_precompute_hops(operator, base.features, num_hops)
        dirty = incremental_sgc_delta(
            gcn_normalize(derived.adjacency), derived.features, full, changed, num_hops
        )
        dense = PropagatedView(full[num_hops], *dirty, derived.num_nodes)
        rows = PropagatedRows(operator, base.features, num_hops)
        lazy = PropagatedView(rows, *dirty, derived.num_nodes)
        for selector in _selectors(derived.num_nodes) + [np.arange(derived.num_nodes)]:
            assert lazy.gather(selector).tobytes() == dense.gather(selector).tobytes()
        assert rows.materialized is None
        assert lazy.materialize().tobytes() == dense.materialize().tobytes()

    @pytest.mark.parametrize("delta", ["changed", "appended", "both"])
    def test_cache_view_reads_clean_rows_from_row_source(self, small_graph, delta):
        base, derived, changed = _unstored_case(small_graph, "weighted", delta)
        cache = PropagationCache()
        view = cache.propagated_view(derived, 2)
        source = view.base_product
        assert isinstance(source, PropagatedRows)
        full = sgc_precompute_hops(cache.normalized(base), base.features, 2)
        dense = PropagatedView(full[2], view.dirty_rows, view.dirty_values, derived.num_nodes)
        train = np.arange(0, derived.num_nodes, 4)
        assert view.gather(train).tobytes() == dense.gather(train).tobytes()
        clean = train[~np.isin(train, view.dirty_rows)]
        # Only the clean rows read: a dirty row's placeholder is one of them.
        assert source.stored_rows == clean.size
        assert source.materialized is None

    @pytest.mark.parametrize("delta", ["changed", "appended", "both"])
    def test_gather_of_only_dirty_rows_reads_no_base_row(self, small_graph, delta):
        base, derived, changed = _unstored_case(small_graph, "weighted", delta)
        cache = PropagationCache()
        view = cache.propagated_view(derived, 2)
        full = sgc_precompute_hops(cache.normalized(base), base.features, 2)
        dense = PropagatedView(full[2], view.dirty_rows, view.dirty_values, derived.num_nodes)
        for selector in (view.dirty_rows[::-1], view.dirty_rows[:1], np.array([], dtype=np.int64)):
            assert view.gather(selector).tobytes() == dense.gather(selector).tobytes()
        assert view.base_product.stored_rows == 0

    @pytest.mark.parametrize(
        "attack",
        [
            {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
            {"name": "gta", "overrides": {"generator_epochs": 2, "poison_ratio": 0.2}},
            {"name": "injection", "overrides": {"num_injected": 2, "feature_steps": 2}},
        ],
        ids=lambda attack: attack["name"],
    )
    def test_tiny_cell_never_materialises_a_row_source(self, attack, monkeypatch):
        """gcond and the attacks' surrogate fits read the base product at
        rows only: a cell whose row sources refuse to materialise completes
        with the same record."""
        spec = ExperimentSpec.from_dict(
            {
                "dataset": "tiny",
                "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
                "attack": attack,
                "trigger": {"name": "mlp", "overrides": {"trigger_size": 2}},
                "defense": "prune",
                "evaluation": {"overrides": {"epochs": 10}},
                "seed": 5,
            }
        )

        def run_fresh():
            previous = set_default_cache(PropagationCache())
            try:
                return runner.run_experiment(spec)
            finally:
                set_default_cache(previous)

        expected = run_fresh()

        def refuse(self, *args):
            raise AssertionError("a row source was materialised")

        monkeypatch.setattr(PropagatedRows, "materialize", refuse)
        monkeypatch.setattr(PropagatedRows, "chain", refuse)
        record = run_fresh()
        assert record.ok, record.error
        got, want = record.to_dict(), expected.to_dict()
        for payload in (got, want):
            payload.pop("timings")
        assert got == want


class TestBlockedTermsAccumulateInPlace:
    """``_matmul_hop_product`` over a blocked hop sums its terms into one
    array: the bytes of ``out = out + term``, without an array per block."""

    @staticmethod
    def _allocating_sum(matrix, product):
        matrix = matrix.tocsc()
        out = None
        for start, stop, block in product.blocks():
            term = matrix[:, start:stop] @ np.asarray(block)
            out = term if out is None else out + term
        return out

    @pytest.mark.parametrize("block_rows", [7, 13, 30])
    def test_bytes_equal_to_allocating_sum(self, small_graph, block_rows):
        normalized = gcn_normalize(small_graph.adjacency)
        hop = blocked_spmm(normalized, small_graph.features, row_block=block_rows)
        assert hop.num_blocks >= 3
        matrix = normalized[np.arange(0, small_graph.num_nodes, 2)]
        got = _matmul_hop_product(matrix, hop)
        assert got.tobytes() == self._allocating_sum(matrix, hop).tobytes()

    def test_holds_one_output_size_array(self):
        rng = new_rng(12)
        n, f, blocks = 400, 600, 8
        matrix = sp.random(n, n, density=0.02, format="csr", random_state=3)
        hop = blocked_spmm(matrix, rng.normal(size=(n, f)), row_block=n // blocks)
        assert hop.num_blocks == blocks
        output = n * f * 8
        in_place = _traced_growth(lambda: _matmul_hop_product(matrix, hop))
        allocating = _traced_growth(lambda: self._allocating_sum(matrix, hop))
        # The result, one term beside it, and a block read from disk; the
        # allocating sum holds a third output-size array at every step.
        assert in_place < 2.5 * output, (in_place, output)
        assert allocating > 2.5 * output, (allocating, output)


class TestGcnEncoderFromCache:
    """The gcn trigger encoder's ``Â^K X`` comes from the propagation cache
    for a base graph, byte-equal to ``sgc_precompute``; a derived graph and a
    blocked chain keep the encoder's own propagation."""

    @pytest.mark.parametrize("num_hops", [1, 2, 3])
    def test_bytes_equal_to_sgc_precompute(self, small_graph, num_hops):
        generator = TriggerGenerator(
            small_graph.num_features, new_rng(3),
            TriggerConfig(trigger_size=2, hidden=8, encoder="gcn", num_hops=num_hops),
        )
        cache = PropagationCache()
        previous = set_default_cache(cache)
        try:
            got = generator.encode_inputs(
                small_graph.adjacency, small_graph.features, small_graph
            )
            assert got is cache.propagated(small_graph, num_hops)
        finally:
            set_default_cache(previous)
        expected = sgc_precompute(small_graph.adjacency, small_graph.features, num_hops)
        assert got.tobytes() == expected.tobytes()

    def test_derived_and_blocked_graphs_propagate_here(self, small_graph, force_blocked):
        generator = TriggerGenerator(
            small_graph.num_features, new_rng(3),
            TriggerConfig(trigger_size=2, hidden=8, encoder="gcn"),
        )
        variant = small_graph.with_(labels=small_graph.labels.copy())
        cache = PropagationCache()
        previous = set_default_cache(cache)
        try:
            for graph in (small_graph, variant):
                got = generator.encode_inputs(graph.adjacency, graph.features, graph)
                assert isinstance(got, np.ndarray)
                expected = sgc_precompute(graph.adjacency, graph.features, 2)
                assert got.tobytes() == expected.tobytes()
        finally:
            set_default_cache(previous)
        assert cache.stats()["misses"] == cache.stats()["hits"] == 0
