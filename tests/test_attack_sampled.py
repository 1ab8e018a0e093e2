"""Sampled search-space attacks: codec, equivalence, determinism, scale.

The contracts under test (see :mod:`repro.attack.sampled` and
:mod:`repro.attack.injection`):

* the triangular pair codec is an exact bijection between linear indices and
  ``(row < col)`` node pairs at any graph size, including the six-figure
  regime where the decode goes through a float square root;
* a sampled block that covers the full candidate space is **bit-identical**
  to the pinned exhaustive reference — same flips, same condensed graph,
  same trigger pattern — and both consume the caller's generator identically;
* the same seed produces the same poisoned result, serially and under the
  process backend with ``workers=2``;
* one sampled step on the 100k-node flickr stand-in never materialises the
  ~5·10⁹-pair candidate space (peak-RSS asserted);
* injected node features stay inside the per-dimension envelope of the real
  feature matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from helpers import build_small_graph, spy_on_condense
from test_api_parallel import assert_records_identical
from repro.api import ExecutionSpec, SweepSpec, run_sweep
from repro.attack.injection import InjectionConfig, NodeInjectionAttack
from repro.attack.sampled import (
    MAX_EXHAUSTIVE_PAIRS,
    SampledEdgeAttack,
    SampledEdgeConfig,
    decode_pairs,
    edges_exist,
    encode_pairs,
    num_candidate_pairs,
)
from repro.datasets import load_dataset
from repro.exceptions import AttackError, GraphValidationError
from repro.graph.subgraph import append_node_edges, toggle_edges
from repro.graph.view import GraphView
from repro.registry import ATTACKS, CONDENSERS
from repro.utils.memory import current_rss_bytes, peak_rss_bytes, reset_peak_rss
from repro.utils.seed import new_rng


# ------------------------------------------------------------------ #
# Pair codec
# ------------------------------------------------------------------ #
class TestPairCodec:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_exhaustive_roundtrip_small(self, n):
        linear = np.arange(num_candidate_pairs(n), dtype=np.int64)
        rows, cols = decode_pairs(linear, n)
        assert np.all(rows < cols)
        assert rows.min() >= 0 and cols.max() < n
        # Every pair distinct, and encoding inverts the decode exactly.
        np.testing.assert_array_equal(encode_pairs(rows, cols, n), linear)

    def test_first_and_last_pairs(self):
        n = 257
        rows, cols = decode_pairs(np.array([0, num_candidate_pairs(n) - 1]), n)
        np.testing.assert_array_equal(rows, [0, n - 2])
        np.testing.assert_array_equal(cols, [1, n - 1])

    @given(
        n=st.integers(min_value=2, max_value=500),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_roundtrip(self, n, seed):
        generator = new_rng(seed)
        total = num_candidate_pairs(n)
        linear = generator.integers(0, total, size=min(total, 64), dtype=np.int64)
        rows, cols = decode_pairs(linear, n)
        assert np.all((0 <= rows) & (rows < cols) & (cols < n))
        np.testing.assert_array_equal(encode_pairs(rows, cols, n), linear)

    def test_six_figure_n_roundtrip(self):
        """The float decode stays exact where the RSS test operates (n=100k)."""
        n = 100_000
        generator = new_rng(0)
        total = num_candidate_pairs(n)
        linear = generator.integers(0, total, size=4096, dtype=np.int64)
        # Strip boundaries are where float rounding would bite: include the
        # first/last index of a spread of rows explicitly.
        strip_rows = np.array([0, 1, 2, 777, 50_000, n - 3, n - 2], dtype=np.int64)
        starts = encode_pairs(strip_rows, strip_rows + 1, n)
        linear = np.concatenate([linear, starts, starts - 1, [0, total - 1]])
        linear = linear[(linear >= 0) & (linear < total)]
        rows, cols = decode_pairs(linear, n)
        assert np.all((0 <= rows) & (rows < cols) & (cols < n))
        np.testing.assert_array_equal(encode_pairs(rows, cols, n), linear)

    def test_encode_rejects_unordered_pairs(self):
        with pytest.raises(AttackError, match="rows < cols"):
            encode_pairs(np.array([3]), np.array([3]), 10)

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(AttackError, match="out of range"):
            decode_pairs(np.array([num_candidate_pairs(10)]), 10)
        with pytest.raises(AttackError, match="out of range"):
            decode_pairs(np.array([-1]), 10)


# ------------------------------------------------------------------ #
# Graph-edit helpers
# ------------------------------------------------------------------ #
class TestToggleEdges:
    def _ring(self, n=6):
        rows = np.arange(n)
        cols = (rows + 1) % n
        coo = sp.coo_matrix(
            (np.ones(2 * n), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
            shape=(n, n),
        )
        return coo.tocsr()

    def test_add_and_remove(self):
        adjacency = self._ring()
        toggled, changed = toggle_edges(adjacency, np.array([0, 0]), np.array([1, 3]))
        # (0, 1) existed and is removed; (0, 3) did not and is added.
        assert toggled[0, 1] == 0.0 and toggled[1, 0] == 0.0
        assert toggled[0, 3] == 1.0 and toggled[3, 0] == 1.0
        np.testing.assert_array_equal(changed, [0, 1, 3])
        assert (abs(toggled - toggled.T)).max() == 0.0

    def test_double_toggle_is_identity(self):
        adjacency = self._ring()
        once, _ = toggle_edges(adjacency, np.array([0, 2]), np.array([1, 5]))
        twice, _ = toggle_edges(once, np.array([0, 2]), np.array([1, 5]))
        assert (abs(twice - adjacency)).max() == 0.0

    def test_removed_edges_leave_no_explicit_zeros(self):
        toggled, _ = toggle_edges(self._ring(), np.array([0]), np.array([1]))
        assert 0.0 not in toggled.data

    def test_validation(self):
        adjacency = self._ring()
        with pytest.raises(GraphValidationError, match="self-loop"):
            toggle_edges(adjacency, np.array([1]), np.array([1]))
        with pytest.raises(GraphValidationError, match="duplicate"):
            toggle_edges(adjacency, np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(GraphValidationError, match="range"):
            toggle_edges(adjacency, np.array([0]), np.array([6]))

    def test_edges_exist(self):
        adjacency = self._ring()
        existing = edges_exist(adjacency, np.array([0, 0]), np.array([1, 3]))
        np.testing.assert_array_equal(existing, [True, False])
        assert edges_exist(adjacency, np.empty(0, np.int64), np.empty(0, np.int64)).size == 0


class TestAppendNodeEdges:
    def test_appended_nodes_wire_to_hosts_only(self):
        adjacency = sp.csr_matrix(np.eye(4, k=1) + np.eye(4, k=-1))
        hosts = np.array([[0, 2], [1, 3]])
        expanded, changed = append_node_edges(adjacency, hosts)
        assert expanded.shape == (6, 6)
        np.testing.assert_array_equal(changed, [0, 1, 2, 3])
        assert expanded[4, 0] == 1.0 and expanded[0, 4] == 1.0
        assert expanded[4, 2] == 1.0 and expanded[5, 1] == 1.0
        # Injected nodes never connect to each other.
        assert expanded[4, 5] == 0.0 and expanded[5, 4] == 0.0
        # The original block is untouched.
        assert (abs(expanded[:4, :4] - adjacency)).max() == 0.0

    def test_validation(self):
        adjacency = sp.csr_matrix(np.eye(3, k=1) + np.eye(3, k=-1))
        with pytest.raises(GraphValidationError, match="range"):
            append_node_edges(adjacency, np.array([[0, 3]]))
        with pytest.raises(GraphValidationError, match="duplicate hosts"):
            append_node_edges(adjacency, np.array([[1, 1]]))
        with pytest.raises(GraphValidationError, match="shape"):
            append_node_edges(adjacency, np.array([0, 1]))


# ------------------------------------------------------------------ #
# Registration
# ------------------------------------------------------------------ #
class TestRegistration:
    def test_both_attackers_are_registered(self):
        known = ATTACKS.known()
        assert "prbcd" in known and "injection" in known

    @pytest.mark.parametrize(
        ("name", "cls"),
        [
            ("prbcd", SampledEdgeAttack),
            ("sampled-edge", SampledEdgeAttack),
            ("injection", NodeInjectionAttack),
            ("node-injection", NodeInjectionAttack),
        ],
    )
    def test_registry_builds_with_overrides(self, name, cls):
        attack = ATTACKS.build(name)
        assert isinstance(attack, cls)

    def test_config_validation(self):
        with pytest.raises(AttackError):
            SampledEdgeConfig(edge_budget=0)
        with pytest.raises(AttackError):
            SampledEdgeConfig(block_size=0)
        with pytest.raises(AttackError):
            SampledEdgeConfig(poison_ratio=None, poison_number=None)
        with pytest.raises(AttackError):
            InjectionConfig(num_injected=0)
        with pytest.raises(AttackError):
            InjectionConfig(feature_lr=0.0)


# ------------------------------------------------------------------ #
# Equivalence against the dense reference + determinism
# ------------------------------------------------------------------ #
def _tiny_condenser():
    return CONDENSERS.build("gcond", epochs=2, ratio=0.25)


def _fast_kwargs(**overrides):
    base = dict(
        poison_ratio=0.2,
        edge_budget=4,
        flip_steps=2,
        surrogate_steps=10,
    )
    base.update(overrides)
    return base


def assert_condensed_identical(a, b):
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.adjacency, b.adjacency)
    assert a.metadata == b.metadata


class TestCoveringBlockEquivalence:
    def test_covering_block_matches_exhaustive_reference(self, small_graph):
        """block_size ≥ total degenerates to the dense enumeration, bit for bit."""
        total = num_candidate_pairs(small_graph.num_nodes)
        covering = SampledEdgeAttack(
            SampledEdgeConfig(**_fast_kwargs(block_size=total))
        )
        exhaustive = SampledEdgeAttack(
            SampledEdgeConfig(**_fast_kwargs(exhaustive=True))
        )
        condensed_a, pattern_a = covering.run(small_graph, _tiny_condenser(), new_rng(11))
        condensed_b, pattern_b = exhaustive.run(small_graph, _tiny_condenser(), new_rng(11))
        assert_condensed_identical(condensed_a, condensed_b)
        np.testing.assert_array_equal(pattern_a, pattern_b)
        # Bit-identity subsumes the acceptance tolerance, but state it anyway.
        np.testing.assert_allclose(pattern_a, pattern_b, atol=1e-10)

    def test_covering_block_proposes_identical_flips(self, small_graph):
        total = num_candidate_pairs(small_graph.num_nodes)
        weight = new_rng(5).normal(
            size=(small_graph.num_features, small_graph.num_classes)
        )
        train = small_graph.split.train
        proposals = []
        for config in (
            SampledEdgeConfig(**_fast_kwargs(block_size=total)),
            SampledEdgeConfig(**_fast_kwargs(exhaustive=True)),
        ):
            attack = SampledEdgeAttack(config)
            proposals.append(
                attack.propose_flips(
                    small_graph, small_graph.labels, train, weight, new_rng(3), quota=4
                )
            )
        assert proposals[0] == proposals[1]
        assert len(proposals[0]) <= 4

    def test_sampled_block_stays_within_budget(self, small_graph):
        attack = SampledEdgeAttack(
            SampledEdgeConfig(**_fast_kwargs(block_size=64, edge_budget=3))
        )
        condensed, pattern = attack.run(small_graph, _tiny_condenser(), new_rng(11))
        assert condensed.metadata["flipped_edges"] <= 3
        assert pattern.shape == (small_graph.num_features,)

    def test_exhaustive_refused_beyond_limit(self):
        attack = SampledEdgeAttack(SampledEdgeConfig(**_fast_kwargs(exhaustive=True)))
        with pytest.raises(AttackError, match="refused"):
            attack._sample_block(new_rng(0), MAX_EXHAUSTIVE_PAIRS + 1)

    def test_covering_block_skips_the_limit_draw_consistently(self, small_graph):
        """Neither degenerate path consumes the step generator."""
        total = num_candidate_pairs(small_graph.num_nodes)
        for config in (
            SampledEdgeConfig(**_fast_kwargs(block_size=total)),
            SampledEdgeConfig(**_fast_kwargs(exhaustive=True)),
        ):
            step_rng = new_rng(123)
            before = step_rng.bit_generator.state
            SampledEdgeAttack(config)._sample_block(step_rng, total)
            assert step_rng.bit_generator.state == before


class TestSameSeedDeterminism:
    def test_prbcd_same_seed_bit_identity(self, small_graph):
        attack = SampledEdgeAttack(SampledEdgeConfig(**_fast_kwargs(block_size=64)))
        condensed_a, pattern_a = attack.run(small_graph, _tiny_condenser(), new_rng(7))
        condensed_b, pattern_b = attack.run(small_graph, _tiny_condenser(), new_rng(7))
        assert_condensed_identical(condensed_a, condensed_b)
        np.testing.assert_array_equal(pattern_a, pattern_b)

    def test_injection_same_seed_bit_identity(self, small_graph):
        attack = NodeInjectionAttack(
            InjectionConfig(num_injected=2, feature_steps=2, surrogate_steps=10)
        )
        condensed_a, pattern_a = attack.run(small_graph, _tiny_condenser(), new_rng(7))
        condensed_b, pattern_b = attack.run(small_graph, _tiny_condenser(), new_rng(7))
        assert_condensed_identical(condensed_a, condensed_b)
        np.testing.assert_array_equal(pattern_a, pattern_b)

    def test_different_seeds_differ(self, small_graph):
        attack = SampledEdgeAttack(SampledEdgeConfig(**_fast_kwargs(block_size=64)))
        condensed_a, _ = attack.run(small_graph, _tiny_condenser(), new_rng(7))
        condensed_b, _ = attack.run(small_graph, _tiny_condenser(), new_rng(8))
        assert not np.array_equal(condensed_a.features, condensed_b.features)


class TestPoisonedViewIsCondensed:
    """Both attackers hand the condenser their poisoned view, never a vstack."""

    def test_prbcd_condenses_its_flip_view(self, small_graph):
        attack = SampledEdgeAttack(SampledEdgeConfig(**_fast_kwargs(block_size=64)))
        condenser = _tiny_condenser()
        seen = spy_on_condense(condenser)
        condensed, _ = attack.run(small_graph, condenser, new_rng(7))
        (poisoned,) = seen
        assert isinstance(poisoned, GraphView)
        assert poisoned.base is small_graph
        assert condensed.metadata["flipped_edges"] > 0

    def test_injection_condenses_its_injected_view(self, small_graph):
        attack = NodeInjectionAttack(
            InjectionConfig(num_injected=2, feature_steps=2, surrogate_steps=10)
        )
        condenser = _tiny_condenser()
        seen = spy_on_condense(condenser)
        attack.run(small_graph, condenser, new_rng(7))
        (poisoned,) = seen
        assert isinstance(poisoned, GraphView)
        assert poisoned.num_nodes == small_graph.num_nodes + 2


# ------------------------------------------------------------------ #
# JSON sweep integration: serial vs process backend bit-identity
# ------------------------------------------------------------------ #
def sampled_sweep(seed: int = 7) -> SweepSpec:
    """Both new attackers as plain JSON axis entries — zero call-site changes."""
    return SweepSpec.from_dict(
        {
            "name": "sampled-smoke",
            "seed": seed,
            "base": {
                "dataset": "tiny",
                "condenser": {
                    "name": "gcond",
                    "overrides": {"epochs": 2, "ratio": 0.2},
                },
                "evaluation": {"overrides": {"epochs": 10}},
            },
            "axes": {
                "attack": [
                    {
                        "name": "prbcd",
                        "overrides": {
                            "poison_ratio": 0.2,
                            "edge_budget": 4,
                            "block_size": 64,
                            "flip_steps": 2,
                            "surrogate_steps": 10,
                        },
                    },
                    {
                        "name": "injection",
                        "overrides": {
                            "num_injected": 2,
                            "feature_steps": 2,
                            "surrogate_steps": 10,
                        },
                    },
                ],
            },
        }
    )


class TestSweepIntegration:
    def test_serial_vs_two_workers_bit_identical(self):
        serial = run_sweep(sampled_sweep())
        parallel = run_sweep(
            sampled_sweep(),
            execution=ExecutionSpec(backend="process", workers=2),
        )
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert_records_identical(a, b)
        for record in serial:
            assert record.ok
            assert record.poisoned_nodes >= 1
            assert 0.0 <= record.attack_asr <= 1.0


# ------------------------------------------------------------------ #
# Injection feature bounds
# ------------------------------------------------------------------ #
class TestInjectionBounds:
    def test_pattern_respects_feature_envelope(self, small_graph):
        attack = NodeInjectionAttack(
            InjectionConfig(num_injected=3, feature_steps=3, surrogate_steps=10)
        )
        condensed, pattern = attack.run(small_graph, _tiny_condenser(), new_rng(4))
        lower = np.asarray(small_graph.features).min(axis=0)
        upper = np.asarray(small_graph.features).max(axis=0)
        assert np.all(pattern >= lower - 1e-12)
        assert np.all(pattern <= upper + 1e-12)
        assert condensed.metadata["poisoned_nodes"] == 3.0

    def test_injected_view_shape_and_split(self, small_graph):
        attack = NodeInjectionAttack(InjectionConfig(num_injected=2, edges_per_node=2))
        hosts = attack._choose_hosts(small_graph, new_rng(1))
        features = np.zeros((2, small_graph.num_features))
        view = attack._injected_view(small_graph, features, hosts)
        n = small_graph.num_nodes
        assert view.num_nodes == n + 2
        np.testing.assert_array_equal(
            view.labels[n:], [attack.config.target_class] * 2
        )
        assert set(view.split.train) >= {n, n + 1}
        np.testing.assert_array_equal(view.split.test, small_graph.split.test)

    def test_target_class_out_of_range_rejected(self, small_graph):
        attack = NodeInjectionAttack(InjectionConfig(target_class=99))
        with pytest.raises(AttackError, match="target_class"):
            attack.run(small_graph, _tiny_condenser(), new_rng(0))


# ------------------------------------------------------------------ #
# Scale: one step at 100k nodes without the dense candidate space
# ------------------------------------------------------------------ #
class TestFlickrScaleStep:
    def test_sampled_step_peak_rss_is_bounded(self):
        """One propose_flips on the flickr stand-in (~5·10⁹ candidate pairs).

        The dense pair space would be ~40 GB of scores alone; the ceiling
        below also rules out any ``(n, F)`` chain materialisation (400 MB at
        100k × 500 float64).  The chains are pre-warmed outside the measured
        region — the property under test is the *step*, not the cache fill.
        """
        graph = load_dataset("flickr", seed=0)
        working = graph.training_view() if graph.inductive else graph
        config = SampledEdgeConfig(block_size=2048, flip_steps=1, surrogate_steps=1)
        attack = SampledEdgeAttack(config)
        from repro.graph.cache import get_default_cache

        cache = get_default_cache()
        cache.propagated(working, config.surrogate_hops)
        cache.propagated(working, config.surrogate_hops - 1)
        weight = new_rng(2).normal(
            scale=0.1, size=(working.num_features, working.num_classes)
        )
        train = working.split.train

        if not reset_peak_rss():
            pytest.skip("peak-RSS reset unsupported on this platform")
        baseline = current_rss_bytes()
        chosen = attack.propose_flips(
            working, working.labels, train, weight, new_rng(9), quota=8
        )
        peak = peak_rss_bytes()
        assert peak is not None and baseline is not None
        ceiling = 320 * 1024 * 1024
        assert peak - baseline < ceiling, (
            f"sampled step grew peak RSS by {(peak - baseline) / 2**20:.0f} MiB "
            f"(ceiling {ceiling / 2**20:.0f} MiB) — something materialised a "
            "candidate-space- or graph-sized intermediate"
        )
        assert len(chosen) <= 8
        for linear, row, col in chosen:
            assert 0 <= row < col < working.num_nodes
