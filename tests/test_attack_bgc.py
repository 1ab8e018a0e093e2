"""Unit and small end-to-end tests for the BGC attack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack import BGC, BGCConfig, TriggerConfig
from repro.attack.selection import SelectionConfig
from repro.condensation import CondensationConfig, make_condenser
from repro.evaluation.pipeline import (
    EvaluationConfig,
    evaluate_backdoor,
    evaluate_clean,
    train_model_on_condensed,
)
from repro.exceptions import AttackError
from repro.utils.seed import new_rng


def fast_attack_config(**overrides) -> BGCConfig:
    defaults = dict(
        target_class=0,
        poison_ratio=0.3,
        epochs=4,
        surrogate_steps=10,
        generator_steps=1,
        update_batch_size=4,
        trigger=TriggerConfig(trigger_size=2, hidden=16),
        selection=SelectionConfig(num_clusters=2, selector_epochs=15),
    )
    defaults.update(overrides)
    return BGCConfig(**defaults)


def fast_condenser(name="gcond-x"):
    return make_condenser(name, CondensationConfig(epochs=4, ratio=0.3))


class TestBGCConfig:
    def test_defaults_valid(self):
        BGCConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"poison_ratio": None, "poison_number": None},
            {"poison_ratio": 1.5},
            {"poison_number": 0},
            {"epochs": 0},
            {"generator_steps": -1},
            {"update_batch_size": 0},
            {"directed": True, "source_class": None},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(AttackError):
            BGCConfig(**kwargs)


class TestBGCRun:
    def test_result_structure(self, small_graph):
        attack = BGC(fast_attack_config())
        result = attack.run(small_graph, fast_condenser(), new_rng(0))
        assert result.target_class == 0
        assert result.poisoned_nodes.size >= 1
        assert result.condensed.num_nodes >= small_graph.num_classes
        assert len(result.history) == 4
        assert all("trigger_loss" in entry for entry in result.history)

    def test_poisoned_nodes_not_of_target_class(self, small_graph):
        attack = BGC(fast_attack_config())
        result = attack.run(small_graph, fast_condenser(), new_rng(0))
        assert np.all(small_graph.labels[result.poisoned_nodes] != 0)

    def test_poison_number_overrides_ratio(self, small_graph):
        attack = BGC(fast_attack_config(poison_number=3, poison_ratio=None))
        result = attack.run(small_graph, fast_condenser(), new_rng(0))
        assert result.poisoned_nodes.size <= 3

    def test_invalid_target_class_rejected(self, small_graph):
        attack = BGC(fast_attack_config(target_class=99))
        with pytest.raises(AttackError):
            attack.run(small_graph, fast_condenser(), new_rng(0))

    def test_random_selection_variant(self, small_graph):
        attack = BGC(fast_attack_config(use_random_selection=True))
        result = attack.run(small_graph, fast_condenser(), new_rng(0))
        assert result.poisoned_nodes.size >= 1

    def test_directed_variant_poisons_only_source_class(self, small_graph):
        attack = BGC(fast_attack_config(directed=True, source_class=2))
        result = attack.run(small_graph, fast_condenser(), new_rng(0))
        assert np.all(small_graph.labels[result.poisoned_nodes] == 2)

    def test_works_with_gcond_structure_learner(self, small_graph):
        attack = BGC(fast_attack_config())
        result = attack.run(small_graph, fast_condenser("gcond"), new_rng(0))
        assert result.condensed.method == "gcond"

    def test_works_with_gc_sntk(self, small_graph):
        attack = BGC(fast_attack_config())
        result = attack.run(small_graph, fast_condenser("gc-sntk"), new_rng(0))
        assert result.condensed.method == "gc-sntk"

    def test_works_on_inductive_graph(self, small_graph):
        inductive = small_graph.with_(inductive=True)
        attack = BGC(fast_attack_config(poison_number=4, poison_ratio=None))
        result = attack.run(inductive, fast_condenser(), new_rng(0))
        assert result.condensed.num_nodes >= 1

    def test_condensed_labels_still_cover_all_classes(self, small_graph):
        attack = BGC(fast_attack_config())
        result = attack.run(small_graph, fast_condenser(), new_rng(0))
        assert set(np.unique(result.condensed.labels)) == set(range(small_graph.num_classes))


class TestSeedDeterminism:
    """Two runs at a fixed seed must agree bit for bit.

    Guards the rng-batch refactor: the generator update now draws whole
    batches through one autograd graph, and the poisoned graph is built by
    CSR surgery with incremental renormalisation — none of which may perturb
    the sampled streams or the arithmetic from run to run.  The second run
    deliberately reuses whatever propagation-cache state the first one left
    behind: results must not depend on cache residency.
    """

    def _run_once(self, graph, seed: int):
        attack = BGC(fast_attack_config(generator_steps=2, epochs=3))
        return attack.run(graph, fast_condenser(), new_rng(seed))

    def test_bit_identical_poisoned_outputs(self, small_graph):
        from repro.graph.cache import PropagationCache, set_default_cache

        previous = set_default_cache(PropagationCache())
        try:
            first = self._run_once(small_graph, seed=123)
            second = self._run_once(small_graph, seed=123)
        finally:
            set_default_cache(previous)

        np.testing.assert_array_equal(first.poisoned_nodes, second.poisoned_nodes)
        # Condensed (poisoned) graph: bit-identical arrays.
        assert first.condensed.features.tobytes() == second.condensed.features.tobytes()
        assert np.asarray(first.condensed.adjacency).tobytes() == np.asarray(
            second.condensed.adjacency
        ).tobytes()
        np.testing.assert_array_equal(first.condensed.labels, second.condensed.labels)
        # Trigger generator parameters: bit-identical.
        for p1, p2 in zip(first.generator.parameters(), second.generator.parameters()):
            assert p1.data.tobytes() == p2.data.tobytes()
        # Attack metrics history: exact float equality, not approximate.
        assert first.history == second.history

    def test_different_seeds_diverge(self, small_graph):
        first = self._run_once(small_graph, seed=123)
        second = self._run_once(small_graph, seed=124)
        assert first.history != second.history


class TestBGCEffectiveness:
    """End-to-end check that BGC actually backdoors the downstream model."""

    @pytest.fixture(scope="class")
    def attack_outcome(self):
        from helpers import build_small_graph

        graph = build_small_graph(seed=11, nodes_per_class=50, train_per_class=15)
        condenser = make_condenser("gcond-x", CondensationConfig(epochs=10, ratio=0.25))
        attack = BGC(
            BGCConfig(
                target_class=0,
                poison_ratio=0.2,
                epochs=10,
                surrogate_steps=20,
                generator_steps=2,
                update_batch_size=8,
                trigger=TriggerConfig(trigger_size=3, hidden=16, feature_scale=0.2),
                selection=SelectionConfig(num_clusters=2, selector_epochs=30),
            )
        )
        result = attack.run(graph, condenser, new_rng(5))
        evaluation = EvaluationConfig(epochs=80, hidden=16)
        model = train_model_on_condensed(result.condensed, graph, evaluation, new_rng(6))
        cta = evaluate_clean(model, graph)
        asr = evaluate_backdoor(model, graph, result.generator, result.target_class)
        return graph, result, cta, asr

    def _clean_condensation_config(self):
        return CondensationConfig(epochs=10, ratio=0.25)

    def test_attack_success_rate_is_high(self, attack_outcome):
        _, _, _, asr = attack_outcome
        assert asr > 0.8

    def test_clean_accuracy_is_preserved(self, attack_outcome):
        _, _, cta, _ = attack_outcome
        assert cta > 0.6

    def test_clean_model_is_not_fooled(self, attack_outcome):
        graph, result, _, _ = attack_outcome
        clean_condenser = make_condenser("gcond-x", CondensationConfig(epochs=10, ratio=0.25))
        clean_condensed = clean_condenser.condense(graph, new_rng(7))
        clean_model = train_model_on_condensed(
            clean_condensed, graph, EvaluationConfig(epochs=80, hidden=16), new_rng(8)
        )
        clean_asr = evaluate_backdoor(clean_model, graph, result.generator, result.target_class)
        _, _, _, attacked_asr = attack_outcome
        assert clean_asr < attacked_asr


class TestEncoderInputsComputedOnce:
    """``run`` encodes the graph once and hands the inputs to every epoch."""

    def _run(self, graph):
        config = fast_attack_config(trigger=TriggerConfig(trigger_size=2, hidden=16, encoder="gcn"))
        return BGC(config).run(graph, fast_condenser("gcond"), new_rng(4))

    def test_gcn_encoder_run_matches_recomputing_inputs(self, small_graph, monkeypatch):
        import repro.attack.bgc as bgc_module
        from repro.attack.trigger import TriggerGenerator, generate_hard_triggers

        calls = []
        encode = TriggerGenerator.encode_inputs

        def counting_encode(self, *args):
            calls.append(1)
            return encode(self, *args)

        monkeypatch.setattr(TriggerGenerator, "encode_inputs", counting_encode)
        shared = self._run(small_graph)
        assert len(calls) == 1

        def recomputing(generator, adjacency, features, nodes, inputs=None):
            return generate_hard_triggers(generator, adjacency, features, nodes)

        monkeypatch.setattr(bgc_module, "generate_hard_triggers", recomputing)
        calls.clear()
        recomputed = self._run(small_graph)
        assert len(calls) == 1 + 4  # once up front, then once per epoch
        for name in ("features", "labels", "adjacency"):
            np.testing.assert_array_equal(
                getattr(shared.condensed, name), getattr(recomputed.condensed, name)
            )
        for a, b in zip(shared.generator.parameters(), recomputed.generator.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(shared.poisoned_nodes, recomputed.poisoned_nodes)

    def test_select_hook_replaces_selection(self, small_graph):
        attack = BGC(fast_attack_config())
        baseline = attack.run(small_graph, fast_condenser(), new_rng(2))
        seen = []

        def select(working, rng):
            seen.append(working)
            return attack.select_poisoned_nodes(working, rng)

        hooked = BGC(fast_attack_config()).run(small_graph, fast_condenser(), new_rng(2), select=select)
        assert len(seen) == 1 and seen[0] is small_graph
        np.testing.assert_array_equal(baseline.condensed.features, hooked.condensed.features)

    def test_selection_key_tracks_only_selection_fields(self):
        key = BGC(fast_attack_config()).selection_key()
        assert BGC(fast_attack_config(epochs=9, surrogate_steps=3)).selection_key() == key
        assert BGC(fast_attack_config(poison_ratio=0.2)).selection_key() != key
        assert BGC(fast_attack_config(target_class=1)).selection_key() != key
        other_selection = SelectionConfig(num_clusters=3, selector_epochs=15)
        assert BGC(fast_attack_config(selection=other_selection)).selection_key() != key
