"""Unit tests for the baseline attacks: Naive Poison, GTA and DOORPING."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack import GTAAttack, DoorpingAttack, NaivePoison
from repro.attack.baselines.doorping import DoorpingConfig
from repro.attack.baselines.gta import GTAConfig
from repro.attack.naive import NaivePoisonConfig
from repro.attack.trigger import TriggerConfig
from repro.attack.selection import SelectionConfig
from helpers import spy_on_condense
from repro.condensation import CondensationConfig, make_condenser
from repro.exceptions import AttackError
from repro.graph.view import GraphView
from repro.utils.seed import new_rng


def fast_condenser():
    return make_condenser("gcond-x", CondensationConfig(epochs=3, ratio=0.3))


FAST_TRIGGER = TriggerConfig(trigger_size=2, hidden=16)
FAST_SELECTION = SelectionConfig(num_clusters=2, selector_epochs=15)


class TestNaivePoison:
    def test_poisons_condensed_graph(self, small_graph, rng):
        attack = NaivePoison(NaivePoisonConfig(target_class=0, poison_fraction=0.3))
        poisoned, pattern = attack.run(small_graph, fast_condenser(), rng)
        assert "naive-poison" in poisoned.method
        assert pattern.shape == (small_graph.num_features,)
        assert np.any(poisoned.labels == 0)

    def test_poisoned_graph_differs_from_clean(self, small_graph):
        condenser = fast_condenser()
        clean = condenser.condense(small_graph, new_rng(3))
        attack = NaivePoison(NaivePoisonConfig(poison_fraction=0.3))
        poisoned, _ = attack.run(small_graph, fast_condenser(), new_rng(3))
        assert not np.allclose(clean.features, poisoned.features)

    def test_attach_universal_trigger(self, small_graph):
        pattern = np.zeros(small_graph.num_features)
        pattern[0] = 1.0
        triggered = NaivePoison.attach_universal_trigger(
            small_graph, small_graph.split.test[:5], pattern, mix=1.0
        )
        np.testing.assert_allclose(
            triggered.features[small_graph.split.test[0]], pattern
        )
        # Other nodes untouched.
        untouched = np.setdiff1d(np.arange(small_graph.num_nodes), small_graph.split.test[:5])
        np.testing.assert_allclose(
            triggered.features[untouched], small_graph.features[untouched]
        )

    def test_invalid_config(self):
        with pytest.raises(AttackError):
            NaivePoisonConfig(num_trigger_nodes=0)
        with pytest.raises(AttackError):
            NaivePoisonConfig(poison_fraction=0.0)


class TestGTA:
    def test_run_produces_condensed_graph_and_generator(self, small_graph, rng):
        attack = GTAAttack(
            GTAConfig(
                poison_ratio=0.3,
                generator_epochs=3,
                update_batch_size=4,
                surrogate_steps=20,
                trigger=FAST_TRIGGER,
                selection=FAST_SELECTION,
            )
        )
        result = attack.run(small_graph, fast_condenser(), rng)
        assert result.condensed.num_nodes >= small_graph.num_classes
        assert result.poisoned_nodes.size >= 1
        # The generator must be usable by the evaluation pipeline.
        from repro.attack.trigger import generate_hard_triggers

        features, adjacency = generate_hard_triggers(
            result.generator, small_graph.adjacency, small_graph.features, np.array([0, 1])
        )
        assert features.shape[0] == 2

    def test_condenses_the_poisoned_view(self, small_graph, rng):
        """The poisoned graph reaches the condenser as a view, never vstacked."""
        attack = GTAAttack(
            GTAConfig(
                poison_ratio=0.3,
                generator_epochs=1,
                surrogate_steps=5,
                trigger=FAST_TRIGGER,
                selection=FAST_SELECTION,
            )
        )
        condenser = fast_condenser()
        seen = spy_on_condense(condenser)
        result = attack.run(small_graph, condenser, rng)
        (poisoned,) = seen
        assert isinstance(poisoned, GraphView)
        assert poisoned.base is small_graph
        np.testing.assert_array_equal(
            poisoned.derivation.changed_nodes, np.unique(result.poisoned_nodes)
        )

    def test_invalid_config(self):
        with pytest.raises(AttackError):
            GTAConfig(poison_ratio=None, poison_number=None)
        with pytest.raises(AttackError):
            GTAConfig(generator_epochs=0)


class TestDoorping:
    def test_run_produces_universal_trigger(self, small_graph, rng):
        attack = DoorpingAttack(
            DoorpingConfig(
                poison_ratio=0.3,
                epochs=3,
                trigger_steps=1,
                update_batch_size=4,
                surrogate_steps=10,
                trigger=FAST_TRIGGER,
                selection=FAST_SELECTION,
            )
        )
        result = attack.run(small_graph, fast_condenser(), rng)
        assert result.condensed.num_nodes >= small_graph.num_classes
        assert len(result.history) == 3
        # Universal: the same trigger for every node.
        from repro.attack.trigger import generate_hard_triggers

        features, _ = generate_hard_triggers(
            result.generator, small_graph.adjacency, small_graph.features, np.array([0, 5])
        )
        np.testing.assert_allclose(features[0], features[1])

    def test_trigger_is_updated_during_condensation(self, small_graph, rng):
        config = DoorpingConfig(
            poison_ratio=0.3,
            epochs=3,
            trigger_steps=1,
            update_batch_size=4,
            surrogate_steps=10,
            trigger=FAST_TRIGGER,
            selection=FAST_SELECTION,
        )
        attack = DoorpingAttack(config)
        initial_seed_generator = new_rng(42)
        from repro.attack.trigger import UniversalTriggerGenerator

        untouched = UniversalTriggerGenerator(
            small_graph.num_features, initial_seed_generator, FAST_TRIGGER
        )
        result = attack.run(small_graph, fast_condenser(), new_rng(42))
        assert not np.allclose(
            result.generator.trigger_features.data, untouched.trigger_features.data
        )

    def test_invalid_config(self):
        with pytest.raises(AttackError):
            DoorpingConfig(poison_ratio=None, poison_number=None)
        with pytest.raises(AttackError):
            DoorpingConfig(epochs=0)


class TestBaselinesRunOnBGC:
    """GTA and DOORPING are BGC with one choice changed, bound from their own configs."""

    @staticmethod
    def _sweep(attack: dict):
        from repro.api import SweepSpec, run_sweep

        return run_sweep(
            SweepSpec.from_dict(
                {
                    "name": f"{attack['name']}-select",
                    "base": {
                        "dataset": "tiny",
                        "attack": attack,
                        "trigger": {"overrides": {"trigger_size": 2}},
                        "evaluation": {"overrides": {"epochs": 10}},
                    },
                    "axes": {
                        "condenser": [
                            {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
                            {"name": "gc-sntk", "overrides": {"epochs": 2, "ratio": 0.2}},
                        ],
                        "seed": [5],
                    },
                }
            )
        )

    @pytest.mark.parametrize(
        "attack",
        [
            {"name": "doorping", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
            {"name": "gta", "overrides": {"generator_epochs": 3, "poison_ratio": 0.2}},
        ],
    )
    def test_two_condensers_share_one_selection(self, attack):
        sweep = self._sweep(attack)
        assert all(record.ok for record in sweep)
        assert sweep.memo_stats["select_hits"] == 1
        assert sweep.memo_stats["select_misses"] == 1

    @pytest.mark.parametrize("name", ["doorping", "gta"])
    def test_bgc_only_fields_are_rejected(self, name):
        from repro.api import ExperimentSpec, run_experiment
        from repro.exceptions import ConfigurationError

        spec = ExperimentSpec.from_dict(
            {"dataset": "tiny", "condenser": "gcond",
             "attack": {"name": name, "overrides": {"directed": True}}}
        )
        with pytest.raises(ConfigurationError, match="unknown override 'directed'"):
            run_experiment(spec)

    def test_step_counts_bind_from_json(self):
        from repro.api import ExperimentSpec
        from repro.api.runner import _resolve_attack

        def attack(payload: str):
            return _resolve_attack(ExperimentSpec.from_json(payload))

        doorping = attack(
            '{"dataset": "tiny", "condenser": "gcond",'
            ' "attack": {"name": "doorping", "overrides": {"trigger_steps": 5}}}'
        )
        gta = attack(
            '{"dataset": "tiny", "condenser": "gcond",'
            ' "attack": {"name": "gta", "overrides": {"generator_epochs": 7}}}'
        )
        assert isinstance(doorping, DoorpingAttack) and doorping.config.generator_steps == 5
        assert isinstance(gta, GTAAttack) and gta.config.generator_steps == 7

    def test_doorping_runs_bgc_loop(self):
        from repro.attack.bgc import BGC

        assert DoorpingAttack.run is BGC.run
