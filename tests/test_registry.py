"""Tests for the component registries (repro.registry)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

import repro  # noqa: F401  — importing the package populates every registry
from repro.attack.bgc import BGC, BGCConfig
from repro.condensation.base import CondensationConfig, Condenser
from repro.defenses import Defense
from repro.defenses.prune import PruneDefense
from repro.exceptions import ConfigurationError
from repro.graph.data import GraphData
from repro.models.base import NodeClassifier
from repro.registry import (
    ATTACKS,
    CONDENSERS,
    DATASETS,
    DEFENSES,
    MODELS,
    Registry,
    all_registries,
    bind_config,
)
from repro.utils.seed import new_rng


class TestBindConfig:
    def test_defaults_when_no_overrides(self):
        config = bind_config(CondensationConfig, {})
        assert config == CondensationConfig()

    def test_flat_override(self):
        config = bind_config(CondensationConfig, {"epochs": 5, "ratio": 0.5})
        assert config.epochs == 5
        assert config.ratio == pytest.approx(0.5)

    def test_dot_path_reaches_nested_config(self):
        config = bind_config(BGCConfig, {"trigger.trigger_size": 2, "epochs": 3})
        assert config.trigger.trigger_size == 2
        assert config.epochs == 3
        # untouched nested defaults survive
        assert config.trigger.hidden == BGCConfig().trigger.hidden

    def test_nested_dict_form_binds_like_dot_path(self):
        """{"trigger": {"trigger_size": 2}} must not leave a raw dict behind."""
        from repro.attack.trigger import TriggerConfig

        config = bind_config(BGCConfig, {"trigger": {"trigger_size": 2}})
        assert isinstance(config.trigger, TriggerConfig)
        assert config.trigger.trigger_size == 2

    def test_nested_dict_and_dot_path_merge(self):
        config = bind_config(
            BGCConfig, {"trigger": {"trigger_size": 2}, "trigger.hidden": 16}
        )
        assert config.trigger.trigger_size == 2
        assert config.trigger.hidden == 16

    def test_base_config_is_not_mutated(self):
        base = BGCConfig(epochs=7)
        bound = bind_config(BGCConfig, {"trigger.trigger_size": 2}, base=base)
        assert base.trigger.trigger_size == 4
        assert bound.trigger.trigger_size == 2
        assert bound.epochs == 7

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown CondensationConfig field"):
            bind_config(CondensationConfig, {"nope": 1})

    def test_validation_runs_on_final_values(self):
        with pytest.raises(ConfigurationError):
            bind_config(CondensationConfig, {"epochs": 0})

    def test_dotted_override_on_scalar_field_rejected(self):
        with pytest.raises(ConfigurationError, match="not a nested config"):
            bind_config(CondensationConfig, {"epochs.inner": 1})


class TestRegistryMechanics:
    def _registry(self) -> Registry:
        return Registry("widget")

    def test_decorator_registration_and_alias(self):
        registry = self._registry()

        @registry.register("alpha", aliases=("a",))
        class Alpha:
            pass

        assert registry.available() == ["alpha"]
        assert "a" in registry
        assert registry.get("A").factory is Alpha
        assert registry.canonical("a") == "alpha"

    def test_duplicate_name_rejected(self):
        registry = self._registry()
        registry.register("x", factory=object)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("x", factory=object)

    def test_duplicate_alias_rejected(self):
        registry = self._registry()
        registry.register("x", factory=object, aliases=("y",))
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("y", factory=object)

    def test_unknown_name_lists_available(self):
        registry = self._registry()
        registry.register("only", factory=object)
        with pytest.raises(ConfigurationError, match="available: only"):
            registry.get("missing")

    def test_build_without_config_cls_passes_kwargs(self):
        registry = self._registry()

        @registry.register("make")
        class Thing:
            def __init__(self, value=1):
                self.value = value

        assert registry.build("make", value=9).value == 9

    def test_build_binds_config_and_constructor_kwargs(self):
        registry = self._registry()

        @dataclass
        class WidgetConfig:
            size: int = 1

        @registry.register("w", config_cls=WidgetConfig)
        class Widget:
            def __init__(self, config=None, extra=0):
                self.config = config or WidgetConfig()
                self.extra = extra

        built = registry.build("w", size=3, extra=5)
        assert built.config.size == 3
        assert built.extra == 5
        # no overrides → config=None → component default applies
        assert registry.build("w").config == WidgetConfig()

    def test_build_rejects_unknown_override(self):
        registry = self._registry()

        @dataclass
        class WidgetConfig:
            size: int = 1

        registry.register("w", factory=lambda config=None: config, config_cls=WidgetConfig)
        with pytest.raises(ConfigurationError, match="unknown override"):
            registry.build("w", nonsense=1)


class TestRegistryCompleteness:
    """Every concrete implementation must be registered and buildable."""

    def test_all_five_families_are_populated(self):
        for name, registry in all_registries().items():
            assert len(registry) > 0, f"{name} registry is empty"

    @pytest.mark.parametrize("name", ["cora", "citeseer", "flickr", "reddit", "tiny"])
    def test_datasets_buildable(self, name):
        graph = DATASETS.build(name, seed=0)
        assert isinstance(graph, GraphData)
        assert graph.name.lower() == name

    @pytest.mark.parametrize("name", ["gcn", "sgc", "sage", "mlp", "appnp", "cheby"])
    def test_models_buildable(self, name):
        model = MODELS.build(name, in_features=8, num_classes=3, rng=new_rng(0))
        assert isinstance(model, NodeClassifier)

    @pytest.mark.parametrize("name", ["gcond", "gcond-x", "dc-graph", "gc-sntk"])
    def test_condensers_buildable(self, name):
        condenser = CONDENSERS.build(name, epochs=2, ratio=0.1)
        assert isinstance(condenser, Condenser)
        assert condenser.config.epochs == 2

    @pytest.mark.parametrize(
        "alias,canonical",
        [("gcondx", "gcond-x"), ("dcgraph", "dc-graph"), ("gcsntk", "gc-sntk")],
    )
    def test_condenser_aliases_resolve(self, alias, canonical):
        assert CONDENSERS.canonical(alias) == canonical

    @pytest.mark.parametrize("name", ["bgc", "naive", "gta", "doorping"])
    def test_attacks_buildable(self, name):
        attack = ATTACKS.build(name)
        assert hasattr(attack, "run")
        assert hasattr(attack, "config")

    def test_attack_nested_trigger_override(self):
        attack = ATTACKS.build("bgc", **{"epochs": 2, "trigger.trigger_size": 2})
        assert isinstance(attack, BGC)
        assert attack.config.trigger.trigger_size == 2

    @pytest.mark.parametrize(
        "name", ["prune", "randsmooth", "feature-outlier", "spectral-signature"]
    )
    def test_defenses_buildable(self, name):
        assert isinstance(DEFENSES.build(name), Defense)

    def test_prune_defense_config_binding(self):
        defense = DEFENSES.build("prune", prune_fraction=0.5)
        assert isinstance(defense, PruneDefense)
        assert defense.config.prune_fraction == pytest.approx(0.5)

    def test_gc_sntk_constructor_kwarg_forwarded(self):
        condenser = CONDENSERS.build("gc-sntk", ridge=0.5, epochs=2)
        assert condenser.ridge == pytest.approx(0.5)
        assert condenser.config.epochs == 2

    def test_back_compat_wrappers_agree_with_registries(self):
        from repro import available_architectures, available_condensers, list_datasets

        assert available_condensers() == CONDENSERS.available()
        assert available_architectures() == MODELS.available()
        assert list_datasets() == DATASETS.available()
