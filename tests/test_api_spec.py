"""Tests for ExperimentSpec / SweepSpec serialization and expansion."""

from __future__ import annotations

import json

import pytest

from repro.api.spec import (
    ComponentSpec,
    ExecutionSpec,
    ExperimentSpec,
    SweepSpec,
    derive_cell_seed,
)
from repro.exceptions import ConfigurationError

FULL_PAYLOAD = {
    "dataset": {"name": "cora", "overrides": {"seed": 3}},
    "model": "sgc",
    "condenser": {"name": "gcond", "overrides": {"epochs": 30, "ratio": 0.026}},
    "attack": {"name": "bgc", "overrides": {"poison_ratio": 0.1, "trigger.trigger_size": 2}},
    "defense": "prune",
    "trigger": {"name": "mlp", "overrides": {"hidden": 32}},
    "evaluation": {"overrides": {"epochs": 150}},
    "seed": 11,
}


class TestComponentSpec:
    def test_coerce_shorthands(self):
        assert ComponentSpec.coerce(None) == ComponentSpec()
        assert ComponentSpec.coerce("gcond") == ComponentSpec("gcond")
        assert ComponentSpec.coerce({"name": "bgc", "overrides": {"epochs": 2}}) == ComponentSpec(
            "bgc", {"epochs": 2}
        )
        existing = ComponentSpec("x", {"a": 1})
        assert ComponentSpec.coerce(existing) is existing

    def test_coerce_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown component keys"):
            ComponentSpec.coerce({"name": "x", "oops": 1})

    def test_coerce_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            ComponentSpec.coerce(42)

    def test_with_override_does_not_mutate(self):
        spec = ComponentSpec("bgc", {"a": 1})
        updated = spec.with_override("b", 2)
        assert spec.overrides == {"a": 1}
        assert updated.overrides == {"a": 1, "b": 2}


class TestExperimentSpecRoundTrip:
    def test_exact_dict_round_trip(self):
        spec = ExperimentSpec.from_dict(FULL_PAYLOAD)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_exact_json_round_trip(self):
        spec = ExperimentSpec.from_dict(FULL_PAYLOAD)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_round_trip_preserves_dot_path_overrides(self):
        spec = ExperimentSpec.from_dict(FULL_PAYLOAD)
        recovered = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert recovered.attack.overrides["trigger.trigger_size"] == 2

    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.dataset.name == "cora"
        assert spec.model.name == "gcn"
        assert spec.condenser.name == "gcond"
        assert not spec.attack.is_set
        assert not spec.defense.is_set
        assert spec.seed == 0
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ExperimentSpec keys"):
            ExperimentSpec.from_dict({"datasets": "cora"})

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"seed": "zero"})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ExperimentSpec.from_dict({"seed": -1})
        with pytest.raises(ConfigurationError, match="non-negative"):
            SweepSpec.from_dict({"seed": -1, "axes": {}})
        with pytest.raises(ConfigurationError, match="non-negative"):
            ExperimentSpec().with_axis_value("seed", -3)

    def test_validate_runnable_requires_condenser_name(self):
        spec = ExperimentSpec.from_dict({"condenser": {"overrides": {"epochs": 2}}})
        with pytest.raises(ConfigurationError, match="condenser"):
            spec.validate_runnable()


class TestAxisApplication:
    def test_component_name_axis_preserves_base_overrides(self):
        base = ExperimentSpec.from_dict(
            {"condenser": {"name": "gcond", "overrides": {"epochs": 2}}}
        )
        updated = base.with_axis_value("condenser", "gc-sntk")
        assert updated.condenser.name == "gc-sntk"
        assert updated.condenser.overrides == {"epochs": 2}

    def test_component_mapping_axis_replaces_wholesale(self):
        base = ExperimentSpec.from_dict(
            {"attack": {"name": "bgc", "overrides": {"epochs": 2}}}
        )
        updated = base.with_axis_value("attack", {"name": "naive"})
        assert updated.attack.name == "naive"
        assert updated.attack.overrides == {}

    def test_dot_path_axis_sets_override(self):
        base = ExperimentSpec.from_dict({"attack": "bgc"})
        updated = base.with_axis_value("attack.poison_ratio", 0.05)
        assert updated.attack.overrides == {"poison_ratio": 0.05}

    def test_deep_dot_path_axis(self):
        base = ExperimentSpec.from_dict({"attack": "bgc"})
        updated = base.with_axis_value("attack.trigger.trigger_size", 2)
        assert updated.attack.overrides == {"trigger.trigger_size": 2}

    def test_seed_axis(self):
        assert ExperimentSpec().with_axis_value("seed", 9).seed == 9

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            ExperimentSpec().with_axis_value("poison_ratio", 0.1)


class TestSweepSpec:
    def _sweep(self) -> SweepSpec:
        return SweepSpec.from_dict(
            {
                "name": "grid",
                "seed": 5,
                "base": {
                    "dataset": "tiny",
                    "condenser": {"overrides": {"epochs": 2}},
                },
                "axes": {
                    "condenser": ["gcond", "gc-sntk"],
                    "attack.poison_ratio": [0.05, 0.1],
                },
            }
        )

    def test_round_trip(self):
        sweep = self._sweep()
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_cartesian_expansion_order(self):
        cells = self._sweep().expand()
        assert len(cells) == 4
        combos = [
            (spec.condenser.name, spec.attack.overrides["poison_ratio"]) for spec in cells
        ]
        assert combos == [
            ("gcond", 0.05),
            ("gcond", 0.1),
            ("gc-sntk", 0.05),
            ("gc-sntk", 0.1),
        ]

    def test_num_cells(self):
        assert self._sweep().num_cells == 4

    def test_expanded_cells_inherit_base_overrides(self):
        for spec in self._sweep().expand():
            assert spec.condenser.overrides["epochs"] == 2

    def test_per_cell_seeds_are_deterministic_and_distinct(self):
        first = [spec.seed for spec in self._sweep().expand()]
        second = [spec.seed for spec in self._sweep().expand()]
        assert first == second
        assert len(set(first)) == len(first)
        assert first == [derive_cell_seed(5, index) for index in range(4)]

    def test_sweep_seed_changes_cell_seeds(self):
        base = self._sweep()
        other = SweepSpec(base=base.base, axes=base.axes, seed=6, name=base.name)
        assert [s.seed for s in base.expand()] != [s.seed for s in other.expand()]

    def test_explicit_seed_axis_wins(self):
        sweep = SweepSpec.from_dict(
            {
                "base": {"dataset": "tiny"},
                "axes": {"seed": [1, 2, 3]},
            }
        )
        assert [spec.seed for spec in sweep.expand()] == [1, 2, 3]

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty list"):
            SweepSpec.from_dict({"axes": {"condenser": []}})

    def test_string_axis_value_rejected(self):
        """list("gcond") must not silently explode into per-character cells."""
        with pytest.raises(ConfigurationError, match="non-empty list"):
            SweepSpec.from_dict({"axes": {"condenser": "gcond"}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown SweepSpec keys"):
            SweepSpec.from_dict({"grid": {}})

    def test_no_axes_expands_to_single_cell(self):
        sweep = SweepSpec.from_dict({"base": {"dataset": "tiny"}, "seed": 2})
        cells = sweep.expand()
        assert len(cells) == 1
        assert cells[0].seed == derive_cell_seed(2, 0)


class TestExecutionSpec:
    def test_defaults(self):
        execution = ExecutionSpec()
        assert execution.backend == "serial"
        assert execution.workers == 1
        assert execution.timeout is None
        assert execution.on_error == "raise"

    def test_coerce_shorthands(self):
        assert ExecutionSpec.coerce(None) == ExecutionSpec()
        assert ExecutionSpec.coerce(
            {"backend": "process", "workers": 4}
        ) == ExecutionSpec(backend="process", workers=4)
        existing = ExecutionSpec(backend="process", workers=2)
        assert ExecutionSpec.coerce(existing) is existing

    def test_coerce_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown execution keys"):
            ExecutionSpec.coerce({"backend": "process", "worker": 4})

    def test_kernel_backend_key_is_rejected(self):
        """There is one kernel backend, so the execution key is gone."""
        with pytest.raises(ConfigurationError, match="kernel_backend"):
            ExecutionSpec.coerce({"kernel_backend": "numpy"})

    def test_coerce_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError):
            ExecutionSpec.coerce("process")

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            ExecutionSpec(backend="threads")

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            ExecutionSpec(on_error="ignore")

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True, "4"])
    def test_invalid_workers_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            ExecutionSpec(workers=workers)

    @pytest.mark.parametrize(
        "timeout", [0, -2.0, "fast", True, float("nan"), float("inf")]
    )
    def test_invalid_timeout_rejected(self, timeout):
        with pytest.raises(ConfigurationError, match="timeout"):
            ExecutionSpec(timeout=timeout)

    def test_integer_timeout_normalises_to_float(self):
        assert ExecutionSpec(timeout=30).timeout == 30.0

    def test_exact_dict_round_trip(self):
        execution = ExecutionSpec(
            backend="process", workers=4, timeout=120.0, on_error="record"
        )
        assert ExecutionSpec.coerce(execution.to_dict()) == execution

    def test_json_round_trip(self):
        execution = ExecutionSpec(backend="process", workers=2, on_error="record")
        recovered = ExecutionSpec.coerce(json.loads(json.dumps(execution.to_dict())))
        assert recovered == execution

    def test_sweep_round_trips_execution_block(self):
        sweep = SweepSpec.from_dict(
            {
                "base": {"dataset": "tiny"},
                "axes": {"condenser": ["gcond", "gc-sntk"]},
                "execution": {"backend": "process", "workers": 4,
                              "timeout": 60, "on_error": "record"},
            }
        )
        assert sweep.execution == ExecutionSpec(
            backend="process", workers=4, timeout=60.0, on_error="record"
        )
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep
        assert SweepSpec.from_json(sweep.to_json()) == sweep
        assert sweep.to_dict()["execution"]["backend"] == "process"

    def test_sweep_without_execution_gets_defaults(self):
        sweep = SweepSpec.from_dict({"base": {"dataset": "tiny"}, "axes": {}})
        assert sweep.execution == ExecutionSpec()
        assert "execution" in sweep.to_dict()

    def test_execution_never_changes_expansion(self):
        """Execution settings are orthogonal to what the grid computes."""
        payload = {
            "seed": 5,
            "base": {"dataset": "tiny"},
            "axes": {"condenser": ["gcond", "gc-sntk"]},
        }
        serial = SweepSpec.from_dict(payload)
        parallel = SweepSpec.from_dict(
            {**payload, "execution": {"backend": "process", "workers": 8}}
        )
        assert [spec.to_dict() for spec in serial.expand()] == [
            spec.to_dict() for spec in parallel.expand()
        ]
