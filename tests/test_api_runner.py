"""End-to-end tests for run_experiment / run_sweep on the tiny dataset."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import ExperimentSpec, RunRecord, SweepSpec, run_experiment, run_sweep
from repro.exceptions import AttackError, ConfigurationError

#: Numeric RunRecord fields compared for bit-identity.
METRIC_FIELDS = (
    "clean_cta",
    "clean_asr",
    "attack_cta",
    "attack_asr",
    "defense_cta",
    "defense_asr",
    "defense_cta_delta",
    "defense_asr_delta",
)


def tiny_attack_spec(**extra) -> ExperimentSpec:
    payload = {
        "dataset": "tiny",
        "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
        "attack": {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
        "trigger": {"overrides": {"trigger_size": 2}},
        "evaluation": {"overrides": {"epochs": 10}},
        "seed": 3,
    }
    payload.update(extra)
    return ExperimentSpec.from_dict(payload)


def smoke_sweep(seed: int = 7) -> SweepSpec:
    """The acceptance grid: gcond/gc-sntk × bgc/naive × prune on tiny."""
    return SweepSpec.from_dict(
        {
            "name": "smoke",
            "seed": seed,
            "base": {
                "dataset": "tiny",
                "condenser": {"overrides": {"epochs": 2, "ratio": 0.2}},
                "trigger": {"overrides": {"trigger_size": 2}},
                "evaluation": {"overrides": {"epochs": 10}},
            },
            "axes": {
                "condenser": ["gcond", "gc-sntk"],
                "attack": [
                    {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
                    {"name": "naive", "overrides": {"poison_fraction": 0.4}},
                ],
                "defense": ["prune"],
            },
        }
    )


def records_equal(a: RunRecord, b: RunRecord) -> bool:
    for name in METRIC_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if math.isnan(va) and math.isnan(vb):
            continue
        if va != vb:  # exact — bit identity, not approx
            return False
    return a.poisoned_nodes == b.poisoned_nodes and a.condensed_nodes == b.condensed_nodes


class TestRunExperiment:
    def test_clean_only_record(self):
        spec = tiny_attack_spec(attack=None, trigger=None)
        record = run_experiment(spec)
        assert 0.0 <= record.clean_cta <= 1.0
        assert math.isnan(record.clean_asr)
        assert math.isnan(record.attack_cta)
        assert record.condensed_nodes > 0
        assert record.spec == spec
        assert "condense" in record.timings

    def test_attack_record_has_all_metrics(self):
        record = run_experiment(tiny_attack_spec())
        for name in ("clean_cta", "clean_asr", "attack_cta", "attack_asr"):
            assert 0.0 <= getattr(record, name) <= 1.0
        assert record.poisoned_nodes > 0
        assert "attack" in record.timings

    def test_defense_deltas_reference_attacked_numbers(self):
        record = run_experiment(tiny_attack_spec(defense="prune"))
        assert record.defense_cta_delta == pytest.approx(
            record.defense_cta - record.attack_cta
        )
        assert record.defense_asr_delta == pytest.approx(
            record.defense_asr - record.attack_asr
        )

    def test_model_level_defense_wraps_victim(self):
        record = run_experiment(
            tiny_attack_spec(defense={"name": "randsmooth", "overrides": {"num_samples": 3}})
        )
        assert 0.0 <= record.defense_cta <= 1.0
        assert 0.0 <= record.defense_asr <= 1.0

    def test_detection_defense_retrains_on_sanitised_graph(self):
        record = run_experiment(tiny_attack_spec(defense="feature-outlier"))
        assert 0.0 <= record.defense_cta <= 1.0

    def test_same_seed_is_bit_identical(self):
        first = run_experiment(tiny_attack_spec())
        second = run_experiment(tiny_attack_spec())
        assert records_equal(first, second)

    def test_different_seed_changes_results(self):
        first = run_experiment(tiny_attack_spec())
        second = run_experiment(tiny_attack_spec(seed=4))
        assert not records_equal(first, second)

    def test_record_round_trips_through_dict(self):
        record = run_experiment(tiny_attack_spec())
        recovered = RunRecord.from_dict(record.to_dict())
        assert recovered.spec == record.spec
        assert records_equal(recovered, record)

    def test_unset_metrics_serialise_as_strict_json(self):
        """NaN metrics become null so results.jsonl parses under strict JSON."""
        import json

        record = run_experiment(tiny_attack_spec(attack=None, trigger=None))
        payload = record.to_dict()
        assert payload["attack_cta"] is None
        text = json.dumps(payload)
        assert "NaN" not in text
        recovered = RunRecord.from_dict(json.loads(text))
        assert math.isnan(recovered.attack_cta)
        assert records_equal(recovered, record)

    def test_naive_attacked_gc_sntk_keeps_krr_model_family(self):
        """'gc-sntk+naive-poison' graphs must evaluate with the KRR predictor,
        so attacked and clean metrics of one cell compare the same family."""
        from repro.condensation.gc_sntk import SNTKPredictor
        from repro.datasets import load_dataset
        from repro.evaluation.pipeline import EvaluationConfig, train_model_on_condensed
        from repro.registry import CONDENSERS
        from repro.utils.seed import new_rng

        graph = load_dataset("tiny", seed=0)
        condensed = CONDENSERS.build("gc-sntk", epochs=1, ratio=0.2).condense(
            graph, new_rng(0)
        )
        condensed.method = "gc-sntk+naive-poison"
        model = train_model_on_condensed(condensed, graph, EvaluationConfig(), new_rng(1))
        assert isinstance(model, SNTKPredictor)

    def test_dataset_overrides_validated_even_with_shared_graph(self):
        from repro.datasets import load_dataset

        load_dataset("tiny", seed=0)  # the memo already shares the graph
        spec = tiny_attack_spec(dataset={"name": "tiny", "overrides": {"nodes": 10}})
        with pytest.raises(ConfigurationError, match="only 'seed'"):
            run_experiment(spec)

    def test_unknown_model_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown model"):
            run_experiment(tiny_attack_spec(model="resnet"))

    def test_unknown_evaluation_architecture_rejected_eagerly(self, monkeypatch):
        """The bound architecture is checked, whichever component set it."""

        def no_load(spec):
            raise AssertionError("the dataset loaded before the architecture was checked")

        monkeypatch.setattr("repro.api.runner._load_graph", no_load)
        spec = tiny_attack_spec(evaluation={"overrides": {"architecture": "bogus"}})
        with pytest.raises(ConfigurationError, match="unknown model 'bogus'"):
            run_experiment(spec)

    def test_override_typos_rejected_before_any_work(self):
        for broken in (
            {"defense": {"name": "prune", "overrides": {"prune_frac": 0.5}}},
            {"condenser": {"name": "gcond", "overrides": {"epoch": 2}}},
            {"attack": {"name": "bgc", "overrides": {"poison_rate": 0.1}}},
        ):
            with pytest.raises(ConfigurationError):
                run_experiment(tiny_attack_spec(**broken))

    @pytest.mark.parametrize(
        "override",
        [
            {"lr": 0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"weight_decay": -1},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
            {"num_layers": 0},
            {"dropout": 1.5},
            {"hidden": 0},
        ],
        ids=lambda override: "{}={}".format(*next(iter(override.items()))),
    )
    def test_bad_evaluation_override_rejected_before_loading(self, override, monkeypatch):
        """A NaN or infinite lr, or a NaN or negative weight decay, used to
        finish ok from a NaN or over-decayed model."""

        def no_load(*args, **kwargs):
            raise AssertionError("load_dataset ran before the evaluation config was checked")

        monkeypatch.setattr("repro.api.runner.load_dataset", no_load)
        spec = tiny_attack_spec(evaluation={"overrides": {"epochs": 10, **override}})
        with pytest.raises(ConfigurationError, match=next(iter(override))):
            run_experiment(spec)

    @pytest.mark.parametrize("name", ["lr_features", "lr_structure", "surrogate_lr"])
    @pytest.mark.parametrize("value", [0.0, -0.01, float("nan"), float("inf")])
    def test_bad_condenser_rate_rejected_before_loading(self, name, value, monkeypatch):
        def no_load(*args, **kwargs):
            raise AssertionError("load_dataset ran before the condenser config was checked")

        monkeypatch.setattr("repro.api.runner.load_dataset", no_load)
        spec = tiny_attack_spec(
            condenser={"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2, name: value}}
        )
        with pytest.raises(ConfigurationError, match=name):
            run_experiment(spec)

    @pytest.mark.parametrize("attack", ["bgc", "gta", "doorping"])
    @pytest.mark.parametrize("value", [0.0, -0.01, float("nan"), float("inf")])
    def test_bad_trigger_rate_rejected_before_loading(self, attack, value, monkeypatch):
        def no_load(*args, **kwargs):
            raise AssertionError("load_dataset ran before the trigger config was checked")

        monkeypatch.setattr("repro.api.runner.load_dataset", no_load)
        spec = tiny_attack_spec(
            attack={"name": attack, "overrides": {"poison_ratio": 0.2}},
            trigger={"overrides": {"trigger_size": 2, "learning_rate": value}},
        )
        with pytest.raises(AttackError, match="learning_rate"):
            run_experiment(spec)

    def test_legs_working_state_released_before_evaluate(self, monkeypatch):
        """By ``evaluate`` both condensers' states, the attack and its
        scaffold memo are gone, and the generator carries no gradients."""
        import weakref

        import repro.api.runner as runner_module
        from repro.attack.bgc import BGC

        refs, alive_at_evaluate = {}, []
        run, clean_leg, evaluate = BGC.run, runner_module._clean_leg, runner_module._evaluate

        def spying_run(self, graph, condenser, rng, select=None):
            result = run(self, graph, condenser, rng, select=select)
            refs["attack condenser state"] = weakref.ref(condenser._state)
            refs["attack"] = weakref.ref(self)
            refs["scaffold block"] = weakref.ref(next(iter(self._scaffold_cache.values()))[1])
            return result

        def spying_clean_leg(condenser, graph, rng):
            leg = clean_leg(condenser, graph, rng)
            refs["clean condenser state"] = weakref.ref(condenser._state)
            return leg

        def checking_evaluate(record, graph, attack_leg, *models):
            alive_at_evaluate.append(sorted(n for n, ref in refs.items() if ref() is not None))
            assert all(p.grad is None for p in attack_leg.generator.parameters())
            return evaluate(record, graph, attack_leg, *models)

        monkeypatch.setattr(BGC, "run", spying_run)
        monkeypatch.setattr(runner_module, "_clean_leg", spying_clean_leg)
        monkeypatch.setattr(runner_module, "_evaluate", checking_evaluate)
        record = run_experiment(tiny_attack_spec(defense="prune"))
        assert record.ok and len(refs) == 4
        assert alive_at_evaluate == [[]]

    @pytest.mark.parametrize("attack", ["bgc", "gta", "doorping"])
    @pytest.mark.parametrize(
        "override",
        [
            {"feature_scale": float("nan")},
            {"feature_scale": float("inf")},
            {"feature_scale": -1.0},
            {"num_hops": -1},
            {"hidden": 0},
            {"hidden": -4},
        ],
        ids=lambda override: "{}={}".format(*next(iter(override.items()))),
    )
    def test_bad_trigger_override_rejected_before_loading(self, attack, override, monkeypatch):
        """A NaN or negative feature scale and a negative hop count used to
        finish ok (a NaN bound scored a clean ASR of 1.0); a zero hidden
        width raised a bare ZeroDivisionError inside the attack."""

        def no_load(*args, **kwargs):
            raise AssertionError("load_dataset ran before the trigger config was checked")

        monkeypatch.setattr("repro.api.runner.load_dataset", no_load)
        spec = tiny_attack_spec(
            attack={"name": attack, "overrides": {"poison_ratio": 0.2}},
            trigger={"overrides": {"trigger_size": 2, **override}},
        )
        with pytest.raises(AttackError, match=next(iter(override))):
            run_experiment(spec)

    @pytest.mark.parametrize("attack", ["bgc", "gta", "doorping"])
    @pytest.mark.parametrize(
        "override",
        [
            {"surrogate_steps": -1},
            {"surrogate_steps": 0},
            {"surrogate_hops": 0},
            {"surrogate_hops": -1},
            {"surrogate_lr": float("nan")},
            {"surrogate_lr": float("inf")},
            {"surrogate_lr": -0.05},
            {"selection.selector_hidden": 0},
            {"selection.selector_hidden": -3},
        ],
        ids=lambda override: "{}={}".format(*next(iter(override.items()))),
    )
    def test_bad_attack_override_rejected_before_loading(self, attack, override, monkeypatch):
        """Each of these used to finish ok from an untrained, unpropagated or
        NaN surrogate or a zero-width selector, or fail inside the attack."""

        def no_load(*args, **kwargs):
            raise AssertionError("load_dataset ran before the attack config was checked")

        monkeypatch.setattr("repro.api.runner.load_dataset", no_load)
        spec = tiny_attack_spec(
            attack={"name": attack, "overrides": {"poison_ratio": 0.2, **override}}
        )
        field = next(iter(override)).rpartition(".")[2]
        with pytest.raises(AttackError, match=field):
            run_experiment(spec)

    def test_removed_use_graph_view_override_rejected(self):
        """BGC poisons through the graph overlay only; the flag is gone."""
        spec = tiny_attack_spec(
            attack={"name": "bgc", "overrides": {"epochs": 2, "use_graph_view": False}}
        )
        with pytest.raises(ConfigurationError, match="use_graph_view"):
            run_experiment(spec)

    def test_dataset_overrides_other_than_seed_rejected(self):
        spec = tiny_attack_spec(dataset={"name": "tiny", "overrides": {"nodes": 10}})
        with pytest.raises(ConfigurationError, match="only 'seed'"):
            run_experiment(spec)

    def test_registered_non_defense_is_rejected(self):
        from repro.registry import DEFENSES

        DEFENSES.register("no-protocol-test", factory=lambda **kwargs: object())
        spec = tiny_attack_spec(attack=None, trigger=None, defense="no-protocol-test")
        try:
            with pytest.raises(ConfigurationError, match="not a repro.defenses.Defense"):
                run_experiment(spec)
        finally:
            DEFENSES.unregister("no-protocol-test")

    def test_stub_defense_runs_through_run_experiment(self):
        """A registered ``Defense`` subclass is applied by the defend stage:
        it sees the attacked leg and victim, and its predictor is scored."""
        from repro.condensation.base import CondensedGraph
        from repro.defenses import Defense
        from repro.registry import DEFENSES

        calls = []

        class StubDefense(Defense):
            def defend(self, condensed, model, graph, evaluation, rng):
                calls.append((condensed, model, graph, evaluation, rng))
                return model

        DEFENSES.register("stub-defense-test", factory=StubDefense)
        try:
            record = run_experiment(tiny_attack_spec(defense="stub-defense-test"))
        finally:
            DEFENSES.unregister("stub-defense-test")
        assert record.ok and len(calls) == 1
        condensed, _, graph, evaluation, rng = calls[0]
        assert isinstance(condensed, CondensedGraph)
        assert graph.name == "tiny" and evaluation.epochs == 10
        assert isinstance(rng, np.random.Generator)
        # The stub returns the victim itself, so the defended column is the
        # attacked one.
        assert record.defense_cta == record.attack_cta
        assert record.defense_asr == record.attack_asr
        assert record.defense_cta_delta == 0.0


class TestRunSweep:
    def test_removed_kernel_backend_execution_key_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel_backend"):
            run_sweep(smoke_sweep(), execution={"backend": "serial", "kernel_backend": "numpy"})

    def test_grid_produces_one_record_per_cell(self):
        records = run_sweep(smoke_sweep())
        assert len(records) == 4
        assert [record.cell_index for record in records] == [0, 1, 2, 3]
        seen = {
            (record.spec.condenser.name, record.spec.attack.name) for record in records
        }
        assert seen == {
            ("gcond", "bgc"),
            ("gcond", "naive"),
            ("gc-sntk", "bgc"),
            ("gc-sntk", "naive"),
        }
        for record in records:
            assert record.spec.defense.name == "prune"
            assert 0.0 <= record.attack_asr <= 1.0
            assert 0.0 <= record.defense_asr <= 1.0

    def test_shuffled_execution_is_bit_identical(self):
        """Per-cell seeds are canonical-grid-indexed, so order cannot matter."""
        grid = run_sweep(smoke_sweep())
        rng = np.random.default_rng(0)
        order = list(rng.permutation(4))
        shuffled = run_sweep(smoke_sweep(), order=[int(i) for i in order])
        for a, b in zip(grid, shuffled):
            assert records_equal(a, b), f"cell {a.cell_index} differs under shuffling"

    def test_on_record_streams_in_execution_order(self):
        seen = []
        run_sweep(smoke_sweep(), order=[3, 1, 0, 2], on_record=lambda r: seen.append(r.cell_index))
        assert seen == [3, 1, 0, 2]

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigurationError, match="permutation"):
            run_sweep(smoke_sweep(), order=[0, 0, 1, 2])

    def test_serial_sweep_tries_an_unloadable_dataset_once(self, monkeypatch):
        """Cells of a dataset that failed to load reuse the recorded failure
        instead of re-paying the generation once per cell."""
        from repro.api import runner

        calls = []
        load = runner._load_graph

        def counting(spec):
            calls.append(spec.dataset.name)
            return load(spec)

        monkeypatch.setattr(runner, "_load_graph", counting)
        sweep = {
            "base": {
                "dataset": "no-such-dataset",
                "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
            },
            "axes": {"seed": [0, 1, 2]},
        }
        records = run_sweep(sweep, execution={"on_error": "record"})
        assert [record.error["type"] for record in records] == ["DatasetError"] * 3
        assert calls == ["no-such-dataset"]

    def test_sweep_accepts_raw_payload(self):
        records = run_sweep(
            {
                "base": {
                    "dataset": "tiny",
                    "condenser": {"name": "gcond-x", "overrides": {"epochs": 2, "ratio": 0.2}},
                    "evaluation": {"overrides": {"epochs": 5}},
                },
                "axes": {},
            }
        )
        assert len(records) == 1
        assert math.isnan(records[0].attack_cta)


class TestFailureRecords:
    """Round-trips and aggregates for cells that *failed* (satellite of PR 8)."""

    def failed_record(self) -> RunRecord:
        return RunRecord.from_failure(
            tiny_attack_spec(),
            2,
            {
                "type": "RuntimeError",
                "message": "deliberate failure",
                "traceback": 'Traceback (most recent call last):\n  File "cell.py", '
                "line 1, in <module>\nRuntimeError: deliberate failure\n",
            },
            elapsed=1.25,
        )

    def test_failed_record_round_trips_through_dict(self):
        record = self.failed_record()
        recovered = RunRecord.from_dict(record.to_dict())
        assert not recovered.ok
        assert recovered.status == "failed"
        assert recovered.cell_index == 2
        assert recovered.spec == record.spec
        assert recovered.error["type"] == "RuntimeError"
        assert recovered.error["message"] == "deliberate failure"
        assert "RuntimeError: deliberate failure" in recovered.error["traceback"]
        assert recovered.timings == {"cell": 1.25}
        for name in METRIC_FIELDS:
            assert math.isnan(getattr(recovered, name))

    def test_failed_record_survives_strict_json(self):
        """A failed record's jsonl line parses and restores exactly."""
        import json

        record = self.failed_record()
        line = json.dumps(record.to_dict())
        assert "NaN" not in line
        recovered = RunRecord.from_dict(json.loads(line))
        assert recovered.error == record.error
        assert recovered.condensed_hash is None

    def test_merge_cache_stats_of_nothing_is_zeroed(self):
        """The empty merge: every counter 0, contributors 0 — not a KeyError."""
        from repro.api.runner import CACHE_COUNTER_KEYS, merge_cache_stats

        merged = merge_cache_stats([])
        assert merged["contributors"] == 0
        for key in CACHE_COUNTER_KEYS:
            assert merged[key] == 0

    def test_all_cells_failing_still_merges_cache_stats(self):
        """A sweep whose every cell fails (unknown condensers) still returns a
        SweepRecord with well-formed cache_stats — the empty-merge edge case
        exercised end to end through the process backend."""
        from repro.api.runner import CACHE_COUNTER_KEYS

        records = run_sweep(
            {
                "base": {"dataset": "tiny", "evaluation": {"overrides": {"epochs": 5}}},
                "axes": {"condenser": ["no-such-condenser", "also-missing"]},
                "execution": {"backend": "process", "workers": 2, "on_error": "record"},
            }
        )
        assert len(records) == 2
        assert len(records.failed) == 2
        for record in records:
            assert record.error["type"] == "ConfigurationError"
            assert "unknown condenser" in record.error["message"]
        for key in CACHE_COUNTER_KEYS:
            assert records.cache_stats[key] >= 0
        assert records.cache_stats["contributors"] >= 1
