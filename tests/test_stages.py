"""Cell stages and the stage memo (:mod:`repro.api.stages`).

The contract under test:

* records are byte-identical (``to_dict()`` minus timings) with the memo
  on and off, under the serial backend and the pool;
* the memo serves exactly the stages several cells share, and
  ``SweepRecord.memo_stats`` counts its hits and misses;
* memoised values are read-only, the memo is bounded, and a direct
  ``run_experiment`` call uses none;
* the evaluate stage builds the triggered test graph once per cell;
* the pool prefers to give a worker the ``(dataset, seed)`` groups it
  already ran, and a released scope drops the worker's memo.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np
import pytest

import repro.api.runner as runner
import repro.api.stages as stages
from repro.api import ExperimentSpec, SweepSpec, run_experiment, run_sweep
from repro.api.stages import StageMemo, freeze
from repro.attack.naive import NaivePoison
from repro.service.pool import WorkerPool, _Task, _WorkerSlot

#: The examples/sweep.json grid (gcond/gc-sntk x bgc/naive x prune) over
#: two explicit seeds: each seed's bgc cells share a selection, and each
#: (condenser, seed) pair's two cells share a clean leg and its fit.
GRID = {
    "name": "stage-grid",
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
        "seed": [11, 12],
    },
}

BGC_CELL = {
    "dataset": "tiny",
    "model": "gcn",
    "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
    "attack": {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
    "defense": "prune",
    "trigger": {"overrides": {"trigger_size": 2}},
    "evaluation": {"overrides": {"epochs": 10}},
    "seed": 3,
}


def _comparable(records):
    payloads = [record.to_dict() for record in records]
    for payload in payloads:
        payload.pop("timings")
    return payloads


def _run_grid(backend: str):
    execution = {"backend": backend, "workers": 2 if backend == "pool" else 1}
    return run_sweep(SweepSpec.from_dict(GRID), execution=execution)


class TestMemoIsInvisibleInRecords:
    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_records_identical_with_memo_on_and_off(self, backend, monkeypatch):
        with_memo = _run_grid(backend)
        assert all(record.ok for record in with_memo)
        assert with_memo.memo_stats["select_hits"] >= 1
        monkeypatch.setattr(stages, "MEMO_MAX_ENTRIES", 0)
        without_memo = _run_grid(backend)
        assert without_memo.memo_stats["select_hits"] == 0
        assert sum(without_memo.memo_stats[key] for key in stages.MEMO_COUNTER_KEYS
                   if key.endswith("_hits")) == 0
        assert _comparable(with_memo) == _comparable(without_memo)

    def test_pool_matches_serial_and_direct_runs(self):
        serial = _run_grid("serial")
        assert _comparable(_run_grid("pool")) == _comparable(serial)
        direct = [run_experiment(record.spec, cell_index=record.cell_index) for record in serial]
        assert _comparable(direct) == _comparable(serial)


class TestMemoStats:
    def test_serial_grid_hits(self):
        stats = _run_grid("serial").memo_stats
        assert stats["select_hits"] == 2 and stats["select_misses"] == 2
        assert stats["clean_leg_hits"] == 4 and stats["clean_leg_misses"] == 4
        # The clean fits ride on the shared clean legs; no two cells share
        # an attack leg or a defense.
        assert stats["fit_hits"] == 4
        assert stats["attack_leg_hits"] == 0 and stats["defend_hits"] == 0
        assert stats["contributors"] == 1

    def test_pool_stats_merge_one_delta_per_cell(self):
        stats = _run_grid("pool").memo_stats
        assert stats["contributors"] == 8
        assert stats["select_hits"] + stats["select_misses"] == 4
        assert stats["clean_leg_hits"] + stats["clean_leg_misses"] == 8

    def test_direct_run_uses_no_memo(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment consulted a memo")

        monkeypatch.setattr(StageMemo, "get_or_compute", refuse)
        assert run_experiment(ExperimentSpec.from_dict(BGC_CELL)).ok

    def test_each_sweep_gets_a_fresh_memo(self):
        sweep = SweepSpec.from_dict({**GRID, "axes": {**GRID["axes"], "seed": [11]}})
        first, second = run_sweep(sweep), run_sweep(sweep)
        assert first.memo_stats == second.memo_stats
        assert second.memo_stats["attack_leg_hits"] == 0


class TestFrozenValues:
    def _memo_after_cell(self):
        memo = StageMemo()
        run_experiment(ExperimentSpec.from_dict(BGC_CELL), memo=memo)
        return {stage: value for (stage, _), (value, _) in memo._entries.items()}

    def test_writing_to_a_memoised_value_raises(self):
        values = self._memo_after_cell()
        assert set(values) == {"select", "attack_leg", "clean_leg", "fit", "defend"}
        with pytest.raises(ValueError, match="read-only"):
            values["select"].nodes[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            values["attack_leg"].condensed.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            values["clean_leg"].condensed.adjacency[0, 0] = 1.0
        parameter = values["attack_leg"].generator.parameters()[0]
        with pytest.raises(ValueError, match="read-only"):
            parameter.data[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            values["fit"].parameters()[0].data += 1.0

    def test_freeze_leaves_shared_graphs_alone(self, small_graph):
        value = {"graph": small_graph, "array": np.zeros(3), "nested": [np.ones(2)]}
        assert freeze(value) == 3 * 8 + 2 * 8
        assert small_graph.features.flags.writeable
        assert not value["array"].flags.writeable
        assert not value["nested"][0].flags.writeable
        assert freeze(value) == 0  # already frozen arrays count nothing


class TestBounds:
    def test_entry_cap_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(stages, "MEMO_MAX_ENTRIES", 2)
        memo = StageMemo()
        for key in ("a", "b"):
            memo.get_or_compute("fit", key, lambda: np.zeros(1))
        memo.get_or_compute("fit", "a", lambda: pytest.fail("a was held"))
        memo.get_or_compute("fit", "c", lambda: np.zeros(1))
        assert len(memo._entries) == 2
        calls = []
        memo.get_or_compute("fit", "b", lambda: calls.append("b") or np.zeros(1))
        assert calls == ["b"]  # b was the least recently used, so evicted
        assert memo.counters["fit_hits"] == 1 and memo.counters["fit_misses"] == 4

    def test_byte_cap(self, monkeypatch):
        monkeypatch.setattr(stages, "MEMO_MAX_BYTES", 100)
        memo = StageMemo()
        memo.get_or_compute("fit", "small", lambda: np.zeros(10))  # 80 bytes
        memo.get_or_compute("fit", "huge", lambda: np.zeros(20))  # over the cap
        assert len(memo._entries) == 1 and memo._bytes == 80
        memo.get_or_compute("fit", "next", lambda: np.zeros(5))  # 40: evicts small
        assert len(memo._entries) == 1 and memo._bytes == 40

    def test_zero_entries_disables_and_does_not_freeze(self, monkeypatch):
        monkeypatch.setattr(stages, "MEMO_MAX_ENTRIES", 0)
        memo = StageMemo()
        value = memo.get_or_compute("fit", "a", lambda: np.zeros(2))
        assert value.flags.writeable and not memo._entries
        memo.get_or_compute("fit", "a", lambda: np.zeros(2))
        assert memo.counters["fit_misses"] == 2


class TestEvaluateOnce:
    def test_shared_triggered_graph_matches_per_model_evaluation(self):
        """The reference: one ``evaluate_backdoor`` (own triggered graph) per model."""
        from repro.evaluation.pipeline import evaluate_backdoor

        spec = ExperimentSpec.from_dict(BGC_CELL)
        memo = StageMemo()
        record = run_experiment(spec, memo=memo)
        values = {key: value for key, (value, _) in memo._entries.items()}
        keys = runner._stage_keys(spec, runner._resolve_attack(spec))
        leg = values[("attack_leg", keys["attack_leg"])]
        graph = runner._load_graph(spec)
        for field, fit_key in (("attack_asr", "victim_fit"), ("clean_asr", "clean_fit")):
            model = values[("fit", keys[fit_key])]
            reference = evaluate_backdoor(model, graph, leg.generator, leg.target_class)
            assert getattr(record, field) == reference
        defended = values[("defend", keys["defend"])]
        assert record.defense_asr == evaluate_backdoor(
            defended, graph, leg.generator, leg.target_class
        )

    def test_directed_cell_scores_only_source_class_test_nodes(self):
        """The Table VI protocol: a directed attack's every ASR is taken on
        the source-class test nodes, the only ones its trigger targets."""
        from repro.evaluation.pipeline import evaluate_backdoor

        attack = {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2,
                                               "directed": True, "source_class": 1}}
        # Seed 1: the victim's ASR over every test node (0.54) is not its
        # ASR over the source class (1.0), so the test tells them apart.
        spec = ExperimentSpec.from_dict({**BGC_CELL, "attack": attack, "seed": 1})
        memo = StageMemo()
        record = run_experiment(spec, memo=memo)
        values = {key: value for key, (value, _) in memo._entries.items()}
        keys = runner._stage_keys(spec, runner._resolve_attack(spec))
        leg = values[("attack_leg", keys["attack_leg"])]
        graph = runner._load_graph(spec)
        test = graph.split.test
        source_test = test[graph.labels[test] == 1]
        np.testing.assert_array_equal(leg.test_nodes, source_test)
        victim = values[("fit", keys["victim_fit"])]
        assert record.attack_asr != evaluate_backdoor(victim, graph, leg.generator, leg.target_class)
        for field, key in (("attack_asr", ("fit", keys["victim_fit"])),
                           ("clean_asr", ("fit", keys["clean_fit"])),
                           ("defense_asr", ("defend", keys["defend"]))):
            reference = evaluate_backdoor(
                values[key], graph, leg.generator, leg.target_class, test_index=source_test
            )
            assert getattr(record, field) == reference

    def test_bgc_cell_builds_one_triggered_graph(self, monkeypatch):
        built = []
        original = runner.triggered_test_graph

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "triggered_test_graph", counting)
        record = run_experiment(ExperimentSpec.from_dict(BGC_CELL))
        assert record.ok and not np.isnan(record.defense_asr)
        assert len(built) == 1

    def test_naive_cell_builds_one_triggered_graph(self, monkeypatch):
        built = []
        original = NaivePoison.attach_universal_trigger

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(NaivePoison, "attach_universal_trigger", staticmethod(counting))
        spec = ExperimentSpec.from_dict({**BGC_CELL, "attack": "naive"})
        record = run_experiment(spec)
        assert record.ok and not np.isnan(record.defense_asr)
        assert len(built) == 1


def _task(task_id, tag, seed):
    return _Task(
        task_id=task_id,
        spec=None,
        cell_index=task_id,
        on_done=None,
        timeout=None,
        tag=tag,
        group=(tag, ("tiny", 0), seed),
    )


class TestPoolAffinity:
    def _pool(self, pending, *slot_groups):
        pool = WorkerPool(len(slot_groups))
        pool._slots = [
            _WorkerSlot(process=None, connection=None, scope=None, groups=set(groups))
            for groups in slot_groups
        ]
        pool._pending = deque(pending)
        return pool

    def test_prefers_a_group_the_worker_already_ran(self):
        pending = [_task(0, None, 1), _task(1, None, 2), _task(2, None, 1)]
        pool = self._pool(pending, {(None, ("tiny", 0), 1)}, set())
        assert pool._next_task_locked(pool._slots[0]).task_id == 0
        assert pool._next_task_locked(pool._slots[0]).task_id == 2

    def test_then_a_group_no_other_worker_holds(self):
        pending = [_task(0, None, 1), _task(1, None, 1), _task(2, None, 2)]
        pool = self._pool(pending, set(), {(None, ("tiny", 0), 1)})
        assert pool._next_task_locked(pool._slots[0]).task_id == 2

    def test_else_the_queue_head(self):
        pending = [_task(0, None, 1), _task(1, None, 2)]
        held = {(None, ("tiny", 0), 1), (None, ("tiny", 0), 2)}
        pool = self._pool(pending, set(), held)
        assert pool._next_task_locked(pool._slots[0]).task_id == 0

    def test_groups_are_per_scope(self):
        pending = [_task(0, "job-b", 1), _task(1, "job-a", 1)]
        pool = self._pool(pending, {("job-a", ("tiny", 0), 1)}, set())
        assert pool._next_task_locked(pool._slots[0]).task_id == 1

    def test_release_drops_the_workers_memo(self):
        spec = ExperimentSpec.from_dict(BGC_CELL)
        sibling = ExperimentSpec.from_dict(
            {**BGC_CELL, "condenser": {"name": "gc-sntk", "overrides": {"epochs": 2, "ratio": 0.2}}}
        )
        done = []
        with WorkerPool(1) as pool:
            for index, cell in enumerate((spec, sibling)):
                pool.submit(cell, index, on_done=done.append, tag="job")
                while len(done) <= index:
                    time.sleep(0.01)
            assert pool._slots[0].scope == "job"
            pool.release("job")
            assert pool._slots[0].scope != "job" and not pool._slots[0].groups
            pool.submit(sibling, 2, on_done=done.append, tag="job")
            while len(done) < 3:
                time.sleep(0.01)
            stats = pool.merged_worker_stats()
        assert all(record.ok for record in done)
        # The sibling shares the first cell's selection, served from the
        # memo; after release the same cell selects again.
        assert [cell["select_hits"] for cell in stats] == [0, 1, 0]
        assert [cell["select_misses"] for cell in stats] == [1, 0, 1]
