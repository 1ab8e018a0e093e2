"""The service subsystem: worker pool, job queue, content-addressed store.

The contract under test (see :mod:`repro.service`):

* the **pool** backend is bit-identical to serial execution for any worker
  count — long-lived workers, reuse order, recycling and respawns never
  reach a result;
* the pool survives arbitrary cell behaviour: a raising cell becomes a
  structured failed record, an over-deadline cell a ``CellTimeout``, a
  dying worker a ``WorkerCrash`` — and in every case the slot is respawned
  and the remaining cells complete;
* the **store** memoises completed cells by ``ExperimentSpec.cache_key()``:
  hits are served verbatim (only ``cell_index`` rewritten), failed records
  are refused, and the append-only ``store.jsonl`` survives replay, key
  rewrites and torn final lines;
* the **service** bounds its queue (``JobQueueFull``), isolates jobs from
  each other's failures, preserves a bare spec's seed, and answers a
  resubmitted sweep from the store without touching a worker.

Like ``tests/test_api_parallel.py``, fault-injection tests register
throwaway condensers at runtime and therefore need the ``fork`` start
method to reach worker processes.
"""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    RunRecord,
    SweepSpec,
    run_experiment,
    run_sweep,
)
from repro.api.parallel import preferred_start_method
from repro.exceptions import (
    ConfigurationError,
    JobCancelled,
    JobQueueFull,
    SweepExecutionError,
)
from repro.graph.blocked import BLOCKED_THRESHOLD, blocked_threshold
from repro.registry import CONDENSERS
from repro.service import (
    CondensationService,
    JobStatus,
    ResultStore,
    WorkerPool,
)
from repro.service.server import request, wait_for_server

REPO_ROOT = Path(__file__).resolve().parent.parent

needs_fork = pytest.mark.skipif(
    preferred_start_method() != "fork",
    reason="in-test registered components reach workers only under fork",
)

#: Fields compared for bit-identity (hashes pin the full condensed arrays).
IDENTITY_FIELDS = (
    "clean_cta",
    "clean_asr",
    "attack_cta",
    "attack_asr",
    "defense_cta",
    "defense_asr",
    "defense_cta_delta",
    "defense_asr_delta",
    "poisoned_nodes",
    "condensed_nodes",
    "condensed_hash",
    "attack_condensed_hash",
    "status",
)


def assert_records_identical(a: RunRecord, b: RunRecord) -> None:
    """Exact equality of every identity field (NaN matches NaN)."""
    assert a.spec == b.spec, f"cell {a.cell_index}: specs differ"
    for name in IDENTITY_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, float) and isinstance(vb, float):
            if math.isnan(va) and math.isnan(vb):
                continue
        assert va == vb, f"cell {a.cell_index}: {name} {va!r} != {vb!r}"


def smoke_sweep(seed: int = 7) -> SweepSpec:
    """The 2×2×1 acceptance grid: gcond/gc-sntk × bgc/naive × prune on tiny."""
    return SweepSpec.from_dict(
        {
            "name": "service-smoke",
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


def fault_sweep(condensers) -> SweepSpec:
    """A tiny attack-free grid sweeping the given condenser names."""
    return SweepSpec.from_dict(
        {
            "name": "service-fault-grid",
            "seed": 3,
            "base": {
                "dataset": "tiny",
                "condenser": {"overrides": {"epochs": 2, "ratio": 0.2}},
                "evaluation": {"overrides": {"epochs": 5}},
            },
            "axes": {"condenser": list(condensers)},
        }
    )


def cheap_spec(seed: int = 0) -> ExperimentSpec:
    """The cheapest meaningful cell: attack-free gcond-x on tiny."""
    return ExperimentSpec.from_dict(
        {
            "dataset": "tiny",
            "condenser": {"name": "gcond-x", "overrides": {"epochs": 1, "ratio": 0.2}},
            "evaluation": {"overrides": {"epochs": 2}},
            "seed": seed,
        }
    )


@pytest.fixture(scope="module")
def serial_baseline():
    """One serial run of the smoke grid, shared across the identity tests."""
    return run_sweep(smoke_sweep())


@pytest.fixture(scope="module")
def ok_record():
    """One completed RunRecord to feed the store tests."""
    return run_experiment(cheap_spec(), cell_index=3)


@pytest.fixture
def crashing_condenser():
    """A condenser that always raises (registered for this test only)."""

    class _Crashing:
        def condense(self, graph, rng):
            raise RuntimeError("deliberate service crash-test failure")

    CONDENSERS.register("svc-crash-test", factory=lambda **kwargs: _Crashing())
    yield "svc-crash-test"
    CONDENSERS.unregister("svc-crash-test")


@pytest.fixture
def sleeping_condenser():
    """A condenser that hangs far past any test timeout."""

    class _Sleeping:
        def condense(self, graph, rng):
            time.sleep(60.0)

    CONDENSERS.register("svc-sleep-test", factory=lambda **kwargs: _Sleeping())
    yield "svc-sleep-test"
    CONDENSERS.unregister("svc-sleep-test")


@pytest.fixture
def napping_condenser():
    """A condenser slow enough to hold a worker while the test intervenes."""

    class _Napping:
        def condense(self, graph, rng):
            time.sleep(2.0)
            raise RuntimeError("nap over")

    CONDENSERS.register("svc-nap-test", factory=lambda **kwargs: _Napping())
    yield "svc-nap-test"
    CONDENSERS.unregister("svc-nap-test")


@pytest.fixture
def dying_condenser():
    """A condenser that kills its worker process outright (no exception)."""

    class _Dying:
        def condense(self, graph, rng):
            os._exit(3)

    CONDENSERS.register("svc-die-test", factory=lambda **kwargs: _Dying())
    yield "svc-die-test"
    CONDENSERS.unregister("svc-die-test")


# ------------------------------------------------------------------ #
# ResultStore
# ------------------------------------------------------------------ #
class TestResultStore:
    def test_miss_then_hit_round_trip(self, ok_record, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        store = ResultStore()  # in-memory: no root argument, no env root
        assert store.root is None
        assert store.get(ok_record.spec) is None
        assert store.stats()["misses"] == 1
        assert store.put(ok_record)
        recovered = store.get(ok_record.spec)
        assert_records_identical(recovered, ok_record)
        assert store.stats() == {"entries": 1, "hits": 1, "misses": 1, "puts": 1}
        assert ok_record.spec in store
        assert ok_record.spec.cache_key() in store

    def test_hit_rewrites_only_the_cell_index(self, tmp_path, ok_record):
        store = ResultStore(tmp_path / "store")
        store.put(ok_record)
        recovered = store.get(ok_record.spec, cell_index=7)
        assert recovered.cell_index == 7
        assert recovered.timings == ok_record.timings  # everything else verbatim
        assert_records_identical(recovered, ok_record)

    def test_failed_records_are_refused(self, tmp_path, ok_record):
        failed = RunRecord.from_failure(
            ok_record.spec,
            0,
            {"type": "RuntimeError", "message": "boom", "traceback": ""},
            0.1,
        )
        store = ResultStore(tmp_path / "store")
        assert store.put(failed) is False
        assert len(store) == 0
        assert store.get(failed.spec) is None  # the failure was not memoised

    def test_persistence_across_reopen(self, tmp_path, ok_record):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.put(ok_record)
        reopened = ResultStore(root)
        assert len(reopened) == 1
        recovered = reopened.get(ok_record.spec, cell_index=0)
        assert_records_identical(recovered, ok_record)
        assert reopened.stats()["puts"] == 0  # replayed, not re-put

    def test_replay_later_lines_win(self, tmp_path, ok_record):
        root = tmp_path / "store"
        root.mkdir()
        key = ok_record.spec.cache_key()
        stale = dict(ok_record.to_dict(), condensed_nodes=-1)
        fresh = ok_record.to_dict()
        with open(root / "store.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": key, "record": stale}) + "\n")
            handle.write(json.dumps({"key": key, "record": fresh}) + "\n")
        store = ResultStore(root)
        assert len(store) == 1
        assert store.get(ok_record.spec).condensed_nodes == ok_record.condensed_nodes

    def test_replay_skips_torn_final_line(self, tmp_path, ok_record):
        root = tmp_path / "store"
        root.mkdir()
        line = json.dumps(
            {"key": ok_record.spec.cache_key(), "record": ok_record.to_dict()}
        )
        with open(root / "store.jsonl", "w", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.write(line[: len(line) // 2])  # crash mid-append
        store = ResultStore(root)
        assert len(store) == 1  # the intact line survived the torn one
        assert store.get(ok_record.spec) is not None

    def test_cache_key_is_seed_sensitive(self):
        assert cheap_spec(seed=0).cache_key() != cheap_spec(seed=1).cache_key()
        assert cheap_spec(seed=0).cache_key() == cheap_spec(seed=0).cache_key()


# ------------------------------------------------------------------ #
# WorkerPool and the "pool" execution backend
# ------------------------------------------------------------------ #
class TestPoolBitIdentity:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_count_never_changes_results(self, workers, serial_baseline):
        records = run_sweep(
            smoke_sweep(),
            execution=ExecutionSpec(backend="pool", workers=workers),
        )
        assert len(records) == len(serial_baseline)
        for a, b in zip(serial_baseline, records):
            assert_records_identical(a, b)

    def test_pool_backend_reports_merged_cache_stats(self):
        records = run_sweep(
            smoke_sweep(), execution=ExecutionSpec(backend="pool", workers=2)
        )
        stats = records.cache_stats
        assert stats["contributors"] == 5  # 4 cells + the parent's handoff delta
        assert stats["hits"] > 0

    def test_no_pool_processes_leak(self):
        import multiprocessing

        run_sweep(smoke_sweep(), execution=ExecutionSpec(backend="pool", workers=4))
        leaked = [
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-pool-")
        ]
        assert not leaked


class TestWorkerPool:
    def run_cells(self, pool: WorkerPool, specs) -> list:
        """Submit every spec and wait for all callbacks."""
        records = [None] * len(specs)
        remaining = threading.Event()
        state = {"left": len(specs)}
        lock = threading.Lock()

        def make_on_done(index):
            def on_done(record):
                with lock:
                    records[index] = record
                    state["left"] -= 1
                    if state["left"] == 0:
                        remaining.set()

            return on_done

        for index, spec in enumerate(specs):
            pool.submit(spec, index, on_done=make_on_done(index))
        assert remaining.wait(timeout=120.0), "pool cells did not complete"
        return records

    def test_workers_are_reused_across_cells(self):
        specs = [cheap_spec(seed=seed) for seed in range(6)]
        with WorkerPool(2) as pool:
            records = self.run_cells(pool, specs)
            assert all(record.ok for record in records)
            # Six cells, two launches: long-lived workers, no per-cell fork.
            assert pool.counters["launched"] == 2
            assert pool.counters["completed"] == 6
            assert pool.counters["recycled"] == 0

    def test_recycling_replaces_workers_without_changing_results(self):
        specs = [cheap_spec(seed=seed) for seed in range(4)]
        with WorkerPool(1, recycle_after=1) as pool:
            records = self.run_cells(pool, specs)
            assert all(record.ok for record in records)
            assert pool.counters["recycled"] >= 3  # every cell retired its worker
            assert pool.counters["launched"] >= 4
        baseline = [run_experiment(spec, cell_index=i) for i, spec in enumerate(specs)]
        for a, b in zip(baseline, records):
            assert_records_identical(a, b)

    @needs_fork
    def test_each_task_carries_the_parents_knob_values(self):
        """A worker forked before the parent's override still applies it,
        and follows the parent again once it is restored."""

        class _KnobProbe:
            def condense(self, graph, rng):
                raise RuntimeError(f"threshold {blocked_threshold()}")

        CONDENSERS.register("svc-knob-probe-test", factory=lambda **kwargs: _KnobProbe())
        probe = ExperimentSpec.from_dict(
            dict(cheap_spec().to_dict(), condenser={"name": "svc-knob-probe-test"})
        )
        try:
            with WorkerPool(1) as pool:
                with BLOCKED_THRESHOLD.overridden(0):
                    (overridden,) = self.run_cells(pool, [probe])
                (restored,) = self.run_cells(pool, [probe])
        finally:
            CONDENSERS.unregister("svc-knob-probe-test")
        assert "threshold 0" in overridden.error["message"]
        parent = f"threshold {blocked_threshold()}"
        assert parent in restored.error["message"]

    @needs_fork
    def test_worker_reads_a_dataset_loaded_after_it_started_from_the_parents_memo(
        self, monkeypatch
    ):
        """The dispatcher sends a worker that lacks a dataset the graph in the
        parent's memo, once; the worker's cells read that graph, not one
        they generate themselves."""
        from repro.datasets import load_dataset
        from repro.datasets.base import _DATASET_CACHE

        class _GraphProbe:
            def condense(self, graph, rng):
                raise RuntimeError(f"features sum {float(graph.features.sum())!r}")

        CONDENSERS.register("svc-graph-probe-test", factory=lambda **kwargs: _GraphProbe())
        probe = ExperimentSpec.from_dict(
            dict(
                cheap_spec().to_dict(),
                dataset={"name": "tiny", "overrides": {"seed": 77}},
                condenser={"name": "svc-graph-probe-test"},
            )
        )
        monkeypatch.delitem(_DATASET_CACHE, ("tiny", 77), raising=False)
        try:
            with WorkerPool(1) as pool:
                # A graph the worker cannot generate under the cell's key,
                # put in the memo after the worker forked.
                stand_in = load_dataset("tiny", seed=1)
                monkeypatch.setitem(_DATASET_CACHE, ("tiny", 77), stand_in)
                records = self.run_cells(pool, [probe, probe])
                (slot,) = pool._slots
                assert ("tiny", 77) in slot.known_datasets
        finally:
            CONDENSERS.unregister("svc-graph-probe-test")
        expected = f"features sum {float(stand_in.features.sum())!r}"
        assert all(expected in record.error["message"] for record in records)

    def test_submit_before_start_rejected(self):
        pool = WorkerPool(1)
        with pytest.raises(RuntimeError, match="before start"):
            pool.submit(cheap_spec(), 0, on_done=lambda record: None)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(0)
        with pytest.raises(ValueError, match="recycle_after"):
            WorkerPool(1, recycle_after=0)

    @needs_fork
    def test_cancel_drops_pending_not_inflight(self, napping_condenser):
        nap_spec = ExperimentSpec.from_dict(
            dict(cheap_spec().to_dict(), condenser={"name": napping_condenser})
        )
        fired = []
        with WorkerPool(1) as pool:
            pool.submit(nap_spec, 0, on_done=lambda r: fired.append(("nap", r)), tag="nap")
            time.sleep(0.5)  # let the scheduler hand the nap to the worker
            for index in range(3):
                pool.submit(
                    cheap_spec(seed=index),
                    index + 1,
                    on_done=lambda r: fired.append(("cancelled", r)),
                    tag="batch",
                )
            dropped = pool.cancel(lambda tag: tag == "batch")
            assert dropped == 3
            assert pool.pending_count() == 0
            # The in-flight nap still reports (as a failed record — the nap
            # condenser raises after its sleep); the cancelled ones never do.
            deadline = time.monotonic() + 30.0
            while not fired and time.monotonic() < deadline:
                time.sleep(0.05)
        assert [kind for kind, _ in fired] == ["nap"]


class TestPoolFaultIsolation:
    @needs_fork
    def test_crashing_cell_is_recorded_and_isolated(self, crashing_condenser):
        records = run_sweep(
            fault_sweep(["gcond", crashing_condenser]),
            execution=ExecutionSpec(backend="pool", workers=2, on_error="record"),
        )
        assert records[0].ok
        assert records[1].status == "failed"
        assert records[1].error["type"] == "RuntimeError"
        assert "deliberate service crash-test" in records[1].error["message"]
        assert records.failed == [records[1]]

    @needs_fork
    def test_raise_mode_aborts_with_the_failed_record(self, crashing_condenser):
        with pytest.raises(SweepExecutionError, match="deliberate service") as info:
            run_sweep(
                fault_sweep([crashing_condenser, "gcond"]),
                execution=ExecutionSpec(backend="pool", workers=2, on_error="raise"),
            )
        assert info.value.record.error["type"] == "RuntimeError"

    @needs_fork
    def test_worker_death_respawns_and_records(self, dying_condenser):
        records = run_sweep(
            fault_sweep(["gcond", dying_condenser, "gcond-x"]),
            execution=ExecutionSpec(backend="pool", workers=2, on_error="record"),
        )
        assert records[0].ok and records[2].ok  # neighbours survived the crash
        assert records[1].error["type"] == "WorkerCrash"
        assert "exited with code 3" in records[1].error["message"]

    @needs_fork
    def test_timeout_terminates_and_records(self, sleeping_condenser):
        start = time.perf_counter()
        records = run_sweep(
            fault_sweep(["gcond", sleeping_condenser]),
            execution=ExecutionSpec(
                backend="pool", workers=2, timeout=1.0, on_error="record"
            ),
        )
        assert time.perf_counter() - start < 30.0, "timed-out cell was not terminated"
        assert records[0].ok
        assert records[1].error["type"] == "CellTimeout"
        assert records[1].timings["cell"] >= 1.0


# ------------------------------------------------------------------ #
# CondensationService
# ------------------------------------------------------------------ #
class TestCondensationService:
    def test_single_spec_preserves_its_seed(self, tmp_path):
        spec = cheap_spec(seed=11)
        with CondensationService(workers=1, store=ResultStore(tmp_path / "s")) as svc:
            record = svc.submit(spec).wait(timeout=120.0)[0]
        assert record.ok
        assert record.spec.seed == 11  # not re-derived by sweep expansion

    def test_resubmitted_sweep_is_served_from_the_store(
        self, tmp_path, serial_baseline
    ):
        with CondensationService(
            workers=2, store=ResultStore(tmp_path / "store")
        ) as svc:
            first = svc.submit(smoke_sweep())
            first_records = first.wait(timeout=300.0)
            second = svc.submit(smoke_sweep())
            second_records = second.wait(timeout=300.0)
            assert first.status is JobStatus.DONE
            assert first.summary()["store_hits"] == 0
            hits = second.summary()["store_hits"]
            assert hits >= math.ceil(0.95 * len(second_records))  # warm ≈ 100%
            launched = svc.stats()["pool"]["launched"]
        assert launched == 2  # both jobs shared the same two workers
        for a, b, c in zip(serial_baseline, first_records, second_records):
            assert_records_identical(a, b)
            assert_records_identical(a, c)

    def test_finished_jobs_release_their_records(self, tmp_path):
        """A terminal job leaves its summary in the service, not its records:
        the caller's handle still returns them, and once the caller drops
        its handles every RunRecord is collectable."""
        with CondensationService(workers=1, store=ResultStore(tmp_path / "s")) as svc:
            handles = [svc.submit(cheap_spec(seed=30 + index)) for index in range(3)]
            references = []
            for handle in handles:
                records = handle.wait(timeout=120.0)
                assert list(handle.stream()) == list(records)
                references.extend(weakref.ref(record) for record in records)
            job_ids = [handle.job_id for handle in handles]
            del handles, handle, records
            assert len(references) == 3
            # The pool thread may still be unwinding the frame that delivered
            # the last record; give it a moment, not forever.
            deadline = time.monotonic() + 10.0
            while any(reference() is not None for reference in references):
                assert time.monotonic() < deadline, "finished jobs kept their records"
                gc.collect()
                time.sleep(0.01)
            summaries = svc.jobs()
            assert [summary["job_id"] for summary in summaries] == job_ids
            assert all(
                summary["status"] == "done" and summary["completed"] == 1
                for summary in summaries
            )
            for job_id in job_ids:
                assert svc.get(job_id).summary()["status"] == "done"
                assert svc.get(job_id).cancel() is False
            assert svc.stats()["jobs"] == 3

    def test_store_outlives_the_service(self, tmp_path):
        root = tmp_path / "store"
        sweep = fault_sweep(["gcond", "gcond-x"])
        with CondensationService(workers=1, store=ResultStore(root)) as svc:
            svc.submit(sweep).wait(timeout=300.0)
        # A fresh service on the same root answers everything from disk.
        with CondensationService(workers=1, store=ResultStore(root)) as svc:
            job = svc.submit(sweep)
            records = job.wait(timeout=300.0)
            assert job.summary()["store_hits"] == 2
            assert svc.stats()["pool"]["dispatched"] == 0  # no worker touched
        assert all(record.ok for record in records)

    def test_stream_yields_every_record(self, tmp_path):
        with CondensationService(workers=2, store=ResultStore(tmp_path / "s")) as svc:
            handle = svc.submit(fault_sweep(["gcond", "gcond-x"]))
            streamed = list(handle.stream(timeout=120.0))
        assert sorted(record.cell_index for record in streamed) == [0, 1]
        assert handle.status is JobStatus.DONE

    def test_queue_backpressure_raises_job_queue_full(self, tmp_path, monkeypatch):
        gate = threading.Event()
        original = CondensationService._launch

        def gated_launch(self, job):
            gate.wait(timeout=60.0)
            original(self, job)

        monkeypatch.setattr(CondensationService, "_launch", gated_launch)
        with CondensationService(
            workers=1, store=ResultStore(tmp_path / "s"), max_pending=1
        ) as svc:
            first = svc.submit(cheap_spec(seed=0))
            deadline = time.monotonic() + 10.0
            while svc._queue.qsize() > 0 and time.monotonic() < deadline:
                time.sleep(0.01)  # scheduler picked job 1 up and is gated
            second = svc.submit(cheap_spec(seed=1))  # fills the bounded queue
            with pytest.raises(JobQueueFull, match="full"):
                svc.submit(cheap_spec(seed=2))
            gate.set()
            assert first.wait(timeout=120.0)[0].ok
            assert second.wait(timeout=120.0)[0].ok

    def test_cancelled_queued_job_never_runs(self, tmp_path, monkeypatch):
        gate = threading.Event()
        original = CondensationService._launch

        def gated_launch(self, job):
            gate.wait(timeout=60.0)
            original(self, job)

        monkeypatch.setattr(CondensationService, "_launch", gated_launch)
        with CondensationService(workers=1, store=ResultStore(tmp_path / "s")) as svc:
            blocker = svc.submit(cheap_spec(seed=0))
            victim = svc.submit(cheap_spec(seed=1))
            assert victim.cancel() is True
            assert victim.status is JobStatus.CANCELLED
            gate.set()
            with pytest.raises(JobCancelled):
                victim.wait(timeout=30.0)
            assert blocker.wait(timeout=120.0)[0].ok
            assert victim.cancel() is False  # cancelling a terminal job: no-op
        # The cancelled job's cell was never computed, so it is not stored.
        assert svc.store.stats()["puts"] == 1

    @needs_fork
    def test_worker_crash_mid_job_completes_with_structured_failures(
        self, tmp_path, dying_condenser
    ):
        root = tmp_path / "store"
        sweep = fault_sweep(["gcond", dying_condenser])
        with CondensationService(workers=2, store=ResultStore(root)) as svc:
            job = svc.submit(sweep)
            records = job.wait(timeout=300.0)
            assert job.status is JobStatus.DONE  # the job completed regardless
            assert records[0].ok
            assert records[1].error["type"] == "WorkerCrash"
            # Resubmission: the ok cell comes from the store, the crashed
            # cell is retried (failures are never memoised).
            retry = svc.submit(sweep)
            retry_records = retry.wait(timeout=300.0)
            assert retry.summary()["store_hits"] == 1
            assert retry_records[0].ok
            assert retry_records[1].error["type"] == "WorkerCrash"

    def test_unexpandable_sweep_fails_the_job_alone(self, tmp_path):
        bad = SweepSpec.from_dict(
            {
                "base": {"dataset": "tiny"},
                "axes": {"num_hops": [1, 2]},  # not a sweepable axis
            }
        )
        with CondensationService(workers=1, store=ResultStore(tmp_path / "s")) as svc:
            job = svc.submit(bad)
            with pytest.raises(ConfigurationError, match="unknown sweep axis"):
                job.wait(timeout=60.0)
            assert job.status is JobStatus.FAILED
            # The service is still healthy: the next job runs normally.
            assert svc.submit(cheap_spec()).wait(timeout=120.0)[0].ok

    def test_submit_before_start_rejected(self, tmp_path):
        svc = CondensationService(workers=1, store=ResultStore(tmp_path / "s"))
        with pytest.raises(RuntimeError, match="before start"):
            svc.submit(cheap_spec())

    def test_submit_rejects_foreign_payloads(self, tmp_path):
        with CondensationService(workers=1, store=ResultStore(tmp_path / "s")) as svc:
            with pytest.raises(ConfigurationError, match="expects an ExperimentSpec"):
                svc.submit({"not": "a spec"})

    def test_stats_shape(self, tmp_path):
        with CondensationService(workers=1, store=ResultStore(tmp_path / "s")) as svc:
            svc.submit(cheap_spec()).wait(timeout=120.0)
            stats = svc.stats()
        assert set(stats) == {"store", "pool", "jobs", "queued"}
        assert stats["jobs"] == 1
        assert stats["pool"]["completed"] == 1
        assert stats["store"]["puts"] == 1


# ------------------------------------------------------------------ #
# The socket front end and its CLI verbs
# ------------------------------------------------------------------ #
def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
        if part
    )
    env.pop("REPRO_RESULT_STORE", None)  # the test passes --store explicitly
    return env


def _load_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [
            {k: v for k, v in json.loads(line).items() if k != "timings"}
            for line in handle
        ]


class TestServiceCli:
    def test_serve_submit_jobs_round_trip(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        env = _cli_env()
        spec_path = str(REPO_ROOT / "examples" / "sweep.json")
        serve = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--socket",
                socket_path,
                "--workers",
                "2",
                "--store",
                str(tmp_path / "store"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            wait_for_server(socket_path, timeout=60.0)
            outputs = []
            for name in ("first.jsonl", "second.jsonl"):
                result = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "repro.cli",
                        "submit",
                        "--socket",
                        socket_path,
                        "--spec",
                        spec_path,
                        "--out",
                        str(tmp_path / name),
                    ],
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=300.0,
                )
                assert result.returncode == 0, result.stdout + result.stderr
                outputs.append(result.stdout)
            assert "0 served from store" in outputs[0]
            assert "4 served from store" in outputs[1]  # warm run: pure store

            jobs = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "jobs",
                    "--socket",
                    socket_path,
                    "--json",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=60.0,
            )
            assert jobs.returncode == 0, jobs.stdout + jobs.stderr
            summaries = json.loads(jobs.stdout)
            assert [job["status"] for job in summaries] == ["done", "done"]
            assert summaries[1]["store_hits"] == 4

            assert request(socket_path, {"op": "shutdown"})["stopping"]
            assert serve.wait(timeout=60.0) == 0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()
        first, second = (
            _load_jsonl(tmp_path / "first.jsonl"),
            _load_jsonl(tmp_path / "second.jsonl"),
        )
        assert len(first) == len(second) == 4
        assert first == second  # store hits are the original records, verbatim

    def test_submit_without_server_exits_2(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "submit",
                "--socket",
                str(tmp_path / "nope.sock"),
                "--spec",
                str(REPO_ROOT / "examples" / "sweep.json"),
            ],
            env=_cli_env(),
            capture_output=True,
            text=True,
            timeout=60.0,
        )
        assert result.returncode == 2
        assert "repro serve" in result.stderr
