"""Parallel sweep executor: bit-identity, fault isolation, dataset handoff.

The contract under test (see :mod:`repro.api.parallel`):

* the pool backend, spelled ``"process"`` in most tests here, is
  **bit-identical** to serial execution — same metrics, same derived seeds,
  same condensed-graph hashes — for any worker count and any dispatch order;
* a cell that raises, times out or kills its worker becomes a structured
  failed :class:`~repro.api.runner.RunRecord` under ``on_error="record"``
  while the other cells complete, and aborts the sweep under
  ``on_error="raise"`` without waiting for cells still in flight;
* workers read each dataset from the memo, which a forked worker inherits
  with the parent's warmed operator and a spawned one receives once, and
  ship their cache counters back, merged onto ``SweepRecord.cache_stats``.

The fault-injection tests register throwaway condensers at runtime, which
only reach worker processes under the ``fork`` start method (workers forked
from the test process inherit the registry); they are skipped on platforms
without ``fork``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ExecutionSpec,
    RunRecord,
    SweepRecord,
    SweepSpec,
    run_sweep,
)
from repro.api.parallel import prepare_handoff, preferred_start_method
from repro.datasets.base import _DATASET_CACHE
from repro.exceptions import SweepExecutionError
from repro.graph.blocked import process_scratch_dir
from repro.graph.cache import PropagationCache, set_default_cache
from repro.graph.view import PropagatedRows
from repro.registry import CONDENSERS

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


def live_children() -> set:
    """This process's live multiprocessing children."""
    return set(multiprocessing.active_children())


def smoke_sweep(seed: int = 7) -> SweepSpec:
    """The 2×2×1 acceptance grid: gcond/gc-sntk × bgc/naive × prune on tiny."""
    return SweepSpec.from_dict(
        {
            "name": "parallel-smoke",
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


def assert_records_identical(a: RunRecord, b: RunRecord) -> None:
    """Exact equality of every identity field (NaN matches NaN)."""
    assert a.spec == b.spec, f"cell {a.cell_index}: specs differ"
    assert a.spec.seed == b.spec.seed
    assert a.cell_index == b.cell_index
    for name in IDENTITY_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, float) and isinstance(vb, float):
            if math.isnan(va) and math.isnan(vb):
                continue
            assert va == vb, f"cell {a.cell_index}: {name} {va!r} != {vb!r}"
        else:
            assert va == vb, f"cell {a.cell_index}: {name} {va!r} != {vb!r}"


@pytest.fixture(scope="module")
def serial_baseline():
    """One serial run of the smoke grid, shared across the identity tests."""
    return run_sweep(smoke_sweep())


def fault_sweep(condensers, **execution) -> SweepSpec:
    """A tiny attack-free grid sweeping the given condenser names."""
    return SweepSpec.from_dict(
        {
            "name": "fault-grid",
            "seed": 3,
            "base": {
                "dataset": "tiny",
                "condenser": {"overrides": {"epochs": 2, "ratio": 0.2}},
                "evaluation": {"overrides": {"epochs": 5}},
            },
            "axes": {"condenser": list(condensers)},
            "execution": execution or None,
        }
    )


@pytest.fixture
def crashing_condenser():
    """A condenser that always raises (registered for this test only)."""

    class _Crashing:
        def condense(self, graph, rng):
            raise RuntimeError("deliberate crash-test failure")

    CONDENSERS.register("crash-test", factory=lambda **kwargs: _Crashing())
    yield "crash-test"
    CONDENSERS.unregister("crash-test")


@pytest.fixture
def sleeping_condenser():
    """A condenser that hangs far past any test timeout."""

    class _Sleeping:
        def condense(self, graph, rng):
            time.sleep(60.0)

    CONDENSERS.register("sleep-test", factory=lambda **kwargs: _Sleeping())
    yield "sleep-test"
    CONDENSERS.unregister("sleep-test")


@pytest.fixture
def dying_condenser():
    """A condenser that kills its worker process outright (no exception)."""

    class _Dying:
        def condense(self, graph, rng):
            os._exit(3)

    CONDENSERS.register("die-test", factory=lambda **kwargs: _Dying())
    yield "die-test"
    CONDENSERS.unregister("die-test")


class TestParallelBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_never_changes_results(self, workers, serial_baseline):
        records = run_sweep(
            smoke_sweep(),
            execution=ExecutionSpec(backend="process", workers=workers),
        )
        assert len(records) == len(serial_baseline)
        for a, b in zip(serial_baseline, records):
            assert_records_identical(a, b)

    def test_shuffled_dispatch_is_bit_identical(self, serial_baseline):
        records = run_sweep(
            smoke_sweep(),
            order=[3, 1, 0, 2],
            execution=ExecutionSpec(backend="process", workers=2),
        )
        assert [record.cell_index for record in records] == [0, 1, 2, 3]
        for a, b in zip(serial_baseline, records):
            assert_records_identical(a, b)

    def test_spec_execution_block_drives_backend(self, serial_baseline):
        """A sweep whose own execution block says process/2 needs no kwarg."""
        payload = smoke_sweep().to_dict()
        payload["execution"] = {"backend": "process", "workers": 2}
        records = run_sweep(SweepSpec.from_dict(payload))
        for a, b in zip(serial_baseline, records):
            assert_records_identical(a, b)

    def test_condensed_hashes_are_populated(self, serial_baseline):
        for record in serial_baseline:
            assert record.condensed_hash is not None
            assert record.attack_condensed_hash is not None

    def test_on_record_sees_every_cell(self):
        seen = []
        run_sweep(
            smoke_sweep(),
            execution=ExecutionSpec(backend="process", workers=2),
            on_record=lambda record: seen.append(record.cell_index),
        )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_no_worker_processes_leak(self):
        before = live_children()
        run_sweep(smoke_sweep(), execution=ExecutionSpec(backend="process", workers=4))
        assert not live_children() - before


class TestFaultInjection:
    @needs_fork
    def test_record_mode_isolates_a_crashing_cell(self, crashing_condenser):
        records = run_sweep(
            fault_sweep(["gcond", crashing_condenser]),
            execution=ExecutionSpec(backend="process", workers=2, on_error="record"),
        )
        assert isinstance(records, SweepRecord)
        ok, failed = records[0], records[1]
        assert ok.ok and 0.0 <= ok.clean_cta <= 1.0
        assert failed.status == "failed"
        assert failed.error["type"] == "RuntimeError"
        assert "deliberate crash-test failure" in failed.error["message"]
        assert "RuntimeError" in failed.error["traceback"]
        assert failed.cell_index == 1
        assert records.failed == [failed]
        assert math.isnan(failed.clean_cta)
        assert "cell" in failed.timings

    def test_record_mode_serial_backend(self, crashing_condenser):
        records = run_sweep(
            fault_sweep(["gcond", crashing_condenser]),
            execution=ExecutionSpec(backend="serial", on_error="record"),
        )
        assert records[0].ok
        assert records[1].error["type"] == "RuntimeError"
        assert "deliberate crash-test failure" in records[1].error["traceback"]

    @needs_fork
    def test_raise_mode_process_backend_aborts(self, crashing_condenser):
        with pytest.raises(SweepExecutionError, match="deliberate crash-test") as info:
            run_sweep(
                fault_sweep([crashing_condenser, "gcond"]),
                execution=ExecutionSpec(backend="process", workers=2, on_error="raise"),
            )
        assert info.value.record.error["type"] == "RuntimeError"

    def test_raise_mode_serial_propagates_original_exception(self, crashing_condenser):
        with pytest.raises(RuntimeError, match="deliberate crash-test failure"):
            run_sweep(
                fault_sweep([crashing_condenser, "gcond"]),
                execution=ExecutionSpec(backend="serial", on_error="raise"),
            )

    @needs_fork
    @pytest.mark.parametrize("backend", ["process", "pool"])
    def test_raise_mode_abort_terminates_busy_sibling(
        self, backend, crashing_condenser, sleeping_condenser
    ):
        """An abort stops a sibling that is mid-cell instead of waiting on it."""
        before = live_children()
        start = time.perf_counter()
        with pytest.raises(SweepExecutionError, match="deliberate crash-test"):
            run_sweep(
                fault_sweep([crashing_condenser, sleeping_condenser]),
                execution=ExecutionSpec(backend=backend, workers=2, on_error="raise"),
            )
        assert time.perf_counter() - start < 2.0
        assert not live_children() - before

    @needs_fork
    def test_timeout_terminates_and_records_the_cell(self, sleeping_condenser):
        before = live_children()
        start = time.perf_counter()
        records = run_sweep(
            fault_sweep(["gcond", sleeping_condenser]),
            execution=ExecutionSpec(
                backend="process", workers=2, timeout=1.0, on_error="record"
            ),
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, "timed-out cell was not terminated"
        assert records[0].ok
        assert records[1].status == "failed"
        assert records[1].error["type"] == "CellTimeout"
        assert "1.0" in records[1].error["message"]
        assert records[1].timings["cell"] >= 1.0
        assert not live_children() - before

    @needs_fork
    def test_timeout_under_raise_mode_aborts(self, sleeping_condenser):
        with pytest.raises(SweepExecutionError, match="CellTimeout"):
            run_sweep(
                fault_sweep([sleeping_condenser]),
                execution=ExecutionSpec(
                    backend="process", workers=1, timeout=0.5, on_error="raise"
                ),
            )

    @needs_fork
    def test_worker_death_without_result_is_recorded(self, dying_condenser):
        records = run_sweep(
            fault_sweep(["gcond", dying_condenser]),
            execution=ExecutionSpec(backend="process", workers=2, on_error="record"),
        )
        assert records[0].ok
        assert records[1].error["type"] == "WorkerCrash"
        assert "3" in records[1].error["message"]

    def test_unloadable_dataset_is_recorded_not_fatal(self):
        """A dataset that fails to load fails its cells, not the sweep."""
        sweep = SweepSpec.from_dict(
            {
                "name": "bad-dataset",
                "seed": 0,
                "base": {
                    "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
                    "evaluation": {"overrides": {"epochs": 5}},
                },
                "axes": {"dataset": ["tiny", "no-such-dataset"]},
            }
        )
        records = run_sweep(
            sweep,
            execution=ExecutionSpec(backend="process", workers=2, on_error="record"),
        )
        assert records[0].ok
        assert records[1].status == "failed"
        assert records[1].error["type"] == "DatasetError"


class TestScratchCleanup:
    @needs_fork
    def test_dead_worker_scratch_removed_despite_env_divergence(
        self, tmp_path, monkeypatch
    ):
        """Crash cleanup targets the root resolved at sweep start.

        Regression: cleanup used to re-resolve ``scratch_root()`` from the
        parent's environment at cleanup time, so a worker whose environment
        diverged (here: a cell mutating ``REPRO_BLOCKED_DIR`` mid-run) wrote
        its block files where cleanup never looked, leaking them.  The
        executor now resolves the root once at sweep start, pins it inside
        every worker, and passes it to the crash-path cleanup.
        """
        parent_root = tmp_path / "parent-scratch"
        rogue_root = tmp_path / "rogue-scratch"
        parent_root.mkdir()
        rogue_root.mkdir()
        monkeypatch.setenv("REPRO_BLOCKED_DIR", str(parent_root))

        class _ScratchLeaker:
            def condense(self, graph, rng):
                # Diverge the worker's environment *after* the sweep pinned
                # its root: scratch must still land under parent_root.
                os.environ["REPRO_BLOCKED_DIR"] = str(rogue_root)
                scratch = process_scratch_dir()
                os.makedirs(scratch, exist_ok=True)
                with open(os.path.join(scratch, "leak.bin"), "wb") as handle:
                    handle.write(b"\0" * 4096)
                os._exit(1)

        CONDENSERS.register(
            "scratch-leak-test", factory=lambda **kwargs: _ScratchLeaker()
        )
        try:
            records = run_sweep(
                fault_sweep(["gcond", "scratch-leak-test"]),
                execution=ExecutionSpec(
                    backend="process", workers=2, on_error="record"
                ),
            )
        finally:
            CONDENSERS.unregister("scratch-leak-test")
        assert records[0].ok
        assert records[1].error["type"] == "WorkerCrash"
        leaked = [
            str(path)
            for root in (parent_root, rogue_root)
            for path in root.glob("repro-blocked-*")
        ]
        assert leaked == [], f"blocked scratch leaked: {leaked}"


class TestCacheHandoff:
    def test_sweep_record_carries_merged_worker_stats(self):
        records = run_sweep(
            smoke_sweep(),
            execution=ExecutionSpec(backend="process", workers=2),
        )
        stats = records.cache_stats
        assert stats["contributors"] == 5  # 4 cells + the parent's handoff delta
        assert stats["hits"] > 0
        assert stats["incremental_updates"] > 0  # workers patched, not recomputed

    def test_serial_backend_reports_cache_delta(self):
        records = run_sweep(smoke_sweep())
        assert records.cache_stats["contributors"] == 1
        assert records.cache_stats["misses"] >= 0

    def test_prepare_handoff_leaves_the_graph_in_the_memo_with_its_operator(
        self, monkeypatch
    ):
        """The memo is the handoff: after it the parent's memo holds the
        graph, and the cache its operator and an unread row source of the
        condenser's hop count (gcond's num_hops=2) — no propagated row."""
        monkeypatch.delitem(_DATASET_CACHE, ("tiny", 0), raising=False)
        cache = PropagationCache()
        previous = set_default_cache(cache)  # no product an earlier test made
        try:
            prepare_handoff(smoke_sweep().expand())
        finally:
            set_default_cache(previous)
        entry = cache._lookup(_DATASET_CACHE[("tiny", 0)])
        assert entry.normalized is not None
        rows = entry.hops[2]
        assert isinstance(rows, PropagatedRows)
        assert rows.stored_rows == 0 and rows.materialized is None


class TestSpawnHandoff:
    def test_spawn_pool_records_match_serial(self, monkeypatch):
        """Under spawn, the only start method on macOS, a worker starts with
        an empty memo and cache: it receives each graph once from the
        parent's memo and builds its own operator, and its records are the
        serial ones (timings and cell index aside)."""
        sweep = SweepSpec.from_dict(
            json.loads((REPO_ROOT / "examples" / "sweep.json").read_text(encoding="utf-8"))
        )

        def strip(record: RunRecord) -> dict:
            payload = record.to_dict()
            del payload["timings"], payload["cell_index"]
            return payload

        serial = run_sweep(sweep, execution=ExecutionSpec(on_error="record"))
        monkeypatch.setattr(
            "repro.api.parallel.preferred_start_method", lambda: "spawn"
        )
        pooled = run_sweep(
            sweep,
            execution=ExecutionSpec(backend="pool", workers=2, on_error="record"),
        )
        assert all(record.ok for record in serial)
        assert [strip(record) for record in pooled] == [strip(record) for record in serial]
