"""The benchmark's workloads: inputs, closed loops and correctness checks.

Every workload is a closed loop driven by one client in this process: the
next cell, job or sweep starts only after the previous one returned.  A
loop keeps starting work while the median duration so far still fits in
the measuring window, so a run lasts about ``--seconds`` whatever the
host speed.  Inputs are a pure function of the workload seed.

Correctness is checked inside every run, and each mismatch counts as one
failed cell:

* every record has ``status == "ok"``;
* a same-seed cell (or sweep) repeated within the run matches its first
  answer — fingerprints and metrics, everything but timings;
* for ``service-mixed`` and ``sweep-process`` one worker-computed cell is
  recomputed serially with ``run_experiment`` and must match bit for bit;
* every store hit equals the record that first answered its spec.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import manifest
import numpy as np

from repro.api import ExperimentSpec, RunRecord, SweepSpec, run_experiment, run_sweep
from repro.api.parallel import prepare_handoff
from repro.datasets.base import clear_dataset_cache
from repro.graph.blocked import set_blocked_threshold
from repro.graph.cache import get_default_cache
from repro.service import CondensationService, ResultStore

#: The ``examples/spec.json`` cell (gcond + bgc + prune + gcn), embedded so
#: that editing the example never silently changes the workload.
CORA_CELL: Dict[str, Any] = {
    "dataset": {"name": "cora", "overrides": {"seed": 0}},
    "model": "gcn",
    "condenser": {"name": "gcond", "overrides": {"epochs": 20, "ratio": 0.026}},
    "attack": {"name": "bgc", "overrides": {"epochs": 20, "poison_ratio": 0.1}},
    "defense": "prune",
    "trigger": {"name": "mlp", "overrides": {"trigger_size": 4}},
    "evaluation": {"overrides": {"epochs": 150}},
}

#: A citeseer cell (gcond + bgc + gcn, no defense; the selector keeps a fifth
#: of its default epochs) whose hop chains run through the blocked engine.
#: A flickr cell (100k nodes) crosses the default threshold by itself, but
#: costs 13-20 s plus 7 s of set-up on a 2-core host: one sample per run,
#: and the spread of that sample across runs passed the 25 % bound.
CITESEER_CELL: Dict[str, Any] = {
    "dataset": {"name": "citeseer", "overrides": {"seed": 0}},
    "model": "gcn",
    "condenser": {"name": "gcond", "overrides": {"epochs": 10, "ratio": 0.036}},
    "attack": {
        "name": "bgc",
        "overrides": {"epochs": 10, "poison_ratio": 0.1, "selection.selector_epochs": 20},
    },
    "trigger": {"name": "mlp", "overrides": {"trigger_size": 4}},
    "evaluation": {"overrides": {"epochs": 50}},
}
#: How ``citeseer-blocked`` cells run: as one-cell sweeps whose execution
#: lowers the blocked threshold below citeseer's 3327 x 1200 = 4.0M-element
#: hop chains (and above the ~0.14M of a condensed graph), so the
#: propagation cache, the blocked engine and spmm carry the full graph's
#: propagations, as the default threshold makes them do on flickr.
BLOCKED_EXECUTION: Dict[str, Any] = {"blocked_threshold": 2**20}

#: The ~0.2 s cell the service and sweep workloads are made of.
TINY_CELL: Dict[str, Any] = {
    "dataset": "tiny",
    "model": "gcn",
    "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
    "attack": {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
    "defense": "prune",
    "trigger": {"overrides": {"trigger_size": 2}},
    "evaluation": {"overrides": {"epochs": 10}},
}

#: The ``examples/sweep.json`` grid shape on the fork-per-cell executor.
SWEEP_GRID: Dict[str, Any] = {
    "name": "perfbench-sweep",
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
    "execution": {
        "backend": "process",
        "workers": manifest.WORKERS,
        "timeout": None,
        "on_error": "record",
    },
}

#: Service jobs: this many new seeds plus as many already-answered ones.
SERVICE_NEW_PER_JOB = 8
#: Cell seeds per sweep: the grid's four cells run once per seed.
SEEDS_PER_SWEEP = 2
SERVICE_WORKERS = manifest.WORKERS
#: Upper bound on one job or sweep; a stuck pool fails the run, not the host.
JOB_TIMEOUT_S = 150.0


def derived_seeds(seed: int, stream: int, count: int) -> List[int]:
    """``count`` cell seeds for one workload seed (distinct per ``stream``)."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(value) for value in state]


def comparable(record: RunRecord) -> Dict[str, Any]:
    """A record's JSON form minus what legitimately differs between runs."""
    payload = record.to_dict()
    payload.pop("timings")
    payload.pop("cell_index")
    return payload


@dataclass
class Measurement:
    """What one workload run measured, before it is turned into metrics.

    ``job_times`` are client-observed latencies (a job is one cell, one
    service submission or one sweep); ``cell_times`` are per-job mean cell
    compute times.
    """

    setup_times: List[float] = field(default_factory=list)
    cell_times: List[float] = field(default_factory=list)
    job_times: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    window_start: float = 0.0
    #: Every record answered inside the window, store hits and repeats included.
    records: List[RunRecord] = field(default_factory=list)
    #: Records whose cells were computed in this run (not served by a store).
    computed: List[RunRecord] = field(default_factory=list)
    failed: int = 0
    checks: Dict[str, Any] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    setup_reps: int = 0


def _no_mark(point: str) -> None:
    """Default window hook; the runner passes one that snapshots counters."""


def _keep_going(started: float, window: float, durations: List[float], minimum: int) -> bool:
    """Closed-loop admission: start more work only if its median fits."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= window


def _mean_cell_s(records: List[RunRecord]) -> float:
    """Mean compute time of a job's cells, from the phase timings they carry.

    Pooled cells run in workers, so their records' timings are the only
    cell-level clock the parent has.  A per-job mean rather than a median
    over cells: the sweep grid mixes cheap naive cells and dear bgc cells
    half and half, and a median of such a mixture flips between the two.
    """
    return sum(sum(record.timings.values()) for record in records) / len(records)


def _reset_dataset(name: str) -> None:
    """Forget a generated dataset and every cached propagation of it."""
    clear_dataset_cache(name)
    get_default_cache().invalidate()


def _not_ok(records) -> int:
    return sum(1 for record in records if not record.ok)


def _check_serial(out: Measurement) -> None:
    """Recompute the first worker-computed cell serially; count a mismatch."""
    record = out.computed[0]
    again = run_experiment(record.spec, cell_index=record.cell_index)
    matches = comparable(again) == comparable(record)
    out.checks["serial_recompute_matches"] = matches
    out.failed += 0 if matches else 1


@contextmanager
def _job_span(tracer, request: str, name: str):
    """A root span tagged ``request`` around one job; nothing when untraced."""
    if tracer is None:
        yield
        return
    with tracer.request(request), tracer.span(name):
        yield


# ---------------------------------------------------------------------- #
# cora-cell and citeseer-blocked: serial cells
# ---------------------------------------------------------------------- #
def run_cells(
    cell: Dict[str, Any],
    seed: int,
    window: float,
    tracer=None,
    mark=_no_mark,
    setup_reps: int = 3,
    execution: Optional[Dict[str, Any]] = None,
) -> Measurement:
    """Serial cells over seeds derived from ``seed``; the second cell
    repeats the first seed, so the run checks same-seed bit-identity.

    Without ``execution`` a cell is one ``run_experiment`` call; with it, a
    one-cell ``run_sweep`` under that execution, started cold: the dataset
    and its cached propagations are dropped before each cell (untimed), so
    every cell loads the graph and pays its base propagation, as a fresh
    ``repro`` invocation does.  Set-up runs under the same blocked
    threshold.
    """
    out = Measurement(setup_reps=setup_reps)
    dataset = cell["dataset"]["name"] if isinstance(cell["dataset"], dict) else cell["dataset"]
    make = lambda cell_seed: ExperimentSpec.from_dict({**cell, "seed": cell_seed})  # noqa: E731
    threshold = (execution or {}).get("blocked_threshold")
    previous = set_blocked_threshold(threshold) if threshold is not None else None
    try:
        for _ in range(setup_reps):
            _reset_dataset(dataset)
            start = time.perf_counter()
            prepare_handoff([make(0)])
            out.setup_times.append(time.perf_counter() - start)
    finally:
        if threshold is not None:
            set_blocked_threshold(previous)

    seeds = derived_seeds(seed, 0, 64)
    plan = [seeds[0]] + seeds
    records = out.records
    mark("start")
    out.window_start = time.perf_counter()
    for position, cell_seed in enumerate(plan):
        if not _keep_going(out.window_start, window, out.job_times, minimum=2):
            break
        spec = make(cell_seed)
        if execution is not None:
            _reset_dataset(dataset)
        start = time.perf_counter()
        with _job_span(tracer, f"cell-{position}", "api.runner.run_experiment"):
            record = _run_cell(spec, position, execution)
        out.job_times.append(time.perf_counter() - start)
        records.append(record)
    out.wall_s = time.perf_counter() - out.window_start
    mark("end")
    out.computed = list(records)
    out.cell_times = list(out.job_times)
    phases = sum(sum(record.timings.values()) for record in records)
    out.layers["api.runner.phase_share"] = phases / sum(out.job_times)

    out.failed = out.checks["not_ok"] = _not_ok(records)
    repeat_ok = comparable(records[0]) == comparable(records[1])
    out.checks["same_seed_repeat"] = repeat_ok
    out.failed += 0 if repeat_ok else 1
    return out


def _run_cell(
    spec: ExperimentSpec, position: int, execution: Optional[Dict[str, Any]] = None
) -> RunRecord:
    try:
        if execution is None:
            return run_experiment(spec, cell_index=position)
        sweep = SweepSpec(base=spec, axes={"seed": [spec.seed]}, execution=execution)
        return list(run_sweep(sweep))[0]
    except Exception as error:  # noqa: BLE001 — a failing cell is counted, not fatal
        from repro.api.runner import error_info

        return RunRecord.from_failure(spec, position, error_info(error))


# ---------------------------------------------------------------------- #
# service-mixed: one client over CondensationService + on-disk ResultStore
# ---------------------------------------------------------------------- #
def _job(seeds: List[int], name: str) -> SweepSpec:
    return SweepSpec(base=ExperimentSpec.from_dict(TINY_CELL), axes={"seed": seeds}, name=name)


def run_service(
    seed: int,
    window: float,
    scratch: str,
    tracer=None,
    mark=_no_mark,
    setup_reps: int = 3,
) -> Measurement:
    """Jobs of half new seeds (pool compute + store append) and half seeds
    answered earlier in the run (store hits) against a fresh store root."""
    out = Measurement(setup_reps=setup_reps)
    root = os.path.join(scratch, f"store-{seed}")
    fresh = iter(derived_seeds(seed, 1, 4096))
    reference: Dict[str, Dict[str, Any]] = {}
    answered: List[int] = []
    # Enough warm-up seeds that the first measured job finds its store hits.
    warmup_cells = max(SERVICE_WORKERS, -(-SERVICE_NEW_PER_JOB // setup_reps))
    mismatches = not_ok = 0
    service: Optional[CondensationService] = None
    try:
        for rep in range(setup_reps):
            if service is not None:
                service.shutdown()
            _reset_dataset("tiny")
            warm = [next(fresh) for _ in range(warmup_cells)]
            start = time.perf_counter()
            service = CondensationService(SERVICE_WORKERS, store=ResultStore(root)).start()
            records = service.submit(_job(warm, f"warmup-{rep}"), block=True).wait(JOB_TIMEOUT_S)
            out.setup_times.append(time.perf_counter() - start)
            for record in records:
                reference[record.spec.cache_key()] = comparable(record)
            answered.extend(warm)
            not_ok += _not_ok(records)

        chooser = np.random.default_rng([seed, 2])
        stats_before = service.stats()
        mark("start")
        out.window_start = time.perf_counter()
        job_index = 0
        while _keep_going(out.window_start, window, out.job_times, minimum=1):
            new = [next(fresh) for _ in range(SERVICE_NEW_PER_JOB)]
            old = [answered[i] for i in chooser.choice(len(answered), SERVICE_NEW_PER_JOB, replace=False)]
            seeds = [value for pair in zip(new, old) for value in pair]
            job = _job(seeds, f"job-{job_index}")
            start = time.perf_counter()
            with _job_span(tracer, job.name, "service.job"):
                records = service.submit(job, block=True).wait(JOB_TIMEOUT_S)
            out.job_times.append(time.perf_counter() - start)
            job_index += 1
            out.records.extend(records)
            computed = []
            for record in records:
                key = record.spec.cache_key()
                if record.spec.seed in old:
                    mismatches += int(comparable(record) != reference.get(key))
                else:
                    reference[key] = comparable(record)
                    computed.append(record)
            out.computed.extend(computed)
            out.cell_times.append(_mean_cell_s(computed))
            not_ok += _not_ok(records)
            answered.extend(new)
        out.wall_s = time.perf_counter() - out.window_start
        mark("end")
        stats_after = service.stats()
    finally:
        if service is not None:
            service.shutdown()
    out.checks["not_ok"] = not_ok
    out.checks["store_hit_mismatches"] = mismatches
    out.failed += not_ok + mismatches
    _check_serial(out)
    out.layers.update(_service_layers(stats_before, stats_after))
    return out


def _service_layers(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for key in ("dispatched", "completed", "recycled", "crashes", "timeouts", "launched"):
        layers[f"service.pool.{key}"] = float(after["pool"][key] - before["pool"][key])
    for key in ("hits", "misses", "puts"):
        layers[f"service.store.{key}"] = float(after["store"][key] - before["store"][key])
    lookups = layers["service.store.hits"] + layers["service.store.misses"]
    layers["service.store.hit_ratio"] = layers["service.store.hits"] / lookups if lookups else 0.0
    return layers


# ---------------------------------------------------------------------- #
# sweep-process: run_sweep on the fork-per-cell executor
# ---------------------------------------------------------------------- #
def run_sweeps(
    seed: int,
    window: float,
    tracer=None,
    mark=_no_mark,
    setup_reps: int = 3,
) -> Measurement:
    """Whole sweeps of the grid over derived cell seeds; the second sweep
    repeats the first one's seeds."""
    out = Measurement(setup_reps=setup_reps)
    seeds = derived_seeds(seed, 3, 4096 * SEEDS_PER_SWEEP)
    groups = [seeds[i : i + SEEDS_PER_SWEEP] for i in range(0, len(seeds), SEEDS_PER_SWEEP)]
    make = lambda cell_seeds: SweepSpec.from_dict(  # noqa: E731
        {**SWEEP_GRID, "axes": {**SWEEP_GRID["axes"], "seed": cell_seeds}}
    )
    for _ in range(setup_reps):
        _reset_dataset("tiny")
        start = time.perf_counter()
        prepare_handoff(make(groups[0]).expand())
        out.setup_times.append(time.perf_counter() - start)

    plan = [groups[0]] + groups
    sweeps = []
    cache_stats: List[Dict[str, int]] = []
    mark("start")
    out.window_start = time.perf_counter()
    for position, cell_seeds in enumerate(plan):
        if not _keep_going(out.window_start, window, out.job_times, minimum=2):
            break
        sweep = make(cell_seeds)
        start = time.perf_counter()
        with _job_span(tracer, f"sweep-{position}", "api.parallel.sweep"):
            result = run_sweep(sweep)
        out.job_times.append(time.perf_counter() - start)
        sweeps.append(result)
        cache_stats.append(result.cache_stats)
    out.wall_s = time.perf_counter() - out.window_start
    mark("end")
    records = out.records
    records.extend(record for result in sweeps for record in result)
    out.computed = list(records)
    out.cell_times = [_mean_cell_s(list(result)) for result in sweeps]

    out.failed = out.checks["not_ok"] = _not_ok(records)
    repeat_mismatches = sum(
        comparable(first) != comparable(again) for first, again in zip(sweeps[0], sweeps[1])
    )
    out.checks["same_seed_repeat_mismatches"] = repeat_mismatches
    out.failed += repeat_mismatches
    _check_serial(out)
    for key in sorted(set().union(*cache_stats)):
        out.layers[f"api.parallel.cache_stats.{key}"] = statistics.median(
            [float(stats.get(key, 0)) for stats in cache_stats]
        )
    return out
