"""Multiprocess execution backend for :func:`repro.api.runner.run_sweep`.

``backend="pool"`` and its synonym ``"process"`` both run here: the sweep's
cells are dispatched onto one :class:`~repro.service.pool.WorkerPool` of
``ExecutionSpec.workers`` long-lived worker processes.  Three properties
define the backend:

**Determinism** — cells are dispatched in canonical grid order (or the
caller's ``order`` permutation) and results merge by grid index; every cell
derives all of its randomness from its own ``spec.seed`` (fixed at expansion
time), so the returned records are bit-identical to serial execution for any
worker count and any completion order.

**Dataset handoff** — a dataset reaches a cell only through the
:func:`~repro.datasets.load_dataset` memo.  Before the pool starts, the
parent loads each dataset named by the grid once and warms its normalized
operator on the process-wide :class:`~repro.graph.cache.PropagationCache`,
with a row source (:class:`~repro.graph.view.PropagatedRows`) for every
``num_hops`` any cell's condenser uses.  Under ``fork`` workers inherit the
memo and the warmed cache through copy-on-write pages.  A worker that lacks
a dataset (every worker under ``spawn``, or one started before the load)
gets the graph from the parent's memo with its first cell on it, once per
worker, and builds its own operator.  No propagated product crosses a
process boundary: a worker computes the propagated rows it reads, and a
cell that reads a whole product materialises it once per worker (on cora
two spmm of 2,708 × 1,433).  Workers ship each cell's cache counter delta
back; the merged totals land on ``SweepRecord.cache_stats``.

**Stage memo** — each worker keeps one
:class:`~repro.api.stages.StageMemo` for the sweep, and the pool sends the
cells of a ``(dataset, seed)`` group to the worker that already ran that
group where it can (see :mod:`repro.service.pool`), so a selection, leg or
fit the group's cells share is computed once per worker that runs them.
The per-cell hit and miss deltas land on ``SweepRecord.memo_stats``.

**Fault isolation** — a cell that raises becomes a structured failed
:class:`~repro.api.runner.RunRecord` (exception type, message, formatted
traceback, timing); a cell that exceeds ``ExecutionSpec.timeout`` is
terminated and recorded as a ``CellTimeout``; a worker that dies without
reporting (hard crash, ``os._exit``) is recorded as a ``WorkerCrash``.  The
pool respawns the dead worker either way.  Under ``on_error="raise"`` the
first failure aborts the sweep with a
:class:`~repro.exceptions.SweepExecutionError` and terminates the cells
still in flight; under ``"record"`` the remaining cells keep running.

The executor prefers the ``fork`` start method (zero-copy handoff of the
loaded datasets and registry state — including components registered at
runtime, e.g. by tests); on platforms without ``fork`` it falls back to
``spawn``, where workers re-import :mod:`repro` and receive each dataset
through pickling.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.runner import (
    CACHE_COUNTER_KEYS,
    RunRecord,
    cache_counters,
    dataset_cache_key,
    merge_cache_stats,
    _load_graph,
)
from repro.api.spec import ExecutionSpec, ExperimentSpec, SweepSpec
from repro.api.stages import MEMO_COUNTER_KEYS
from repro.exceptions import SweepExecutionError
from repro.graph.cache import get_default_cache
from repro.graph.data import GraphData
from repro.registry import CONDENSERS
from repro.utils.logging import get_logger

logger = get_logger("api.parallel")


def preferred_start_method() -> str:
    """The multiprocessing start method the executor uses on this platform.

    ``fork`` is preferred only on Linux, where it is CPython's own default:
    zero-copy inheritance of the loaded datasets, the warmed cache and the
    registry state.  On macOS ``fork`` is available but unsafe (CPython
    switched the default to ``spawn`` precisely because forked children can
    abort inside ObjC/Accelerate-backed libraries once the parent has used
    them), so everywhere else the executor uses ``spawn``, whose workers
    receive each dataset pickled and build their own operators.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def _cell_num_hops(spec: ExperimentSpec) -> Optional[int]:
    """The ``num_hops`` the cell's condenser will propagate with, if resolvable.

    Construction is cheap (config binding only).  A spec whose condenser
    cannot even be built is left unwarmed — the worker will fail eagerly and
    the failure is handled by the normal fault-isolation path.
    """
    try:
        condenser = CONDENSERS.build(spec.condenser.name, **spec.condenser.overrides)
    except Exception:  # noqa: BLE001
        return None
    hops = getattr(getattr(condenser, "config", None), "num_hops", None)
    return int(hops) if isinstance(hops, int) and hops >= 1 else None


def prepare_handoff(specs: List[ExperimentSpec]) -> None:
    """Load each dataset of ``specs`` once and warm its operator and row sources.

    The graphs land in the :func:`~repro.datasets.load_dataset` memo, where
    every cell and pool worker reads them.  The parent normalizes each graph
    and creates the row source of every hop count a cell's condenser
    propagates with, exactly as a worker would, so the handoff changes
    *where* the operator is built, never a float.  No propagated row is
    computed here: each process computes the rows it reads, and a cell that
    reads a whole product materialises it once per process.  A pool started
    after this call inherits the memo and the warmed cache under ``fork``;
    a worker that lacks a dataset receives the graph alone and builds its
    own operator.  A dataset that fails to load is skipped here; its cells
    fail in their workers and surface through the fault-isolation path.
    """
    cache = get_default_cache()
    graphs: Dict[Tuple[str, int], GraphData] = {}
    hop_counts: Dict[Tuple[str, int], set] = {}
    unloadable: set = set()
    for spec in specs:
        try:
            key = dataset_cache_key(spec)
        except Exception:  # noqa: BLE001 — bad dataset overrides fail in-worker
            continue
        if key in unloadable:
            continue
        if key not in graphs:
            try:
                graphs[key] = _load_graph(spec)
            except Exception:  # noqa: BLE001
                # Remember the failure: re-attempting once per cell could
                # multiply an expensive failed generation by the grid size.
                unloadable.add(key)
                logger.warning(
                    "dataset %r failed to load in the parent; its cells will "
                    "report the failure from their workers",
                    spec.dataset.name,
                )
                continue
        hops = _cell_num_hops(spec)
        if hops is not None:
            hop_counts.setdefault(key, set()).add(hops)
    for key, graph in graphs.items():
        for hops in sorted(hop_counts.get(key, ())):
            cache.propagated_view(graph, hops)


def run_sweep_pool(
    sweep: SweepSpec,
    specs: List[ExperimentSpec],
    order: List[int],
    execution: ExecutionSpec,
    on_record: Optional[Callable[[RunRecord], None]] = None,
) -> Tuple[List[RunRecord], Dict[str, int], Dict[str, int]]:
    """Execute ``specs`` on a worker pool; return records plus the merged
    cache and stage-memo stats.

    Serves ``backend="pool"`` and its spelling ``"process"``:
    ``execution.workers`` long-lived :class:`~repro.service.pool.WorkerPool`
    processes are reused across every cell of the sweep.  Records come back
    indexed by canonical grid position regardless of completion order, and
    the per-cell seeds fixed at expansion time make them bit-identical to
    serial execution.  ``on_record`` fires in completion order, failed
    records included unless they abort the sweep.  Raises :class:`SweepExecutionError` on the first
    failure when ``execution.on_error == "raise"``, terminating the cells
    still in flight.
    """
    from repro.service.pool import WorkerPool

    parent_before = cache_counters(get_default_cache().stats())
    # Handoff BEFORE the pool starts: forked workers inherit the loaded
    # datasets and the warmed cache through copy-on-write pages; a spawned
    # worker receives each graph from the parent's memo instead.
    prepare_handoff(specs)
    parent_after = cache_counters(get_default_cache().stats())
    records: List[Optional[RunRecord]] = [None] * len(specs)
    finished = threading.Event()
    lock = threading.Lock()
    state: Dict[str, Any] = {"left": len(order), "failure": None}

    def make_on_done(index: int) -> Callable[[RunRecord], None]:
        def on_done(record: RunRecord) -> None:
            deliver = False
            with lock:
                records[index] = record
                state["left"] -= 1
                if (
                    not record.ok
                    and execution.on_error == "raise"
                    and state["failure"] is None
                ):
                    # First failure aborts the sweep; the failed record is
                    # raised, not streamed.
                    state["failure"] = record
                    finished.set()
                else:
                    deliver = on_record is not None
                    if state["left"] == 0:
                        finished.set()
            if deliver:
                on_record(record)

        return on_done

    pool = WorkerPool(execution.workers, timeout=execution.timeout, name=sweep.name)
    try:
        pool.start()
        if not order:
            finished.set()
        for index in order:
            pool.submit(specs[index], index, on_done=make_on_done(index))
        finished.wait()
        failure = state["failure"]
        if failure is not None:
            raise SweepExecutionError(
                f"sweep {sweep.name!r} cell {failure.cell_index} failed with "
                f"{failure.error.get('type', 'Exception')}: "
                f"{failure.error.get('message', '')}\n"
                f"{failure.error.get('traceback', '')}",
                record=failure,
            )
    finally:
        pool.shutdown()
    handoff = {key: parent_after[key] - parent_before[key] for key in CACHE_COUNTER_KEYS}
    cell_stats = pool.merged_worker_stats()
    return (
        records,
        merge_cache_stats([handoff, *cell_stats]),
        merge_cache_stats(cell_stats, MEMO_COUNTER_KEYS),
    )
