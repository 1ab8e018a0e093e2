"""Persistent worker pool: one long-lived process per slot, reused across cells.

The pool keeps ``workers`` processes alive and feeds them cells over duplex
pipes, so a cell costs one pickled task message and one pickled result
rather than a process launch.  It is the only multiprocess executor, with
two callers: :func:`repro.api.parallel.run_sweep_pool` (the ``"pool"``
execution backend and its ``"process"`` spelling, one pool per sweep) and
:class:`repro.service.jobs.CondensationService` (one pool for the lifetime
of the service, multiplexing many concurrent jobs).

Contract:

**Determinism** — a worker derives every random stream of a cell from the
cell's own ``spec.seed``; nothing about worker identity, reuse order or
recycling reaches a result, so pool records are bit-identical to serial
execution for any worker count (``tests/test_service.py`` pins this to the
condensed-graph sha256 fingerprints).

**Fault isolation** — the :class:`~repro.api.spec.ExecutionSpec` error
taxonomy carries over verbatim: a cell that raises becomes a structured
failed :class:`~repro.api.runner.RunRecord`; a cell that exceeds its
deadline is terminated and recorded as a ``CellTimeout``; a worker that dies
without reporting (hard crash, ``os._exit``) is recorded as a
``WorkerCrash``.  In every case the dead slot is **respawned** and the
remaining cells keep running — one poisoned cell never takes the pool down.
The deadline clock starts when a cell is dispatched to a worker, and
:meth:`WorkerPool.shutdown` terminates workers that still hold a cell.

**Recycling** — a worker is retired and replaced after ``recycle_after``
completed cells (long-lived services must bound per-worker memory growth:
dataset memos, propagation-cache shards and allocator fragmentation all
accumulate in a worker that never exits) and, implicitly, on crash.

**Stage memo** — each worker keeps one
:class:`~repro.api.stages.StageMemo` per *scope*: a task's ``tag`` (the
service's job id; a sweep's own pool tags nothing, so the sweep is one
scope).  A task of another scope replaces the memo, :meth:`WorkerPool.release`
drops it when a job ends, and a recycled worker takes it with it.  To make
the memo hit, an idle worker is given, in order of preference, a pending
cell of a ``(dataset, seed)`` group it already ran in that scope, else a
cell of a group no other worker holds, else the queue head.

**Cache handoff** — workers forked at :meth:`WorkerPool.start` inherit the
parent's dataset memo and warmed :class:`~repro.graph.cache.PropagationCache`
through copy-on-write pages.  For datasets the parent loaded *after* a
worker started (a later job on a fresh dataset, or any dataset under the
``spawn`` fallback), the first task naming that dataset ships the loaded
graph plus a pickled ``export_base_chains`` payload to that worker — once
per worker per dataset, not once per cell.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.api.runner import (
    CACHE_COUNTER_KEYS,
    RunRecord,
    cache_counters,
    dataset_cache_key,
    error_info,
    run_experiment,
)
from repro.api.spec import ExperimentSpec
from repro.api.stages import MEMO_COUNTER_KEYS, StageMemo
from repro.datasets.base import _DATASET_CACHE
from repro.exceptions import ConfigurationError
from repro.graph.blocked import (
    BLOCKED_THRESHOLD,
    remove_process_scratch,
    scratch_root,
    set_scratch_root,
)
from repro.graph.cache import get_default_cache
from repro.graph.data import GraphData
from repro.utils.knobs import KNOBS
from repro.utils.logging import get_logger

logger = get_logger("service.pool")

#: Scheduler poll interval (seconds) — the deadline-check granularity; task
#: dispatch and result collection are event-driven (pipe readiness), not
#: polled.
_POLL_INTERVAL = 0.05
#: Grace period (seconds) for a stopped worker to exit before SIGKILL.
_TERMINATE_GRACE = 5.0
#: Default number of completed cells after which a worker is recycled.
DEFAULT_RECYCLE_AFTER = 64
#: Knobs whose parent-side effective value every task installs in its worker.
_FORWARDED_KNOBS = (BLOCKED_THRESHOLD,)


def _knob_values() -> Dict[str, Any]:
    """The parent's effective value of each forwarded knob, keyed by env var.

    Resolved at dispatch, so long-lived workers track the parent (and
    whatever ``ExecutionSpec`` override a job installed) instead of what an
    earlier job left behind.  A malformed env value is left out, so the
    cell fails in the worker rather than in the scheduler.
    """
    values = {}
    for knob in _FORWARDED_KNOBS:
        try:
            values[knob.env] = knob.get()
        except ConfigurationError:
            pass
    return values


def _pool_worker_main(
    connection,
    blocked_scratch_root: Optional[str],
) -> None:
    """Long-lived worker loop: receive cells, run them, ship records back.

    Messages from the parent are ``("run", task_id, spec, cell_index,
    dataset_key, graph, warm_payload, knob_values, scope)``, ``("forget",)``
    or ``("stop",)``; ``knob_values`` maps env names to the parent's
    effective values, which the worker installs as overrides before the
    cell runs.  Cells of one ``scope`` share a stage memo; another scope
    starts a fresh one and ``forget`` drops it.
    Every run is answered with ``("ok", task_id, record_dict, stats_delta)``
    or ``("error", task_id, error_info, stats_delta)``, the delta holding
    the cell's cache and memo counters — an exception is a
    reported result, never a dead worker, so the parent can tell a failing
    *cell* from a dying *process*.  A shipped ``graph`` is installed into the
    worker's dataset memo (so later cells on the same dataset need no
    payload) and its ``warm_payload`` — a pickled ``export_base_chains``
    snapshot — warms the worker's propagation cache exactly once per
    dataset.  The scratch root is pinned before any work so blocked-engine
    block files land where the parent's crash cleanup will look; the
    worker's scratch directory is removed on the way out.
    """
    if blocked_scratch_root is not None:
        set_scratch_root(blocked_scratch_root)
    cache = get_default_cache()
    warmed: set = set()
    memo: Optional[StageMemo] = None
    memo_scope: Any = None
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            if message[0] == "forget":
                memo = None
                continue
            (
                _,
                task_id,
                spec,
                cell_index,
                dataset_key,
                graph,
                warm_payload,
                knob_values,
                scope,
            ) = message
            if memo is None or scope != memo_scope:
                memo, memo_scope = StageMemo(), scope
            before = {**cache_counters(cache.stats()), **memo.counters}

            def stats_delta() -> Dict[str, int]:
                after = {**cache_counters(cache.stats()), **memo.counters}
                return {
                    key: after[key] - before[key]
                    for key in (*CACHE_COUNTER_KEYS, *MEMO_COUNTER_KEYS)
                }

            try:
                for env, value in knob_values.items():
                    KNOBS[env].set(value)
                if graph is not None and dataset_key is not None:
                    _DATASET_CACHE.setdefault(dataset_key, graph)
                    if warm_payload is not None and dataset_key not in warmed:
                        cache.warm_start(
                            _DATASET_CACHE[dataset_key], pickle.loads(warm_payload)
                        )
                        warmed.add(dataset_key)
                shared = (
                    _DATASET_CACHE.get(dataset_key) if dataset_key is not None else None
                )
                record = run_experiment(
                    spec, graph=shared, cell_index=cell_index, memo=memo
                )
                connection.send(("ok", task_id, record.to_dict(), stats_delta()))
            except BaseException as error:  # noqa: BLE001 — everything reported
                connection.send(("error", task_id, error_info(error), stats_delta()))
    finally:
        connection.close()
        remove_process_scratch()


#: Result callback: receives the finished cell's RunRecord.
OnDone = Callable[[RunRecord], None]


@dataclass
class _Task:
    """One pending or in-flight cell."""

    task_id: int
    spec: ExperimentSpec
    cell_index: int
    on_done: OnDone
    timeout: Optional[float]
    #: Opaque caller tag (the service stores its job id here) for cancel();
    #: also the task's stage-memo scope.
    tag: Any = None
    #: ``(tag, dataset key, seed)``, or ``None`` when the spec's dataset
    #: overrides are malformed: cells of one group share memoised stages.
    group: Any = None
    graph: Optional[GraphData] = None
    warm_payload: Optional[bytes] = None
    started: float = 0.0


#: Scope of a worker that holds no stage memo.
_NO_SCOPE = object()


@dataclass
class _WorkerSlot:
    """Parent-side state of one live worker process."""

    process: multiprocessing.process.BaseProcess
    connection: multiprocessing.connection.Connection
    #: Dataset keys present in the worker (fork-inherited memo snapshot plus
    #: everything shipped since) — the parent ships a graph payload only for
    #: keys missing here.
    known_datasets: set = field(default_factory=set)
    cells_done: int = 0
    current: Optional[_Task] = None
    deadline: Optional[float] = None
    #: Scope of the worker's stage memo, and the task groups it has run
    #: under that scope (what the memo may hold).
    scope: Any = _NO_SCOPE
    groups: set = field(default_factory=set)


class WorkerPool:
    """A fixed-size pool of long-lived worker processes executing cells.

    ``submit`` enqueues a cell and returns immediately; the ``on_done``
    callback fires from the pool's scheduler thread with the finished (or
    failed) :class:`~repro.api.runner.RunRecord`.  Workers are recycled
    after ``recycle_after`` completed cells and respawned on crash or
    timeout, so the pool survives arbitrary cell behaviour.  ``timeout`` is
    the default per-cell wall-clock budget (overridable per submit).  Each
    task carries the parent's effective blocked threshold, so workers and
    parent agree even when jobs differ.

    The pool is a context manager::

        with WorkerPool(workers=4) as pool:
            pool.submit(spec, 0, on_done=collect)
            ...
        # __exit__ drains nothing — callers wait for their callbacks, then
        # shutdown() stops the workers.
    """

    def __init__(
        self,
        workers: int,
        *,
        recycle_after: Optional[int] = DEFAULT_RECYCLE_AFTER,
        timeout: Optional[float] = None,
        name: str = "pool",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if recycle_after is not None and recycle_after < 1:
            raise ValueError(f"recycle_after must be >= 1 or None, got {recycle_after}")
        self.workers = workers
        self.recycle_after = recycle_after
        self.timeout = timeout
        self.name = name
        self._context = None
        self._slots: List[Optional[_WorkerSlot]] = []
        self._pending: deque = deque()
        self._lock = threading.Lock()
        self._next_task_id = 0
        self._started = False
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        self._wake_recv = None
        self._wake_send = None
        self._scratch_root: Optional[str] = None
        self._worker_stats: List[Dict[str, int]] = []
        self.counters = {
            "dispatched": 0,
            "completed": 0,
            "failed": 0,
            "recycled": 0,
            "crashes": 0,
            "timeouts": 0,
            "launched": 0,
        }

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def start(self) -> "WorkerPool":
        """Spawn the worker processes and the scheduler thread (idempotent)."""
        if self._started:
            return self
        from repro.api.parallel import preferred_start_method

        self._start_method = preferred_start_method()
        self._context = multiprocessing.get_context(self._start_method)
        # One resolution of the blocked scratch root for the pool's lifetime:
        # every worker pins it at birth and every crash cleanup targets it.
        self._scratch_root = scratch_root()
        self._wake_recv, self._wake_send = multiprocessing.Pipe(duplex=False)
        self._slots = [self._spawn_slot() for _ in range(self.workers)]
        self._started = True
        self._stopping = False
        self._thread = threading.Thread(
            target=self._scheduler_loop, name=f"repro-pool-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def _spawn_slot(self) -> _WorkerSlot:
        """Launch one worker process and record what it inherits."""
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_pool_worker_main,
            args=(child_end, self._scratch_root),
            daemon=True,
            name=f"repro-pool-{self.name}-worker",
        )
        process.start()
        child_end.close()
        # Under fork the child copies the parent's dataset memo (and warmed
        # propagation cache) as of this instant; under spawn it starts cold.
        inherited = set(_DATASET_CACHE) if self._start_method == "fork" else set()
        self.counters["launched"] += 1
        return _WorkerSlot(
            process=process, connection=parent_end, known_datasets=inherited
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the scheduler and every worker (idempotent).

        Idle workers are asked to stop; workers with a cell in flight are
        terminated at once, and that cell's callback never fires.  Pending
        tasks are dropped without their callbacks firing too; callers
        that need completion must wait for their callbacks *before* shutting
        down (both built-in callers do).
        """
        with self._lock:
            if not self._started:
                return
            self._stopping = True
            self._pending.clear()
        self._wake()
        if wait and self._thread is not None:
            self._thread.join()
        for slot in self._slots:
            if slot is not None:
                self._stop_slot(slot)
        self._slots = []
        self._started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _stop_slot(self, slot: _WorkerSlot) -> None:
        """Stop a worker, escalating to terminate/kill; clean its scratch.

        An idle worker is asked to stop.  A worker with a cell in flight
        cannot read that request until the cell ends, so it is terminated
        at once.
        """
        if slot.current is None:
            try:
                slot.connection.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            slot.process.join(_TERMINATE_GRACE)
        if slot.process.is_alive():
            slot.process.terminate()
            slot.process.join(_TERMINATE_GRACE)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join()
        slot.connection.close()
        if slot.process.pid is not None:
            # A terminated worker never ran its own cleanup; a stopped one
            # already removed its directory, making this a no-op.
            remove_process_scratch(slot.process.pid, root=self._scratch_root)

    # -------------------------------------------------------------- #
    # Submission
    # -------------------------------------------------------------- #
    def submit(
        self,
        spec: ExperimentSpec,
        cell_index: int,
        *,
        on_done: OnDone,
        timeout: Optional[float] = None,
        tag: Any = None,
        graph: Optional[GraphData] = None,
        warm_payload: Optional[bytes] = None,
    ) -> int:
        """Enqueue one cell; returns its task id.  ``on_done`` fires from the
        scheduler thread with the finished or failed record.

        ``graph``/``warm_payload`` are the shard-handoff artefacts for the
        cell's dataset (see :func:`repro.api.parallel.prepare_handoff`); they
        are shipped to a worker only if it does not already hold that
        dataset.  ``timeout`` overrides the pool default for this cell;
        ``tag`` is an opaque marker usable with :meth:`cancel` and
        :meth:`release`, and scopes the workers' stage memos.
        """
        if not self._started:
            raise RuntimeError("WorkerPool.submit called before start()")
        try:
            group = (tag, dataset_cache_key(spec), spec.seed)
        except Exception:  # noqa: BLE001 — bad overrides fail in-worker
            group = None
        with self._lock:
            if self._stopping:
                raise RuntimeError("WorkerPool is shutting down")
            task = _Task(
                task_id=self._next_task_id,
                spec=spec,
                cell_index=cell_index,
                on_done=on_done,
                timeout=self.timeout if timeout is None else timeout,
                tag=tag,
                group=group,
                graph=graph,
                warm_payload=warm_payload,
            )
            self._next_task_id += 1
            self._pending.append(task)
        self._wake()
        return task.task_id

    def cancel(self, predicate: Callable[[Any], bool]) -> int:
        """Drop pending tasks whose ``tag`` satisfies ``predicate``.

        In-flight cells are not interrupted (their results still arrive);
        returns the number of pending tasks removed.  Cancelled tasks'
        callbacks never fire.
        """
        with self._lock:
            kept = deque()
            dropped = 0
            for task in self._pending:
                if predicate(task.tag):
                    dropped += 1
                else:
                    kept.append(task)
            self._pending = kept
        return dropped

    def release(self, tag: Any) -> None:
        """Drop the stage memo of every worker holding scope ``tag``.

        Call it once no cell of ``tag`` remains pending (the service does
        when a job ends), so no memo outlives its job.  A busy worker reads
        the request after its current cell.
        """
        with self._lock:
            for slot in self._slots:
                if slot is None or slot.scope != tag:
                    continue
                try:
                    slot.connection.send(("forget",))
                except (BrokenPipeError, OSError):
                    pass  # a dead worker's memo died with it
                slot.scope, slot.groups = _NO_SCOPE, set()

    def pending_count(self) -> int:
        """Tasks enqueued but not yet dispatched to a worker."""
        with self._lock:
            return len(self._pending)

    def merged_worker_stats(self) -> List[Dict[str, int]]:
        """Per-cell cache and stage-memo counter deltas shipped back by workers."""
        with self._lock:
            return [dict(stats) for stats in self._worker_stats]

    def _wake(self) -> None:
        """Nudge the scheduler out of its connection.wait immediately."""
        try:
            self._wake_send.send(b"x")
        except (BrokenPipeError, OSError, AttributeError):
            pass

    # -------------------------------------------------------------- #
    # Scheduler
    # -------------------------------------------------------------- #
    def _scheduler_loop(self) -> None:
        """Dispatch pending cells to idle workers; collect results; enforce
        deadlines; recycle and respawn workers.  Runs until shutdown()."""
        while True:
            with self._lock:
                if self._stopping:
                    return
                self._dispatch_locked()
                busy = {
                    slot.connection: slot
                    for slot in self._slots
                    if slot is not None and slot.current is not None
                }
            ready = multiprocessing.connection.wait(
                [self._wake_recv, *busy], timeout=_POLL_INTERVAL
            )
            if self._wake_recv in ready:
                while self._wake_recv.poll():
                    self._wake_recv.recv()
            for connection in ready:
                slot = busy.get(connection)
                if slot is not None:
                    self._collect(slot)
            self._reap_timeouts()

    def _next_task_locked(self, slot: _WorkerSlot) -> _Task:
        """Pop the pending task ``slot`` should run (caller holds the lock).

        In order of preference: a cell of a group the worker already ran in
        its memo scope, else a cell of a group no other worker holds, else
        the queue head.  A one-group sweep therefore still uses every worker.
        """
        held = set()
        for other in self._slots:
            if other is not None and other is not slot:
                held |= other.groups
        choice = unheld = None
        for position, task in enumerate(self._pending):
            if task.group is None:
                continue
            if task.group in slot.groups:
                choice = position
                break
            if unheld is None and task.group not in held:
                unheld = position
        if choice is None:
            choice = unheld if unheld is not None else 0
        task = self._pending[choice]
        del self._pending[choice]
        return task

    def _dispatch_locked(self) -> None:
        """Assign pending tasks to idle slots (caller holds the lock)."""
        for position, slot in enumerate(self._slots):
            if not self._pending:
                return
            if slot is None or slot.current is not None:
                continue
            task = self._next_task_locked(slot)
            key = None if task.group is None else task.group[1]
            graph = warm = None
            if key is not None and key not in slot.known_datasets:
                graph, warm = task.graph, task.warm_payload
                if graph is not None:
                    slot.known_datasets.add(key)
            now = time.perf_counter()
            task.started = now
            try:
                slot.connection.send(
                    (
                        "run",
                        task.task_id,
                        task.spec,
                        task.cell_index,
                        key,
                        graph,
                        warm,
                        _knob_values(),
                        task.tag,
                    )
                )
            except (BrokenPipeError, OSError):
                # The worker died while idle; respawn the slot and put the
                # task back at the front of the queue.
                self.counters["crashes"] += 1
                self._slots[position] = self._respawn(slot)
                self._pending.appendleft(task)
                continue
            slot.current = task
            slot.deadline = None if task.timeout is None else now + task.timeout
            if slot.scope != task.tag:
                slot.scope, slot.groups = task.tag, set()
            if task.group is not None:
                slot.groups.add(task.group)
            self.counters["dispatched"] += 1

    def _respawn(self, slot: _WorkerSlot) -> _WorkerSlot:
        """Replace a dead or retired worker with a fresh one."""
        self._stop_slot(slot)
        return self._spawn_slot()

    def _finish(self, slot_position: int, slot: _WorkerSlot, record: RunRecord) -> None:
        """Deliver one result and recycle the slot if it is due."""
        task = slot.current
        slot.current = None
        slot.deadline = None
        slot.cells_done += 1
        self.counters["completed"] += 1
        if not record.ok:
            self.counters["failed"] += 1
        if (
            self.recycle_after is not None
            and slot.cells_done >= self.recycle_after
            and slot.process.is_alive()
        ):
            self.counters["recycled"] += 1
            with self._lock:
                self._slots[slot_position] = self._respawn(slot)
        try:
            task.on_done(record)
        except Exception:  # noqa: BLE001 — a sink error must not kill the pool
            logger.exception("pool %s: on_done callback raised", self.name)

    def _collect(self, slot: _WorkerSlot) -> None:
        """Receive one worker's report (or its death) and deliver the record."""
        position = self._position_of(slot)
        task = slot.current
        if task is None:
            return
        try:
            kind, task_id, payload, stats = slot.connection.recv()
        except (EOFError, OSError):
            slot.process.join()
            self.counters["crashes"] += 1
            record = RunRecord.from_failure(
                task.spec,
                task.cell_index,
                {
                    "type": "WorkerCrash",
                    "message": (
                        "pool worker exited with code "
                        f"{slot.process.exitcode} before reporting a result"
                    ),
                    "traceback": "",
                },
                time.perf_counter() - task.started,
            )
            with self._lock:
                self._slots[position] = self._respawn(slot)
            slot.current = None
            self.counters["completed"] += 1
            self.counters["failed"] += 1
            try:
                task.on_done(record)
            except Exception:  # noqa: BLE001
                logger.exception("pool %s: on_done callback raised", self.name)
            return
        with self._lock:
            self._worker_stats.append(dict(stats))
        if kind == "ok":
            record = RunRecord.from_dict(payload)
        else:
            record = RunRecord.from_failure(
                task.spec, task.cell_index, payload, time.perf_counter() - task.started
            )
        self._finish(position, slot, record)

    def _reap_timeouts(self) -> None:
        """Terminate and respawn workers whose cell exceeded its deadline."""
        now = time.perf_counter()
        for position, slot in enumerate(list(self._slots)):
            if slot is None or slot.current is None or slot.deadline is None:
                continue
            if now <= slot.deadline:
                continue
            if slot.connection.poll():
                # Finished between the wait() and this check: take the result.
                self._collect(slot)
                continue
            task = slot.current
            self.counters["timeouts"] += 1
            record = RunRecord.from_failure(
                task.spec,
                task.cell_index,
                {
                    "type": "CellTimeout",
                    "message": (
                        f"cell exceeded the per-cell timeout of "
                        f"{task.timeout}s and was terminated"
                    ),
                    "traceback": "",
                },
                now - task.started,
            )
            with self._lock:
                self._slots[position] = self._respawn(slot)
            slot.current = None
            self.counters["completed"] += 1
            self.counters["failed"] += 1
            try:
                task.on_done(record)
            except Exception:  # noqa: BLE001
                logger.exception("pool %s: on_done callback raised", self.name)

    def _position_of(self, slot: _WorkerSlot) -> int:
        """Index of ``slot`` in the slot table."""
        for position, candidate in enumerate(self._slots):
            if candidate is slot:
                return position
        raise RuntimeError("worker slot vanished from the pool")
