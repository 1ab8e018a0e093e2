"""Async job queue: bounded submission, streamed results, cancellation.

:class:`CondensationService` is the orchestration layer between callers and
the execution machinery: jobs (single :class:`~repro.api.spec.ExperimentSpec`
cells or whole :class:`~repro.api.spec.SweepSpec` grids) enter a **bounded
queue** — a full queue raises :class:`~repro.exceptions.JobQueueFull`
instead of buffering unboundedly — and are expanded onto one shared
:class:`~repro.service.pool.WorkerPool`, with every cell first checked
against the content-addressed :class:`~repro.service.store.ResultStore`.
A store hit is delivered instantly without touching a worker; a miss runs
on the pool and, if it succeeds, is written back, so a resubmitted or
crash-restarted sweep skips every cell an earlier job already answered.

Per-job fault isolation: a failing cell becomes a structured failed
:class:`~repro.api.runner.RunRecord` inside its own job (the service always
runs with record-the-failure semantics — one poisoned cell or crashed
worker never aborts its job, let alone a neighbour's), and a job whose
*spec* cannot even be expanded fails alone with status ``FAILED``.

Callers hold a :class:`JobHandle`: ``stream()`` yields records in
completion order as cells finish, ``wait()`` blocks for the full
:class:`~repro.api.runner.SweepRecord` in canonical grid order,
``cancel()`` drops a queued job entirely or the unstarted cells of a
running one, and ``summary()`` reports progress counters including how many
cells the store answered.
"""

from __future__ import annotations

import itertools
import queue
import threading
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.api.parallel import prepare_handoff
from repro.api.runner import RunRecord, SweepRecord, dataset_cache_key
from repro.api.spec import ExperimentSpec, SweepSpec
from repro.exceptions import ConfigurationError, JobCancelled, JobQueueFull
from repro.service.pool import DEFAULT_RECYCLE_AFTER, WorkerPool
from repro.service.store import ResultStore
from repro.utils.logging import get_logger

logger = get_logger("service.jobs")

#: Default bound on jobs queued but not yet expanded onto the pool.
DEFAULT_MAX_PENDING = 8


class JobStatus(str, Enum):
    """Lifecycle of a submitted job (terminal: DONE / FAILED / CANCELLED)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the job has finished (successfully or otherwise)."""
        return self in (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED)


class JobHandle:
    """Caller-side view of one submitted job (thread-safe).

    Handles are created by :meth:`CondensationService.submit`; all state
    transitions happen on service threads, so every accessor synchronises on
    the handle's own condition variable.  A failed *cell* does not fail the
    job — it arrives as a structured failed record and the job still ends
    ``DONE``; ``FAILED`` means the job itself could not run (e.g. its sweep
    spec failed to expand) and :meth:`wait` re-raises the stored error.
    """

    def __init__(self, job_id: str, sweep: SweepSpec, service: "CondensationService"):
        self.job_id = job_id
        self.sweep = sweep
        self._service = service
        self._condition = threading.Condition()
        self._status = JobStatus.QUEUED
        self._error: Optional[BaseException] = None
        self._num_cells: Optional[int] = None
        self._records: List[Optional[RunRecord]] = []
        self._completed: List[RunRecord] = []
        self.store_hits = 0
        self.store_misses = 0

    # ------------------------------------------------------------ #
    # Caller API
    # ------------------------------------------------------------ #
    @property
    def status(self) -> JobStatus:
        """Current lifecycle state."""
        with self._condition:
            return self._status

    def wait(self, timeout: Optional[float] = None) -> SweepRecord:
        """Block until the job reaches a terminal state; return its records.

        Returns the :class:`~repro.api.runner.SweepRecord` in canonical grid
        order (failed cells included as structured failed records).  Raises
        :class:`~repro.exceptions.JobCancelled` if the job was cancelled,
        re-raises the job-level error if it ``FAILED``, and raises
        :class:`TimeoutError` if ``timeout`` elapses first.
        """
        with self._condition:
            if not self._condition.wait_for(lambda: self._status.terminal, timeout):
                raise TimeoutError(
                    f"job {self.job_id} still {self._status.value} after {timeout}s"
                )
            if self._status is JobStatus.CANCELLED:
                raise JobCancelled(f"job {self.job_id} was cancelled")
            if self._status is JobStatus.FAILED:
                raise self._error
            return SweepRecord([record for record in self._records])

    def stream(self, timeout: Optional[float] = None) -> Iterator[RunRecord]:
        """Yield records in completion order as cells finish.

        Store hits arrive first (they complete instantly); pool cells follow
        as workers report.  ``timeout`` bounds the wait for *each next*
        record.  Ends normally when the job is ``DONE`` and every record has
        been yielded; raises like :meth:`wait` on cancellation or failure.
        """
        position = 0
        while True:
            with self._condition:
                if not self._condition.wait_for(
                    lambda: position < len(self._completed) or self._status.terminal,
                    timeout,
                ):
                    raise TimeoutError(
                        f"job {self.job_id}: no record within {timeout}s"
                    )
                if position < len(self._completed):
                    record = self._completed[position]
                    position += 1
                elif self._status is JobStatus.CANCELLED:
                    raise JobCancelled(f"job {self.job_id} was cancelled")
                elif self._status is JobStatus.FAILED:
                    raise self._error
                else:
                    return
            yield record

    def cancel(self) -> bool:
        """Cancel the job; returns ``True`` if it was still cancellable.

        A queued job is dropped entirely; a running job keeps records that
        already completed, drops its unstarted cells, and lets in-flight
        cells finish silently.  Cancelling a terminal job is a no-op.
        """
        return self._service._cancel(self)

    def summary(self) -> Dict[str, Any]:
        """Progress counters: cells, completions, failures, store traffic."""
        with self._condition:
            completed = len(self._completed)
            failed = sum(1 for record in self._completed if not record.ok)
            return {
                "job_id": self.job_id,
                "name": self.sweep.name,
                "status": self._status.value,
                "cells": self._num_cells,
                "completed": completed,
                "failed": failed,
                "store_hits": self.store_hits,
                "store_misses": self.store_misses,
            }

    # ------------------------------------------------------------ #
    # Service-side transitions
    # ------------------------------------------------------------ #
    def _set_running(self, num_cells: int) -> bool:
        """QUEUED -> RUNNING; returns False if the job was cancelled first."""
        with self._condition:
            if self._status is not JobStatus.QUEUED:
                return False
            self._status = JobStatus.RUNNING
            self._num_cells = num_cells
            self._records = [None] * num_cells
            self._condition.notify_all()
            return True

    def _deliver(self, record: RunRecord, *, from_store: bool) -> None:
        """Record one finished cell; transition to DONE on the last one."""
        with self._condition:
            if self._status is not JobStatus.RUNNING:
                return  # late arrival after cancellation — drop it
            self._records[record.cell_index] = record
            self._completed.append(record)
            if from_store:
                self.store_hits += 1
            else:
                self.store_misses += 1
            if len(self._completed) == self._num_cells:
                self._status = JobStatus.DONE
            self._condition.notify_all()

    def _finish(self, status: JobStatus, error: Optional[BaseException] = None) -> bool:
        """Force a terminal state; returns False if already terminal."""
        with self._condition:
            if self._status.terminal:
                return False
            self._status = status
            self._error = error
            self._condition.notify_all()
            return True


class CondensationService:
    """Long-running condensation service: queue -> pool -> store.

    One service owns one :class:`~repro.service.pool.WorkerPool` (``workers``
    long-lived processes shared by every job, recycled after
    ``recycle_after`` cells) and one :class:`~repro.service.store.ResultStore`
    (constructor argument, else a fresh store on the ``REPRO_RESULT_STORE``
    root, else in-memory).  ``max_pending`` bounds the job queue —
    :meth:`submit` on a full queue raises
    :class:`~repro.exceptions.JobQueueFull` unless asked to block.
    ``timeout`` is forwarded to the pool as the per-cell default.

    The service is a context manager::

        with CondensationService(workers=4) as service:
            handle = service.submit(sweep)
            for record in handle.stream():
                ...
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        store: Optional[ResultStore] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        recycle_after: Optional[int] = DEFAULT_RECYCLE_AFTER,
        timeout: Optional[float] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.store = store if store is not None else ResultStore()
        self._pool = WorkerPool(
            workers,
            recycle_after=recycle_after,
            timeout=timeout,
            name="service",
        )
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_pending)
        self._jobs: Dict[str, JobHandle] = {}
        self._job_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._started = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------ #
    def start(self) -> "CondensationService":
        """Start the worker pool and the job scheduler thread (idempotent)."""
        if self._started:
            return self
        self._pool.start()
        self._started = True
        self._thread = threading.Thread(
            target=self._scheduler_loop, name="repro-service-jobs", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the scheduler, the pool, and the store (idempotent).

        Jobs still queued are marked ``CANCELLED``; a running job's
        in-flight cells are dropped with the pool.  Callers that need a
        job's results must :meth:`JobHandle.wait` before shutting down.
        """
        if not self._started:
            return
        self._started = False
        self._queue.put(None)  # scheduler sentinel
        if wait and self._thread is not None:
            self._thread.join()
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                job._finish(JobStatus.CANCELLED)
        with self._lock:
            for job in self._jobs.values():
                job._finish(JobStatus.CANCELLED)
        self._pool.shutdown(wait=wait)
        self.store.close()

    def __enter__(self) -> "CondensationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------ #
    def submit(
        self,
        spec: Union[ExperimentSpec, SweepSpec],
        *,
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> JobHandle:
        """Enqueue a job; returns its :class:`JobHandle` immediately.

        A bare :class:`~repro.api.spec.ExperimentSpec` is wrapped as a
        one-cell sweep with an explicit ``seed`` axis, which preserves the
        spec's own seed exactly (a plain empty-axes sweep would re-derive
        it).  When the queue already holds ``max_pending`` jobs, a
        non-blocking submit raises
        :class:`~repro.exceptions.JobQueueFull`; ``block=True`` waits up to
        ``timeout`` seconds (forever if ``None``) before raising.

        The job always runs on the service's pool with record-the-failure
        semantics; the submitted sweep's own ``execution`` block (backend,
        workers, on_error) is ignored.
        """
        if not self._started:
            raise RuntimeError("CondensationService.submit called before start()")
        if isinstance(spec, ExperimentSpec):
            spec = SweepSpec(
                base=spec,
                axes={"seed": [spec.seed]},
                name=f"cell-{spec.condenser.name}",
            )
        elif not isinstance(spec, SweepSpec):
            raise ConfigurationError(
                f"submit expects an ExperimentSpec or SweepSpec, got {type(spec)!r}"
            )
        with self._lock:
            job_id = f"job-{next(self._job_ids):04d}"
            handle = JobHandle(job_id, spec, self)
            self._jobs[job_id] = handle
        try:
            self._queue.put(handle, block=block, timeout=timeout)
        except queue.Full:
            with self._lock:
                del self._jobs[job_id]
            raise JobQueueFull(
                f"job queue is full ({self._queue.maxsize} pending jobs); "
                "retry later or submit with block=True"
            ) from None
        logger.info("service: queued %s (%s)", job_id, spec.name)
        return handle

    def get(self, job_id: str) -> JobHandle:
        """The handle for ``job_id``; raises ``KeyError`` if unknown."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[Dict[str, Any]]:
        """Summaries of every job this service has seen, in submission order."""
        with self._lock:
            handles = list(self._jobs.values())
        return [handle.summary() for handle in handles]

    def stats(self) -> Dict[str, Any]:
        """Service-level counters: store traffic plus pool activity."""
        return {
            "store": self.store.stats(),
            "pool": dict(self._pool.counters),
            "jobs": len(self._jobs),
            "queued": self._queue.qsize(),
        }

    # ------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------ #
    def _cancel(self, job: JobHandle) -> bool:
        """Cancel a job: drop pending pool cells, force CANCELLED."""
        self._pool.cancel(lambda tag: tag == job.job_id)
        cancelled = job._finish(JobStatus.CANCELLED)
        self._pool.release(job.job_id)
        return cancelled

    def _scheduler_loop(self) -> None:
        """Consume the job queue: expand, memo-check, dispatch to the pool."""
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._launch(job)
            except BaseException as error:  # noqa: BLE001 — job fails alone
                logger.exception("service: job %s failed to launch", job.job_id)
                job._finish(JobStatus.FAILED, error)

    def _launch(self, job: JobHandle) -> None:
        """Expand one job onto the pool, serving store hits immediately."""
        try:
            specs = job.sweep.expand()
        except Exception as error:  # noqa: BLE001 — bad spec fails the job
            job._finish(JobStatus.FAILED, error)
            return
        # Load each dataset once and warm its propagation shard in the
        # service parent; workers receive it by fork inheritance or by a
        # one-time per-worker shipment (see WorkerPool).  Cells the store
        # will answer still pass through here, which keeps the handoff
        # simple — the loads are memoised, so a warm service pays nothing.
        graphs, warm = prepare_handoff(specs)
        if not job._set_running(len(specs)):
            return  # cancelled while queued
        if not specs:
            job._finish(JobStatus.DONE)
            return
        for index, spec in enumerate(specs):
            stored = self.store.get(spec, cell_index=index)
            if stored is not None:
                job._deliver(stored, from_store=True)
                continue
            try:
                key = dataset_cache_key(spec)
            except Exception:  # noqa: BLE001 — bad overrides fail in-worker
                key = None

            def on_done(record: RunRecord, _job: JobHandle = job) -> None:
                self.store.put(record)
                _job._deliver(record, from_store=False)
                if _job.status.terminal:
                    self._pool.release(_job.job_id)

            self._pool.submit(
                spec,
                index,
                on_done=on_done,
                tag=job.job_id,
                graph=graphs.get(key),
                warm_payload=warm.get(key),
            )
        logger.info(
            "service: %s running (%d cells, %d from store)",
            job.job_id,
            len(specs),
            job.store_hits,
        )
