"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``: a traced run wraps the public functions
of each ``repro.*`` layer (see :data:`TARGETS`) with :meth:`Tracer.wrap`,
which records one span per call — name, start, end, parent span, request id
and thread — plus optional per-call counters computed from the arguments.
Spans stay in memory; :func:`layer_table` aggregates them into total and
self time per layer and :meth:`Tracer.write_chrome` writes Chrome
trace-event JSON (viewable in Perfetto).

Only the parent process records.  Forked pool and sweep workers inherit the
wrappers, but a wrapper called in any other process passes straight through,
so worker-side cost shows only as what the parent already receives: pool and
store counters, ``SweepRecord.cache_stats`` and each record's phase timings.
Spans recorded inside workers and shipped back are left for a later change.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: One recorded span: (id, name, start, end, parent id, request id, thread id).
Span = Tuple[int, str, float, float, Optional[int], str, int]


class Tracer:
    """In-memory span recorder owned by the process that created it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: str):
        """Tag the spans this thread opens inside the block with ``request_id``."""
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    @contextmanager
    def span(self, name: str):
        """Record one span around the block, nested under the open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            request = getattr(self._local, "request", None) or self.run_id
            self.spans.append(
                (span_id, name, start, end, parent, request, threading.get_ident())
            )

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` (and ``counts`` added) per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(f"{name}.calls")
            if counts is not None:
                for key, amount in counts(args, result).items():
                    self.count(f"{name}.{key}", amount)
            return result

        return traced

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": self.pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, "run": request},
            }
            for span_id, name, start, end, parent, request, tid in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; children always nest inside their parent on one thread.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span_id, name, start, end, _, _, _ in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
    return dict(table)


def format_layer_table(table: Dict[str, Dict[str, float]]) -> str:
    rows = sorted(table.items(), key=lambda item: -item[1]["self_s"])
    lines = [f"{'layer':<44} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for name, row in rows:
        lines.append(
            f"{name:<44} {int(row['calls']):>9} {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    return "\n".join(lines)


def per_span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, measured on a no-op."""

    def noop(*args):
        return None

    probe = Tracer("calibration")
    wrapped = probe.wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop(1)
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped(1)
    return max(0.0, (time.perf_counter() - start - bare) / calls)


# ---------------------------------------------------------------------- #
# Per-call counters
# ---------------------------------------------------------------------- #
def _nbytes(array) -> int:
    if hasattr(array, "nnz"):
        return int(array.data.nbytes + array.indices.nbytes + array.indptr.nbytes)
    return int(getattr(array, "nbytes", 0))


def _matmul_counts(args: tuple, result) -> Dict[str, float]:
    """Flops and bytes touched by ``backend.matmul(a, b)``, from the shapes."""
    a, b = args[-2], args[-1]
    columns = b.shape[-1] if len(b.shape) > 1 else 1
    work = a.nnz if hasattr(a, "nnz") else int(np.prod(a.shape))
    return {
        "flops": 2.0 * work * columns,
        "bytes": float(_nbytes(a) + _nbytes(b) + _nbytes(result)),
    }


def _spmm_counts(args: tuple, result) -> Dict[str, float]:
    """Stored entries times dense columns: the multiply-adds of one spmm."""
    matrix, dense = args[-2], args[-1]
    columns = dense.shape[1] if np.ndim(dense) > 1 else 1
    return {"nnz_cols": float(matrix.nnz * columns)}


# ---------------------------------------------------------------------- #
# What gets wrapped
# ---------------------------------------------------------------------- #
#: (module, attribute path, span name, counter function).  A dotted attribute
#: path names a method, patched on its class; a plain name is a module
#: function, patched in every loaded ``repro`` module that bound it by name.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.datasets.base", "load_dataset", "datasets.load", None),
    ("repro.attack.selection", "RepresentativeNodeSelector.select", "attack.selection.select", None),
    ("repro.attack.trigger", "batched_local_trigger_loss", "attack.trigger.loss", None),
    ("repro.kernels.numpy_backend", "NumpyBackend.matmul", "kernels.matmul", _matmul_counts),
    ("repro.kernels.numpy_backend", "NumpyBackend.spmm", "kernels.spmm", _spmm_counts),
    ("repro.autograd.optim", "Adam.step", "autograd.adam.step", None),
    ("repro.graph.cache", "PropagationCache.propagated", "graph.cache.propagated", None),
    ("repro.graph.cache", "PropagationCache.propagated_view", "graph.cache.propagated_view", None),
    ("repro.graph.blocked", "blocked_spmm", "graph.blocked.spmm", None),
    ("repro.graph.blocked", "blocked_precompute_hops", "graph.blocked.precompute_hops", None),
    ("repro.graph.blocked", "BlockedArray.gather", "graph.blocked.gather", None),
    ("repro.condensation.gradient_matching", "GradientMatchingCondenser.epoch_step", "condensation.epoch_step", None),
    ("repro.condensation.gc_sntk", "GCSNTK.epoch_step", "condensation.epoch_step", None),
    ("repro.condensation.gradient_matching", "all_class_model_gradients", "condensation.class_gradients", None),
    ("repro.condensation.gradient_matching", "GradientMatchingCondenser.condense", "condensation.condense", None),
    ("repro.condensation.gc_sntk", "GCSNTK.condense", "condensation.condense", None),
    ("repro.models.trainer", "Trainer.fit", "models.trainer.fit", None),
    ("repro.evaluation.pipeline", "evaluate_clean", "evaluation.evaluate_clean", None),
    ("repro.evaluation.pipeline", "evaluate_backdoor", "evaluation.evaluate_backdoor", None),
    ("repro.defenses.prune", "PruneDefense.apply_to_condensed", "defenses.defend", None),
    ("repro.service.store", "ResultStore.__init__", "service.store.replay", None),
    ("repro.service.store", "ResultStore.get", "service.store.get", None),
    ("repro.service.store", "ResultStore.put", "service.store.put", None),
]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    restore: List[Tuple[object, str, object]] = []
    for module_name, path, span_name, counts in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            restore.append((owner, method, original))
            setattr(owner, method, tracer.wrap(span_name, original, counts))
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(span_name, original, counts)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    restore.append((loaded, attr, original))
                    setattr(loaded, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return uninstall
