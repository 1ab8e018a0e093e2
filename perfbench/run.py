"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cora-cell --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
``repro`` layer with spans (see ``spans.py``) and reports the per-layer
metrics, a layer table with self time and a Chrome trace under
``.perfbench/traces/``.  Every finished workload appends its section — host
facts, every metric, the correctness checks — to
``.perfbench/results.jsonl`` before the result line is printed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when a
correctness check failed.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import manifest  # noqa: E402  (pure data, no numpy)

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Program knobs the benchmark pins to their defaults.
PINNED_UNSET = (
    "REPRO_KERNEL_BACKEND",
    "REPRO_KERNEL_THREADS",
    "REPRO_BLOCKED_THRESHOLD",
    "REPRO_BLOCK_ROWS",
    "REPRO_RESULT_STORE",
)
WORKLOAD_NAMES = [workload["name"] for workload in manifest.WORKLOADS]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(manifest.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the cell workloads on the tiny dataset (self-tests)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_environment(scratch: str, processes: int) -> None:
    """BLAS threads to at most the usable cores; program knobs to defaults.

    ``processes`` computing at once share the usable cores, so each gets at
    most its share: idle BLAS threads spin, and two workers each spinning a
    second thread on a two-core host made pooled timings swing by half.
    Must run before numpy is imported.  Scratch files (blocked propagation
    tiles, store roots, temporary files) stay inside the checkout.
    """
    usable = max(1, len(os.sched_getaffinity(0)) // processes)
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else usable
        os.environ[var] = str(min(threads, usable))
    for var in PINNED_UNSET:
        os.environ.pop(var, None)
    os.makedirs(scratch, exist_ok=True)
    os.environ["REPRO_BLOCKED_DIR"] = os.path.join(scratch, "blocked")
    os.environ["TMPDIR"] = scratch


def _read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.strip()
    except OSError:
        return None
    return None


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = _read_first(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    return _read_first(os.path.join(ROOT, ".git", head[len("ref: "):]))


def host_facts() -> dict:
    import numpy
    import scipy

    from repro.graph.blocked import blocked_threshold
    from repro.kernels import kernel_backend_name

    mem = _read_first("/proc/meminfo", "MemTotal:")
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "ram_mib": int(mem.split()[1]) // 1024 if mem else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "kernel_backend": kernel_backend_name(),
        "blocked_threshold": blocked_threshold(),
        "git_commit": git_commit(),
        "machine": platform.machine(),
        "cpu_probe_ms": cpu_probe_ms(),
    }


def cpu_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: how fast the host is now.

    Shared hosts drift (on a shared 2-core VM the loop took 17 ms and,
    twenty minutes later, 31 ms), so every section records it beside the
    metrics to tell a slow host from a slow change.
    """
    import statistics

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``.  Below twenty samples
    that percentile would not even reach the median, so the maximum is
    reported instead, with no samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Window:
    """Snapshots of the tracer counters and cache stats at window edges."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.snapshots = {}

    def __call__(self, point: str) -> None:
        from repro.graph.cache import get_default_cache

        counters = dict(self.tracer.counters) if self.tracer is not None else {}
        self.snapshots[point] = (counters, get_default_cache().stats())

    def counter(self, name: str) -> float:
        return self.snapshots["end"][0].get(name, 0.0) - self.snapshots["start"][0].get(name, 0.0)

    def cache(self, key: str) -> float:
        return float(self.snapshots["end"][1][key] - self.snapshots["start"][1][key])


def run_measurement(args, scratch: str, tracer, window: Window):
    import workloads

    if args.workload == "cora-cell":
        cell = workloads.TINY_CELL if args.smoke else workloads.CORA_CELL
        return workloads.run_cells(cell, args.seed, args.seconds, tracer, window)
    if args.workload == "citeseer-blocked":
        # tiny's hop chains are 1,440 elements: a zero threshold sends them
        # through the blocked engine too.
        cell, execution = (
            (workloads.TINY_CELL, {"blocked_threshold": 0})
            if args.smoke
            else (workloads.CITESEER_CELL, workloads.BLOCKED_EXECUTION)
        )
        return workloads.run_cells(
            cell, args.seed, args.seconds, tracer, window, execution=execution
        )
    if args.workload == "service-mixed":
        return workloads.run_service(args.seed, args.seconds, scratch, tracer, window)
    return workloads.run_sweeps(args.seed, args.seconds, tracer, window)


def end_to_end(m, import_s: float, peak_mib: float) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the reported extras."""
    import statistics

    import numpy as np

    distinct = {record.spec.cache_key(): record for record in m.computed if record.ok}
    # Means, not medians: on tiny a test set of a few dozen nodes puts CTA on a
    # coarse lattice, and a median jumps between its points from seed to seed.
    quality = lambda name: float(np.mean([getattr(r, name) for r in distinct.values()]))  # noqa: E731
    tail_value, tail_percentile, beyond = tail(m.job_times)
    metrics = {
        "setup_s": import_s + statistics.median(m.setup_times),
        "cell_s.p50": statistics.median(m.cell_times),
        "cells_per_s": len(m.records) / m.wall_s,
        "job_latency_s.p50": statistics.median(m.job_times),
        "peak_rss_mib": peak_mib,
        "attack_asr": quality("attack_asr"),
        "attack_cta": quality("attack_cta"),
    }
    extras = {
        "failed_ratio": m.failed / max(len(m.records), 1),
        "clean_asr": quality("clean_asr"),
        "cta_drop": float(np.mean([r.clean_cta - r.attack_cta for r in distinct.values()])),
        "job_latency_s.tail": tail_value,
        "job_latency_s.tail.percentile": tail_percentile,
        "job_latency_s.tail.samples_beyond": beyond,
        "jobs": len(m.job_times),
        "cells": len(m.records),
        "cells_computed": len(m.computed),
        "window_s": m.wall_s,
        "import_s": import_s,
        "setup_reps_s": m.setup_times,
    }
    return metrics, extras


def per_layer(m, tracer, window: Window, span_cost: float) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and its layer table."""
    from spans import layer_table

    end = m.window_start + m.wall_s
    inside = [span for span in tracer.spans if span[2] >= m.window_start and span[3] <= end]
    before = [span for span in tracer.spans if span[3] <= m.window_start]
    table = layer_table(inside)
    cells = max(len(m.records), 1)
    total = lambda span: table.get(span, {}).get("total_s", 0.0)  # noqa: E731
    mean = lambda span: total(span) / max(table.get(span, {}).get("calls", 0), 1)  # noqa: E731

    metrics = {}
    timed = [record for record in m.computed if record.ok]
    for phase in manifest.RUNNER_PHASES:
        metrics[f"api.runner.{phase}_s"] = sum(
            record.timings.get(phase, 0.0) for record in timed
        ) / max(len(timed), 1)
    # Pool and sweep cells are timed by their own records, so the share is 1
    # by construction there; it means something on the serial cells.
    metrics["api.runner.phase_share"] = m.layers.get("api.runner.phase_share", 1.0)
    for name, span in manifest.SPAN_SECONDS.items():
        metrics[name] = total(span) / cells
    for name, counter in manifest.SPAN_COUNTS.items():
        metrics[name] = window.counter(counter) / cells
    for key in ("hits", "misses", "incremental_updates"):
        metrics[f"graph.cache.{key}"] = window.cache(key) / cells
    lookups = window.cache("hits") + window.cache("misses")
    metrics["graph.cache.hit_ratio"] = window.cache("hits") / lookups if lookups else 0.0

    for entry in manifest.PER_LAYER:
        name = entry["name"]
        if name.startswith(("service.pool.", "service.store.", "api.parallel.cache_stats.")):
            metrics[name] = float(m.layers.get(name, 0.0))
    metrics["service.store.get_s"] = mean("service.store.get")
    metrics["service.store.put_s"] = mean("service.store.put")
    replays = [span for span in tracer.spans if span[1] == "service.store.replay"]
    metrics["service.store.replay_s"] = (
        sum(span[3] - span[2] for span in replays) / len(replays) if replays else 0.0
    )
    metrics["api.parallel.sweep_s"] = mean("api.parallel.sweep")
    loads = layer_table(before).get("datasets.load", {}).get("total_s", 0.0)
    metrics["datasets.load_s"] = loads / max(m.setup_reps, 1)
    metrics["trace.spans"] = float(len(inside))
    metrics["trace.overhead_pct"] = 100.0 * len(inside) * span_cost / m.wall_s
    return metrics, table


def save_section(section: dict) -> None:
    """Append one finished workload's section; durable before we go on."""
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(section, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def last_untraced(workload: str, seed: int, smoke: bool):
    """The most recent untraced section for this workload and seed, if any."""
    path = os.path.join(OUT, "results.jsonl")
    found = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                try:
                    section = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (
                    section.get("workload") == workload
                    and section.get("seed") == seed
                    and section.get("trace") == 0
                    and section.get("smoke") == smoke
                ):
                    found = section
    return found


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {units.get(name, '')}")


def run_one(args) -> int:
    scratch = os.path.join(OUT, "tmp", str(os.getpid()))
    pooled = args.workload in manifest.POOLED_WORKLOADS
    pin_environment(scratch, manifest.WORKERS if pooled else 1)
    # Registered before repro is imported, so it runs after repro's own exit
    # handler, which recreates the blocked scratch root while cleaning it.
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
        import repro.api  # noqa: F401
        import repro.api.parallel  # noqa: F401
        import repro.service  # noqa: F401
        import workloads  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {SRC}: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    import spans as tracing

    tracer = uninstall = None
    span_cost = 0.0
    if args.trace:
        span_cost = tracing.per_span_cost()
        tracer = tracing.Tracer(f"{args.workload}:{args.seed}")
        uninstall = tracing.install(tracer)
    window = Window(tracer)
    try:
        m = run_measurement(args, scratch, tracer, window)
    finally:
        if uninstall is not None:
            uninstall()
        from repro.datasets.base import clear_dataset_cache
        from repro.graph.cache import get_default_cache

        get_default_cache().invalidate()
        clear_dataset_cache()

    units = {entry["name"]: entry["unit"] for entry in manifest.END_TO_END + manifest.REPORTED + manifest.PER_LAYER}
    e2e, extras = end_to_end(m, import_s, peak_rss_mib())
    section = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_facts(),
        "end_to_end": e2e,
        "reported": extras,
        "checks": m.checks,
        "attempted": len(m.records),
        "failed": m.failed,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"host: {json.dumps(section['host'], sort_keys=True)}")
    print(f"checks: {json.dumps(m.checks, sort_keys=True)}")
    print_table("end-to-end:", e2e, units)
    print_table("reported (unbounded):", {k: v for k, v in extras.items() if isinstance(v, (int, float))}, units)
    result_metrics = e2e
    if args.trace:
        layers, table = per_layer(m, tracer, window, span_cost)
        section["per_layer"] = layers
        untraced = last_untraced(args.workload, args.seed, args.smoke)
        if untraced is not None:
            section["trace_overhead_vs_untraced"] = (
                e2e["cell_s.p50"] / untraced["end_to_end"]["cell_s.p50"] - 1.0
            )
            print(f"tracing overhead vs untraced run: {100 * section['trace_overhead_vs_untraced']:+.2f}% of cell_s.p50")
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        trace_path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json")
        tracer.write_chrome(trace_path)
        print(f"layer table, measured window (chrome trace of the whole run: {os.path.relpath(trace_path, ROOT)}):")
        print(tracing.format_layer_table(table))
        print_table("per-layer (per measured cell unless the unit says otherwise):", layers, units)
        result_metrics = layers
    save_section(section)

    expected = [entry["name"] for entry in (manifest.PER_LAYER if args.trace else manifest.END_TO_END)]
    result = {
        "correct": m.failed == 0,
        "attempted": len(m.records),
        "failed": m.failed,
        "metrics": {
            name: {"value": float(result_metrics[name]), "unit": units[name]} for name in expected
        },
    }
    print(json.dumps(result))
    return 0 if m.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, completed.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
