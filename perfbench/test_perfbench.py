"""Self-tests of the benchmark at smoke size on ``tiny``.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import manifest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_generated_files_match_the_manifest():
    assert _load(os.path.join(ROOT, "BENCHMARK.json")) == manifest.benchmark_json()
    assert _load(os.path.join(HERE, "layers.json")) == manifest.layers_json()


def test_benchmark_json_is_within_the_contract_limits():
    bench = manifest.benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(bench["command"]) <= 32 and all(len(part) <= 200 for part in bench["command"])
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in bench["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in bench["end_to_end"])
    assert len(json.dumps(bench, indent=2)) <= 64 * 1024


def test_layer_map_cites_only_defined_names():
    layers = {entry["name"] for entry in manifest.PER_LAYER}
    end_to_end = {entry["name"] for entry in manifest.END_TO_END}
    workload_names = {entry["name"] for entry in manifest.WORKLOADS}
    mapped = set()
    for group in manifest.LAYER_MAP:
        assert set(group["layers"]) <= layers
        assert set(group["moves"]) <= end_to_end
        assert set(group["on"]) <= workload_names
        mapped |= set(group["layers"])
    unmapped = layers - mapped
    assert unmapped == {"api.runner.phase_share", "trace.spans", "trace.overhead_pct"}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(value) for value in range(40)]
    value, percentile, beyond = run.tail(samples)
    assert (value, percentile, beyond) == (29.0, 75.0, 10)
    assert sum(sample > value for sample in samples) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_layer_table_subtracts_direct_children_only():
    recorded = [
        (1, "outer", 0.0, 10.0, None, "r", 0),
        (2, "middle", 1.0, 5.0, 1, "r", 0),
        (3, "leaf", 2.0, 3.0, 2, "r", 0),
        (4, "leaf", 6.0, 8.0, 1, "r", 0),
    ]
    table = spans.layer_table(recorded)
    assert table["outer"]["self_s"] == pytest.approx(4.0)
    assert table["middle"]["self_s"] == pytest.approx(3.0)
    assert table["leaf"] == {"calls": 2, "total_s": pytest.approx(3.0), "self_s": pytest.approx(3.0)}


def test_install_wraps_every_target_and_uninstall_restores_it():
    import repro.api.runner
    from repro.datasets.base import load_dataset
    from repro.kernels.numpy_backend import NumpyBackend

    original_matmul = NumpyBackend.__dict__["matmul"]
    tracer = spans.Tracer("test")
    uninstall = spans.install(tracer)
    try:
        assert repro.api.runner.load_dataset is not load_dataset
        assert NumpyBackend.__dict__["matmul"] is not original_matmul
        repro.api.runner.load_dataset("tiny")
        assert tracer.counters["datasets.load.calls"] == 1
        assert [span[1] for span in tracer.spans] == ["datasets.load"]
    finally:
        uninstall()
    assert repro.api.runner.load_dataset is load_dataset
    assert NumpyBackend.__dict__["matmul"] is original_matmul


def test_same_seed_mismatch_counts_as_a_failure(monkeypatch):
    calls = []
    honest = workloads._run_cell

    def drifting(spec, position, execution=None):
        record = honest(spec, position, execution)
        calls.append(record)
        if len(calls) == 2:
            record.attack_asr = -1.0
        return record

    monkeypatch.setattr(workloads, "_run_cell", drifting)
    measured = workloads.run_cells(workloads.TINY_CELL, seed=3, window=0.01, setup_reps=1)
    assert measured.checks["same_seed_repeat"] is False
    assert measured.failed == 1


@pytest.fixture
def checkout(tmp_path):
    """A copy of what the benchmark runs from: the manifest, itself, src."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    return tmp_path


def _bench(cwd, *args):
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_exits_nonzero_without_printing_when_the_program_is_absent(checkout):
    done = _bench(checkout, "--workload", "cora-cell", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("workload", [entry["name"] for entry in manifest.WORKLOADS])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_contract_line(checkout, workload, trace):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(os.path.join(ROOT, "src"), checkout / "src", ignore=ignore)
    done = _bench(
        checkout, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke"
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = manifest.PER_LAYER if trace == "1" else manifest.END_TO_END
    assert list(result["metrics"]) == [entry["name"] for entry in expected]
    for entry in expected:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    sections = (checkout / ".perfbench" / "results.jsonl").read_text().splitlines()
    assert json.loads(sections[-1])["workload"] == workload
    assert not any((checkout / ".perfbench" / "tmp").iterdir())
