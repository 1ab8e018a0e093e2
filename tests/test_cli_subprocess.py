"""Subprocess-level smoke tests of the CLI on the ``tiny`` dataset.

These run ``python -m repro.cli`` exactly the way a user (or the CI sweep
job) does — a fresh interpreter, ``PYTHONPATH=src`` — and assert exit code 0
plus parseable output for the spec-driven subcommands and the legacy
compatibility wrappers alike.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import MALFORMED_KNOB_VALUES

REPO_ROOT = Path(__file__).resolve().parent.parent

TINY_SPEC = {
    "dataset": "tiny",
    "condenser": {"name": "gcond-x", "overrides": {"epochs": 2, "ratio": 0.2}},
    "attack": {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
    "trigger": {"overrides": {"trigger_size": 2}},
    "evaluation": {"overrides": {"epochs": 5}},
    "seed": 0,
}

TINY_SWEEP = {
    "name": "cli-smoke",
    "seed": 1,
    "base": {
        "dataset": "tiny",
        "condenser": {"overrides": {"epochs": 2, "ratio": 0.2}},
        "trigger": {"overrides": {"trigger_size": 2}},
        "evaluation": {"overrides": {"epochs": 5}},
    },
    "axes": {
        "condenser": ["gcond", "gcond-x"],
        "attack": [{"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}}],
        "defense": ["prune"],
    },
}


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=300,
    )


class TestSpecDrivenCommands:
    def test_run_prints_table(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SPEC))
        result = run_cli("run", "--spec", str(spec_path))
        assert result.returncode == 0, result.stderr
        assert "ASR %" in result.stdout

    def test_run_json_output_is_parseable(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_SPEC))
        result = run_cli("run", "--spec", str(spec_path), "--json")
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout)
        assert record["spec"]["dataset"]["name"] == "tiny"
        assert 0.0 <= record["attack_asr"] <= 1.0

    def test_sweep_writes_one_jsonl_record_per_cell(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        out_path = tmp_path / "results.jsonl"
        spec_path.write_text(json.dumps(TINY_SWEEP))
        result = run_cli("sweep", "--spec", str(spec_path), "--out", str(out_path))
        assert result.returncode == 0, result.stderr
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 2  # 2 condensers × 1 attack × 1 defense
        for line in lines:
            record = json.loads(line)
            assert record["spec"]["attack"]["name"] == "bgc"
            assert 0.0 <= record["defense_cta"] <= 1.0

    def test_parallel_sweep_matches_serial_jsonl(self, tmp_path):
        """The CI acceptance check: --workers 2 produces the same results.jsonl
        as the serial run (modulo wall-clock timings), in canonical order."""
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(TINY_SWEEP))
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial = run_cli("sweep", "--spec", str(spec_path), "--out", str(serial_path))
        assert serial.returncode == 0, serial.stderr
        parallel = run_cli(
            "sweep", "--spec", str(spec_path), "--workers", "2",
            "--out", str(parallel_path),
        )
        assert parallel.returncode == 0, parallel.stderr
        assert "backend=process" in parallel.stdout

        def strip_timings(path: Path):
            return [
                {k: v for k, v in json.loads(line).items() if k != "timings"}
                for line in path.read_text().strip().splitlines()
            ]

        assert strip_timings(serial_path) == strip_timings(parallel_path)

    def test_run_rejects_invalid_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"condenser": "doscond"}))
        result = run_cli("run", "--spec", str(spec_path))
        assert result.returncode != 0

    def test_example_sweep_spec_parses(self):
        """examples/sweep.json (the CI smoke grid) must stay loadable."""
        payload = json.loads((REPO_ROOT / "examples" / "sweep.json").read_text())
        from repro.api import SweepSpec

        sweep = SweepSpec.from_dict(payload)
        assert sweep.num_cells == 4

    def test_example_experiment_spec_parses(self):
        payload = json.loads((REPO_ROOT / "examples" / "spec.json").read_text())
        from repro.api import ExperimentSpec

        spec = ExperimentSpec.from_dict(payload)
        spec.validate_runnable()


class TestLegacyCommands:
    def test_datasets_lists_tiny(self):
        result = run_cli("datasets")
        assert result.returncode == 0, result.stderr
        assert "tiny" in result.stdout
        assert "cora" in result.stdout

    def test_condense_smoke(self):
        result = run_cli(
            "condense",
            "--dataset", "tiny",
            "--method", "gcond-x",
            "--ratio", "0.2",
            "--epochs", "2",
            "--eval-epochs", "5",
        )
        assert result.returncode == 0, result.stderr
        assert "C-CTA %" in result.stdout

    def test_attack_smoke(self):
        result = run_cli(
            "attack",
            "--dataset", "tiny",
            "--method", "gcond-x",
            "--ratio", "0.2",
            "--epochs", "2",
            "--eval-epochs", "5",
            "--trigger-size", "2",
        )
        assert result.returncode == 0, result.stderr
        assert "ASR %" in result.stdout
        assert "poisoned nodes" in result.stdout


class TestEnvironmentValidation:
    """A malformed ``REPRO_*`` variable fails fast with one actionable line.

    ``main()`` resolves every registered knob before dispatch, so a bad value
    exits 2 naming the variable instead of raising a traceback deep inside a
    run (a bad threshold used to surface from the first chain build, after
    dataset generation).
    """

    @pytest.mark.parametrize("env, raw, fragment", MALFORMED_KNOB_VALUES)
    def test_malformed_value_exits_2_with_hint(self, env, raw, fragment, monkeypatch):
        monkeypatch.setenv(env, raw)
        result = run_cli("datasets")
        assert result.returncode == 2
        assert env in result.stderr
        assert fragment in result.stderr
        assert "hint:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "env, raw",
        [
            ("REPRO_BLOCKED_THRESHOLD", "16777216"),
            ("REPRO_BLOCK_ROWS", "4096"),
        ],
    )
    def test_valid_value_is_accepted(self, env, raw, monkeypatch):
        monkeypatch.setenv(env, raw)
        result = run_cli("datasets")
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "env, raw", [("REPRO_KERNEL_BACKEND", "banana"), ("REPRO_KERNEL_THREADS", "junk")]
    )
    def test_removed_kernel_variables_are_not_read(self, env, raw, monkeypatch):
        """There is one kernel backend, so its two former variables are
        ignored, however malformed."""
        monkeypatch.setenv(env, raw)
        result = run_cli("datasets")
        assert result.returncode == 0, result.stderr
        assert env not in result.stderr
