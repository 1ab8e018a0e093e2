"""Unit tests for the transferability sweep spec, matrix report and CLI verb."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api import ExperimentSpec, RunRecord, SweepSpec, TransferSweepSpec, run_sweep
from repro.cli import _split_axis_flag, build_parser, main, transfer_spec_from_args
from repro.evaluation.reporting import (
    NO_DEFENSE_LABEL,
    format_transfer_matrix,
    transfer_cell_metrics,
    transfer_matrix,
)
from repro.exceptions import ConfigurationError
from repro.registry import DEFENSES, MODELS


class TestTransferSweepSpec:
    def test_defaults(self):
        spec = TransferSweepSpec()
        assert spec.models is None
        assert spec.defenses is None
        assert spec.name == "transfer"
        assert spec.seed == 0

    def test_none_axes_resolve_to_registries(self):
        spec = TransferSweepSpec()
        assert spec.resolved_models() == MODELS.available()
        assert spec.resolved_defenses() == [None, *DEFENSES.available()]

    def test_gat_and_robust_training_are_in_the_default_matrix(self):
        spec = TransferSweepSpec()
        assert "gat" in spec.resolved_models()
        defenses = spec.resolved_defenses()
        assert "dropedge" in defenses and "dropnode" in defenses

    def test_explicit_axes_kept_in_order(self):
        spec = TransferSweepSpec(models=["mlp", "gcn"], defenses=[None, "prune"])
        assert spec.resolved_models() == ["mlp", "gcn"]
        assert spec.resolved_defenses() == [None, "prune"]

    def test_string_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            TransferSweepSpec(models="gcn")

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            TransferSweepSpec(defenses=[])

    def test_unknown_model_rejected_at_resolution(self):
        with pytest.raises(ConfigurationError):
            TransferSweepSpec(models=["no-such-model"]).resolved_models()

    def test_unknown_defense_rejected_at_resolution(self):
        with pytest.raises(ConfigurationError):
            TransferSweepSpec(defenses=["no-such-defense"]).resolved_defenses()

    def test_to_sweep_expands_full_grid(self):
        spec = TransferSweepSpec(models=["gcn", "mlp"], defenses=[None, "prune"], seed=3)
        sweep = spec.to_sweep()
        assert isinstance(sweep, SweepSpec)
        assert list(sweep.axes) == ["seed", "model", "defense"]
        cells = sweep.expand()
        assert len(cells) == 4
        assert [cell.model.name for cell in cells] == ["gcn", "gcn", "mlp", "mlp"]
        assert [cell.defense.is_set for cell in cells] == [False, True, False, True]

    def test_round_trips_through_json(self):
        spec = TransferSweepSpec(
            base=ExperimentSpec.from_dict({"dataset": "tiny", "attack": "naive"}),
            models=["gcn"],
            defenses=[None, "prune"],
            seed=7,
            name="paper-table",
        )
        assert TransferSweepSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            TransferSweepSpec.from_dict({"modles": ["gcn"]})

    def test_seeds_default_to_the_sweep_seed(self):
        spec = TransferSweepSpec(models=["gcn", "mlp"], defenses=[None, "prune"], seed=5)
        assert spec.seeds is None
        assert spec.resolved_seeds() == [5]
        assert [cell.seed for cell in spec.to_sweep().expand()] == [5, 5, 5, 5]

    def test_seed_axis_is_outermost(self):
        spec = TransferSweepSpec(models=["gcn", "mlp"], defenses=[None, "prune"], seeds=[3, 1])
        cells = spec.to_sweep().expand()
        assert [cell.seed for cell in cells] == [3, 3, 3, 3, 1, 1, 1, 1]
        assert [cell.model.name for cell in cells[:4]] == ["gcn", "gcn", "mlp", "mlp"]

    @pytest.mark.parametrize("seeds", [[], [-1], ["0"], "0", [True]])
    def test_bad_seeds_rejected(self, seeds):
        with pytest.raises(ConfigurationError):
            TransferSweepSpec(seeds=seeds)

    def test_seeds_round_trip(self):
        spec = TransferSweepSpec(models=["gcn"], seeds=[4, 2], seed=9)
        assert spec.to_dict()["seeds"] == [4, 2]
        assert TransferSweepSpec.from_json(spec.to_json()) == spec
        assert TransferSweepSpec.from_dict(TransferSweepSpec().to_dict()).seeds is None


def _spec(seed):
    return ExperimentSpec.from_dict({"dataset": "tiny", "model": "gcn", "attack": "naive", "seed": seed})


def _record(model, defense, *, status="ok", **metrics):
    spec = ExperimentSpec.from_dict(
        {"dataset": "tiny", "model": model, "attack": "naive", "defense": defense}
    )
    return RunRecord(spec=spec, status=status, **metrics)


class TestTransferMatrix:
    def test_cell_metrics_prefer_defended_numbers(self):
        record = _record(
            "gcn", "prune", defense_cta=0.8, defense_asr=0.1, attack_cta=0.7, attack_asr=0.9
        )
        assert transfer_cell_metrics(record) == (0.8, 0.1)

    def test_cell_metrics_fall_back_to_attacked_numbers(self):
        record = _record("gcn", None, attack_cta=0.7, attack_asr=0.9)
        assert transfer_cell_metrics(record) == (0.7, 0.9)

    def test_cell_metrics_use_clean_without_attack(self):
        spec = ExperimentSpec.from_dict({"dataset": "tiny", "model": "gcn"})
        record = RunRecord(spec=spec, clean_cta=0.6)
        cta, asr = transfer_cell_metrics(record)
        assert cta == 0.6 and np.isnan(asr)

    def test_matrix_covers_grid_in_order(self):
        records = [
            _record("gcn", None, attack_cta=0.7, attack_asr=0.9),
            _record("gcn", "prune", defense_cta=0.8, defense_asr=0.1),
            _record("mlp", None, attack_cta=0.5, attack_asr=0.4),
            _record("mlp", "prune", defense_cta=0.6, defense_asr=0.2),
        ]
        matrix = transfer_matrix(records)
        assert matrix["models"] == ["gcn", "mlp"]
        assert matrix["defenses"] == [NO_DEFENSE_LABEL, "prune"]
        assert matrix["dataset"] == "tiny"
        assert matrix["attack"] == "naive"
        assert len(matrix["cells"]) == 4
        assert matrix["cells"][1] == {
            "seed": 0,
            "model": "gcn",
            "defense": "prune",
            "cell_index": None,
            "cta": 0.8,
            "asr": 0.1,
            "status": "ok",
        }

    def test_matrix_ships_nan_as_null(self):
        matrix = transfer_matrix([_record("gcn", None)])
        assert matrix["cells"][0]["cta"] is None
        assert json.loads(json.dumps(matrix))  # strictly JSON-serialisable

    def test_format_renders_grid(self):
        records = [
            _record("gcn", None, attack_cta=0.7, attack_asr=0.9),
            _record("gcn", "prune", defense_cta=0.8, defense_asr=0.1),
        ]
        text = format_transfer_matrix(transfer_matrix(records))
        lines = text.splitlines()
        assert lines[0] == "| model | none | prune |"
        assert "| gcn | 70.00 / 90.00 | 80.00 / 10.00 |" in lines

    def test_format_renders_one_grid_per_seed(self):
        records = [
            replace(_record("gcn", None, attack_cta=0.7, attack_asr=0.9), spec=_spec(seed))
            for seed in (2, 5)
        ]
        matrix = transfer_matrix(records)
        assert [cell["seed"] for cell in matrix["cells"]] == [2, 5]
        lines = format_transfer_matrix(matrix).splitlines()
        assert lines[0] == "seed 2" and "seed 5" in lines
        assert lines.count("| model | none |") == 2

    def test_format_marks_failed_and_missing_cells(self):
        records = [
            _record("gcn", None, attack_cta=0.7, attack_asr=0.9),
            _record("gcn", "prune", status="failed"),
            _record("mlp", None, attack_cta=0.5, attack_asr=0.4),
        ]
        text = format_transfer_matrix(transfer_matrix(records))
        row = next(line for line in text.splitlines() if line.startswith("| gcn"))
        assert "failed" in row
        row = next(line for line in text.splitlines() if line.startswith("| mlp"))
        assert "--" in row


class TestTransferCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["transfer"])
        assert args.command == "transfer"
        assert args.dataset == "tiny"
        assert args.condenser == "gcond"
        assert args.attack == "naive"

    def test_split_axis_flag(self):
        assert _split_axis_flag(None) is None
        assert _split_axis_flag("gcn, mlp") == ["gcn", "mlp"]
        assert _split_axis_flag("none,prune") == [None, "prune"]
        with pytest.raises(ConfigurationError):
            _split_axis_flag(",")

    def test_spec_from_quick_form_args(self):
        args = build_parser().parse_args(
            ["transfer", "--dataset", "tiny", "--models", "gcn,mlp", "--defenses", "none,prune"]
        )
        spec = transfer_spec_from_args(args)
        assert spec.base.dataset.name == "tiny"
        assert spec.models == ["gcn", "mlp"]
        assert spec.defenses == [None, "prune"]

    def test_seeds_flag(self):
        args = build_parser().parse_args(["transfer", "--seeds", "3, 4"])
        assert transfer_spec_from_args(args).seeds == [3, 4]
        assert transfer_spec_from_args(build_parser().parse_args(["transfer"])).seeds is None
        with pytest.raises(ConfigurationError):
            transfer_spec_from_args(build_parser().parse_args(["transfer", "--seeds", "a"]))

    def test_spec_from_file(self, tmp_path):
        payload = {"base": {"dataset": "tiny"}, "models": ["gcn"], "seed": 4}
        path = tmp_path / "transfer.json"
        path.write_text(json.dumps(payload))
        args = build_parser().parse_args(["transfer", "--spec", str(path)])
        spec = transfer_spec_from_args(args)
        assert spec.models == ["gcn"]
        assert spec.seed == 4

    def test_end_to_end_matrix_on_tiny(self, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.json"
        exit_code = main(
            [
                "transfer",
                "--dataset",
                "tiny",
                "--epochs",
                "1",
                "--eval-epochs",
                "3",
                "--models",
                "gcn,mlp",
                "--defenses",
                "none,prune",
                "--matrix-out",
                str(matrix_path),
            ]
        )
        assert exit_code == 0
        matrix = json.loads(matrix_path.read_text())
        assert matrix["models"] == ["gcn", "mlp"]
        assert matrix["defenses"] == [NO_DEFENSE_LABEL, "prune"]
        assert all(cell["status"] == "ok" for cell in matrix["cells"])
        out = capsys.readouterr().out
        assert "| model |" in out


class TestSharedAttackPerSeed:
    """Every model x defense cell of one seed shares that seed's attack."""

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_one_attack_hash_per_seed(self, backend):
        spec = TransferSweepSpec(
            base=ExperimentSpec.from_dict(
                {
                    "dataset": "tiny",
                    "condenser": {"name": "gcond", "overrides": {"epochs": 1, "ratio": 0.2}},
                    "attack": {"name": "bgc", "overrides": {"epochs": 1, "poison_ratio": 0.2}},
                    "trigger": {"overrides": {"trigger_size": 2}},
                    "evaluation": {"overrides": {"epochs": 3}},
                }
            ),
            models=["gcn", "mlp"],
            defenses=[None, "prune"],
            seeds=[0, 1],
        )
        execution = {"backend": backend, "workers": 2 if backend == "pool" else 1}
        records = run_sweep(spec.to_sweep(), execution=execution)
        assert all(record.ok for record in records)
        for seed in (0, 1):
            cells = [record for record in records if record.spec.seed == seed]
            assert len(cells) == 4
            assert len({record.attack_condensed_hash for record in cells}) == 1
            assert len({record.condensed_hash for record in cells}) == 1
        assert records[0].attack_condensed_hash != records[4].attack_condensed_hash
        if backend == "serial":
            # One attack, clean leg and selection per seed; the rest are hits.
            assert records.memo_stats["attack_leg_misses"] == 2
            assert records.memo_stats["attack_leg_hits"] == 6
            assert records.memo_stats["clean_leg_hits"] == 6
