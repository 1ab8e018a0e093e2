"""Shared configuration and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The paper's
full grid (4 datasets x 4 condensers x 3 ratios x 1000 condensation epochs on
a GPU) is far beyond what a pure-numpy CPU run should attempt, so benchmarks
default to a representative subset with reduced epochs; the *shape* of each
result (who wins, approximate factors, trends) is what matters.

Set ``REPRO_BENCH_FULL=1`` to run the full dataset grid with more epochs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.attack import BGC, BGCConfig, TriggerConfig
from repro.attack.selection import SelectionConfig
from repro.condensation import CondensationConfig, make_condenser
from repro.datasets import load_dataset
from repro.evaluation.pipeline import (
    EvaluationConfig,
    evaluate_backdoor,
    evaluate_clean,
    train_model_on_condensed,
)
from repro.evaluation.reporting import format_percent, format_table
from repro.utils.seed import spawn_rngs

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Default condensation ratios per dataset (the paper's middle setting each).
DEFAULT_RATIOS: Dict[str, float] = {
    "cora": 0.026,
    "citeseer": 0.018,
    "flickr": 0.005,
    "reddit": 0.002,
}

#: Paper-reported poison budgets (ratio of the training set / absolute count).
POISON_SETTINGS: Dict[str, Dict[str, float]] = {
    "cora": {"poison_ratio": 0.1},
    "citeseer": {"poison_ratio": 0.1},
    "flickr": {"poison_number": 40},
    "reddit": {"poison_number": 60},
}

DATASETS_FAST = ["cora", "citeseer"]
DATASETS_FULL = ["cora", "citeseer", "flickr", "reddit"]


def bench_datasets() -> List[str]:
    """Datasets exercised by the benchmarks in the current mode."""
    return DATASETS_FULL if FULL_MODE else DATASETS_FAST


@dataclass
class BenchSettings:
    """Scaled-down experiment settings used across all benchmarks."""

    condensation_epochs: int = 25 if FULL_MODE else 12
    attack_epochs: int = 25 if FULL_MODE else 12
    evaluation_epochs: int = 120 if FULL_MODE else 60
    surrogate_steps: int = 20
    generator_steps: int = 2
    update_batch_size: int = 10
    trigger_size: int = 4
    hidden: int = 32
    seed: int = 0

    def condensation(self, ratio: float) -> CondensationConfig:
        return CondensationConfig(epochs=self.condensation_epochs, ratio=ratio)

    def attack(self, dataset: str, **overrides) -> BGCConfig:
        poison = dict(POISON_SETTINGS.get(dataset, {"poison_ratio": 0.1}))
        poison.update({k: v for k, v in overrides.items() if k in ("poison_ratio", "poison_number")})
        other = {k: v for k, v in overrides.items() if k not in ("poison_ratio", "poison_number")}
        trigger = other.pop("trigger", TriggerConfig(trigger_size=self.trigger_size))
        return BGCConfig(
            poison_ratio=poison.get("poison_ratio"),
            poison_number=poison.get("poison_number"),
            epochs=self.attack_epochs,
            surrogate_steps=self.surrogate_steps,
            generator_steps=self.generator_steps,
            update_batch_size=self.update_batch_size,
            trigger=trigger,
            selection=SelectionConfig(num_clusters=3, selector_epochs=60),
            **other,
        )

    def evaluation(self, architecture: str = "gcn", num_layers: int = 2) -> EvaluationConfig:
        return EvaluationConfig(
            architecture=architecture,
            epochs=self.evaluation_epochs,
            hidden=self.hidden,
            num_layers=num_layers,
        )


def run_bgc_cell(
    dataset: str,
    condenser_name: str,
    ratio: float,
    settings: Optional[BenchSettings] = None,
    attack_overrides: Optional[dict] = None,
    architecture: str = "gcn",
    include_clean: bool = True,
    num_layers: int = 2,
) -> Dict[str, float]:
    """Run one (dataset, condenser, ratio) cell: clean baseline + BGC attack.

    Returns a dictionary with C-CTA / CTA / C-ASR / ASR (fractions in [0, 1]).
    """
    settings = settings or BenchSettings()
    attack_overrides = attack_overrides or {}
    graph = load_dataset(dataset, seed=settings.seed)
    attack_rng, clean_rng, eval_rng, clean_eval_rng = spawn_rngs(settings.seed + 1, 4)

    condenser = make_condenser(condenser_name, settings.condensation(ratio))
    attack = BGC(settings.attack(dataset, **attack_overrides))
    result = attack.run(graph, condenser, attack_rng)
    evaluation = settings.evaluation(architecture, num_layers)
    backdoored_model = train_model_on_condensed(result.condensed, graph, evaluation, eval_rng)
    row: Dict[str, float] = {
        "CTA": evaluate_clean(backdoored_model, graph),
        "ASR": evaluate_backdoor(backdoored_model, graph, result.generator, result.target_class),
    }
    if include_clean:
        clean_condenser = make_condenser(condenser_name, settings.condensation(ratio))
        clean_condensed = clean_condenser.condense(graph, clean_rng)
        clean_model = train_model_on_condensed(clean_condensed, graph, evaluation, clean_eval_rng)
        row["C-CTA"] = evaluate_clean(clean_model, graph)
        row["C-ASR"] = evaluate_backdoor(
            clean_model, graph, result.generator, result.target_class
        )
    return row


def print_header(title: str) -> None:
    """Print a visually distinct section header for benchmark output."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_rows(rows: List[Dict[str, object]], columns: Optional[List[str]] = None) -> None:
    """Print result rows as an aligned table, metrics as percentages.

    A metric column is a CTA or ASR rate (``CTA``, ``C-ASR``, ``dASR``,
    ``BGC CTA``, ...); every other column (``ratio``, ``feature_scale``, ...)
    prints as it is.
    """
    rendered = []
    for row in rows:
        formatted = {}
        for key, value in row.items():
            if isinstance(value, float) and ("CTA" in key or "ASR" in key):
                formatted[key] = format_percent(value)
            else:
                formatted[key] = value
        rendered.append(formatted)
    print(format_table(rendered, columns=columns))
