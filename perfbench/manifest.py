"""What the benchmark measures: workloads, metrics, bounds and layer map.

This module is the single source of ``BENCHMARK.json`` (the contract every
later performance change is judged by) and of ``perfbench/layers.json``
(which end-to-end metric each per-layer metric should move, on which
workload).  Regenerate both after editing it::

    python3 perfbench/manifest.py

Pure data: importing it must not import numpy, because ``run.py`` pins the
BLAS thread count before numpy loads.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30
#: Worker processes of the pooled workloads (service pool, sweep executor).
WORKERS = 2
POOLED_WORKLOADS = ("service-mixed", "sweep-process")

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "cora-cell",
        "why": "the examples/spec.json cell (gcond+bgc+prune+gcn), the unit of performance; "
        "selection, dense X@W and Adam dominate, the cache and blocked engine barely run",
    },
    {
        "name": "citeseer-blocked",
        "why": "citeseer cell run with a blocked threshold under its hop chains, so "
        "PropagationCache, graph.blocked and spmm carry the full graph's propagations",
    },
    {
        "name": "service-mixed",
        "why": "one client over CondensationService(workers=2) and an on-disk store; half "
        "new seeds, half store hits, so dispatch and store get/put dominate",
    },
    {
        "name": "sweep-process",
        "why": "run_sweep on the fork-per-cell process executor over gcond/gc-sntk x "
        "bgc/naive; the only workload on api/parallel.py's executor, gc-sntk and naive",
    },
]

END_TO_END: List[Dict[str, Any]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cell_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "job_latency_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "attack_asr", "unit": "ratio", "better": "higher", "bound": 0.1},
    {"name": "attack_cta", "unit": "ratio", "better": "higher", "bound": 0.2},
]

#: Printed with every untraced run but not bounded.  The quality extras can
#: be 0 or negative on some seeds, so a share of their median is
#: meaningless.  The tail is the maximum below twenty jobs and jumps to the
#: eleventh-highest at twenty: across runs of the same code on a shared
#: 2-core host it moved by more than any bound the contract allows.
REPORTED: List[Dict[str, str]] = [
    {"name": "job_latency_s.tail", "unit": "s", "better": "lower"},
    {"name": "failed_ratio", "unit": "ratio", "better": "lower"},
    {"name": "clean_asr", "unit": "ratio", "better": "lower"},
    {"name": "cta_drop", "unit": "ratio", "better": "lower"},
]

RUNNER_PHASES = [
    "load_dataset",
    "attack",
    "condense",
    "train_victim",
    "train_clean",
    "evaluate",
    "defense",
]

#: Per-layer metric -> span the traced run times (inclusive seconds per cell).
SPAN_SECONDS: Dict[str, str] = {
    "attack.selection.select_s": "attack.selection.select",
    "kernels.matmul_s": "kernels.matmul",
    "autograd.adam.step_s": "autograd.adam.step",
    "kernels.spmm_s": "kernels.spmm",
    "graph.cache.propagated_s": "graph.cache.propagated",
    "graph.cache.propagated_view_s": "graph.cache.propagated_view",
    "graph.blocked.spmm_s": "graph.blocked.spmm",
    "graph.blocked.precompute_hops_s": "graph.blocked.precompute_hops",
    "graph.blocked.gather_s": "graph.blocked.gather",
    "attack.trigger.loss_s": "attack.trigger.loss",
    "condensation.epoch_step_s": "condensation.epoch_step",
    "condensation.class_gradients_s": "condensation.class_gradients",
    "condensation.condense_s": "condensation.condense",
    "models.trainer.fit_s": "models.trainer.fit",
    "evaluation.evaluate_clean_s": "evaluation.evaluate_clean",
    "evaluation.evaluate_backdoor_s": "evaluation.evaluate_backdoor",
    "defenses.defend_s": "defenses.defend",
}

#: Per-layer metric -> tracer counter (per cell).
SPAN_COUNTS: Dict[str, str] = {
    "attack.selection.calls": "attack.selection.select.calls",
    "kernels.matmul.calls": "kernels.matmul.calls",
    "kernels.matmul.flops": "kernels.matmul.flops",
    "kernels.matmul.bytes": "kernels.matmul.bytes",
    "autograd.adam.steps": "autograd.adam.step.calls",
    "kernels.spmm.calls": "kernels.spmm.calls",
    "kernels.spmm.nnz_cols": "kernels.spmm.nnz_cols",
}

CACHE_STATS_KEYS = [
    "hits",
    "misses",
    "incremental_updates",
    "incremental_normalizations",
    "buffer_reuses",
    "contributors",
]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/cell"
    if name.endswith(".flops"):
        return "flop/cell"
    if name.endswith(".bytes"):
        return "B/cell"
    return "count/cell"


PER_LAYER: List[Dict[str, str]] = (
    [{"name": f"api.runner.{phase}_s", "unit": "s/cell", "better": "lower"} for phase in RUNNER_PHASES]
    + [{"name": "api.runner.phase_share", "unit": "ratio", "better": "higher"}]
    + [{"name": name, "unit": _unit(name), "better": "lower"} for name in SPAN_SECONDS]
    + [{"name": name, "unit": _unit(name), "better": "lower"} for name in SPAN_COUNTS]
    + [
        {"name": "graph.cache.hits", "unit": "count/cell", "better": "higher"},
        {"name": "graph.cache.misses", "unit": "count/cell", "better": "lower"},
        {"name": "graph.cache.incremental_updates", "unit": "count/cell", "better": "higher"},
        {"name": "graph.cache.hit_ratio", "unit": "ratio", "better": "higher"},
    ]
    + [
        {"name": f"service.pool.{key}", "unit": "count", "better": better}
        for key, better in [
            ("dispatched", "higher"),
            ("completed", "higher"),
            ("recycled", "lower"),
            ("crashes", "lower"),
            ("timeouts", "lower"),
            ("launched", "lower"),
        ]
    ]
    + [
        {"name": "service.store.hits", "unit": "count", "better": "higher"},
        {"name": "service.store.misses", "unit": "count", "better": "lower"},
        {"name": "service.store.puts", "unit": "count", "better": "higher"},
        {"name": "service.store.hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "service.store.get_s", "unit": "s/call", "better": "lower"},
        {"name": "service.store.put_s", "unit": "s/call", "better": "lower"},
        {"name": "service.store.replay_s", "unit": "s/call", "better": "lower"},
    ]
    + [{"name": "api.parallel.sweep_s", "unit": "s/job", "better": "lower"}]
    + [
        {"name": f"api.parallel.cache_stats.{key}", "unit": "count/job", "better": "higher" if key == "hits" else "lower"}
        for key in CACHE_STATS_KEYS
    ]
    + [
        {"name": "datasets.load_s", "unit": "s", "better": "lower"},
        {"name": "trace.spans", "unit": "count", "better": "lower"},
        {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
    ]
)

CELL_WORKLOADS = ["cora-cell", "citeseer-blocked"]
ALL_CELLS = ["cora-cell", "citeseer-blocked", "service-mixed", "sweep-process"]

#: Which end-to-end metric each group of per-layer metrics should move, on
#: which workload, and what is predicted on the others.
LAYER_MAP: List[Dict[str, Any]] = [
    {
        "layers": [f"api.runner.{phase}_s" for phase in RUNNER_PHASES],
        "moves": ["cell_s.p50"],
        "on": ALL_CELLS,
        "elsewhere": None,
    },
    {
        "layers": ["attack.selection.select_s", "attack.selection.calls"],
        "moves": ["cell_s.p50"],
        "on": CELL_WORKLOADS,
        "elsewhere": None,
    },
    {
        "layers": ["kernels.matmul_s", "kernels.matmul.calls", "kernels.matmul.flops", "kernels.matmul.bytes"],
        "moves": ["cell_s.p50"],
        "on": CELL_WORKLOADS,
        "elsewhere": None,
    },
    {
        "layers": ["autograd.adam.step_s", "autograd.adam.steps"],
        "moves": ["cell_s.p50"],
        "on": ["cora-cell"],
        "elsewhere": None,
    },
    {
        "layers": ["kernels.spmm_s", "kernels.spmm.calls", "kernels.spmm.nnz_cols"],
        "moves": ["cell_s.p50", "peak_rss_mib"],
        "on": ["citeseer-blocked"],
        "elsewhere": "no change on cora-cell",
    },
    {
        "layers": [
            "graph.cache.hits",
            "graph.cache.misses",
            "graph.cache.incremental_updates",
            "graph.cache.hit_ratio",
            "graph.cache.propagated_s",
            "graph.cache.propagated_view_s",
        ],
        "moves": ["cell_s.p50", "peak_rss_mib"],
        "on": ["citeseer-blocked"],
        "elsewhere": None,
    },
    {
        "layers": ["graph.blocked.spmm_s", "graph.blocked.precompute_hops_s", "graph.blocked.gather_s"],
        "moves": ["cell_s.p50", "peak_rss_mib"],
        "on": ["citeseer-blocked"],
        "elsewhere": "zero on cora-cell",
    },
    {
        "layers": [
            "attack.trigger.loss_s",
            "condensation.epoch_step_s",
            "condensation.class_gradients_s",
            "condensation.condense_s",
            "models.trainer.fit_s",
            "evaluation.evaluate_clean_s",
            "evaluation.evaluate_backdoor_s",
            "defenses.defend_s",
        ],
        "moves": ["cell_s.p50"],
        "on": CELL_WORKLOADS,
        "elsewhere": None,
    },
    {
        "layers": [entry["name"] for entry in PER_LAYER if entry["name"].startswith("service.")],
        "moves": ["cells_per_s", "job_latency_s.p50", "setup_s"],
        "on": ["service-mixed"],
        "elsewhere": None,
    },
    {
        "layers": [entry["name"] for entry in PER_LAYER if entry["name"].startswith("api.parallel.")],
        "moves": ["cells_per_s"],
        "on": ["sweep-process"],
        "elsewhere": None,
    },
    {
        "layers": ["datasets.load_s"],
        "moves": ["setup_s"],
        "on": [workload["name"] for workload in WORKLOADS],
        "elsewhere": None,
    },
]


def benchmark_json() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` contract, with exactly its required keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def layers_json() -> Dict[str, Any]:
    """Units, directions and the layer -> end-to-end map, for citing by name."""
    return {
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "reported": REPORTED,
        "per_layer": PER_LAYER,
        "layer_map": LAYER_MAP,
    }


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    outputs = {
        os.path.join(os.path.dirname(here), "BENCHMARK.json"): benchmark_json(),
        os.path.join(here, "layers.json"): layers_json(),
    }
    for path, payload in outputs.items():
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
