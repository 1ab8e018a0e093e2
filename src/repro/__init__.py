"""Reproduction of "Backdoor Graph Condensation" (BGC, ICDE 2025).

The public API re-exports the main building blocks:

* datasets   — synthetic stand-ins for Cora / Citeseer / Flickr / Reddit,
* models     — GCN / SGC / GraphSAGE / MLP / APPNP / ChebyNet on a numpy
               autograd engine,
* condensation — DC-Graph, GCond, GCond-X and GC-SNTK condensers,
* attack     — the BGC attack, its ablations and baseline attacks,
* defenses   — Prune, Randsmooth and backdoor detectors,
* evaluation — CTA / ASR metrics and the train-on-condensed pipeline,
* registry   — the string-keyed component registries (DATASETS, MODELS,
               CONDENSERS, ATTACKS, DEFENSES) every name resolves through,
* api        — declarative ExperimentSpec / SweepSpec grids over
               attack × condenser × defense, executed by run_experiment /
               run_sweep.

Quickstart
----------
>>> from repro import load_dataset, make_condenser, BGC, BGCConfig
>>> from repro.utils import new_rng
>>> graph = load_dataset("cora", seed=0)
>>> condenser = make_condenser("gcond")
>>> result = BGC(BGCConfig(epochs=10)).run(graph, condenser, new_rng(0))

Or declaratively (a scenario as data, not code):

>>> from repro import ExperimentSpec, run_experiment
>>> spec = ExperimentSpec.from_dict({"dataset": "cora", "condenser": "gcond",
...                                  "attack": "bgc"})
>>> record = run_experiment(spec)   # doctest: +SKIP
"""

from repro.registry import (
    ATTACKS,
    CONDENSERS,
    DATASETS,
    DEFENSES,
    MODELS,
    Registry,
    all_registries,
)
from repro.datasets import load_dataset, list_datasets
from repro.condensation import (
    CondensationConfig,
    CondensedGraph,
    make_condenser,
    available_condensers,
)
from repro.models import make_model, available_architectures, Trainer, TrainingConfig
from repro.attack import BGC, BGCConfig, BGCResult, TriggerConfig, SelectionConfig
from repro.defenses import (
    PruneDefense,
    PruneConfig,
    RandSmoothDefense,
    RandSmoothConfig,
)
from repro.evaluation import (
    EvaluationConfig,
    attack_success_rate,
    clean_test_accuracy,
)
from repro.api import (
    ComponentSpec,
    ExperimentSpec,
    RunRecord,
    SweepSpec,
    run_experiment,
    run_sweep,
)
from repro.exceptions import ReproError

__version__ = "1.1.0"

__all__ = [
    "Registry",
    "all_registries",
    "DATASETS",
    "MODELS",
    "CONDENSERS",
    "ATTACKS",
    "DEFENSES",
    "load_dataset",
    "list_datasets",
    "CondensationConfig",
    "CondensedGraph",
    "make_condenser",
    "available_condensers",
    "make_model",
    "available_architectures",
    "Trainer",
    "TrainingConfig",
    "BGC",
    "BGCConfig",
    "BGCResult",
    "TriggerConfig",
    "SelectionConfig",
    "PruneDefense",
    "PruneConfig",
    "RandSmoothDefense",
    "RandSmoothConfig",
    "EvaluationConfig",
    "attack_success_rate",
    "clean_test_accuracy",
    "ComponentSpec",
    "ExperimentSpec",
    "SweepSpec",
    "RunRecord",
    "run_experiment",
    "run_sweep",
    "ReproError",
    "__version__",
]
