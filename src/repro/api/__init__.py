"""Declarative experiment API: specs in, structured records out.

This package turns a scenario into *data*: an
:class:`~repro.api.spec.ExperimentSpec` names one component per registry
(:mod:`repro.registry`) plus overrides, :func:`~repro.api.runner.run_experiment`
executes it, and :class:`~repro.api.spec.SweepSpec` /
:func:`~repro.api.runner.run_sweep` expand and execute whole grids — every
condenser × dataset × poison-ratio cell of the paper's Table II is one sweep.

Spec schema (JSON)
------------------
Every component is either a bare name string, ``null`` (absent, allowed for
``attack``/``defense``/``trigger``/``evaluation``), or the full form
``{"name": <registry-name>, "overrides": {<field>: <value>, ...}}``.
Override keys bind onto the component's config dataclass and may use
dot-paths for nested configs (``"trigger.trigger_size"``)::

    {
      "dataset":    {"name": "cora", "overrides": {"seed": 0}},
      "model":      "gcn",
      "condenser":  {"name": "gcond", "overrides": {"epochs": 30, "ratio": 0.026}},
      "attack":     {"name": "bgc", "overrides": {"poison_ratio": 0.1}},
      "defense":    "prune",
      "trigger":    {"name": "mlp", "overrides": {"trigger_size": 4}},
      "evaluation": {"overrides": {"epochs": 150}},
      "seed": 0
    }

Component fields resolve against the registries: ``dataset`` → ``DATASETS``
(overrides: only ``seed``), ``model`` → ``MODELS`` (overrides merge into the
evaluation config: ``hidden``, ``num_layers``, ``dropout``), ``condenser`` →
``CONDENSERS`` (:class:`~repro.condensation.base.CondensationConfig` fields),
``attack`` → ``ATTACKS`` (the attack's own config fields), ``defense`` →
``DEFENSES``, ``trigger`` (name selects the encoder; overrides are
:class:`~repro.attack.trigger.TriggerConfig` fields) and ``evaluation``
(:class:`~repro.evaluation.pipeline.EvaluationConfig` fields).

A sweep file wraps a base spec with cartesian ``axes``::

    {
      "name": "smoke",
      "seed": 0,
      "base": {"dataset": "tiny", "condenser": {"overrides": {"epochs": 2}}},
      "axes": {
        "condenser": ["gcond", "gc-sntk"],
        "attack": ["bgc", "naive"],
        "defense": ["prune"],
        "attack.poison_ratio": [0.05, 0.1]
      }
    }

Axis keys are ``"seed"``, a component field (values name components), or a
dot-path whose tail becomes an override on that component.  Expansion is the
cartesian product in axis insertion order; each cell receives a deterministic
seed derived from the sweep seed and its grid index, so results are
independent of execution order.

An optional ``execution`` block says *how* the grid runs — never what it
computes (results are bit-identical across backends and worker counts)::

    "execution": {"backend": "process", "workers": 4,
                  "timeout": null, "on_error": "record"}

``backend: "process"`` (another spelling of ``"pool"``) fans cells out over a
pool of worker processes that inherit or receive each loaded dataset
once; ``on_error: "record"``
turns a crashing or timed-out cell into a structured failed
:class:`~repro.api.runner.RunRecord` instead of aborting the sweep.

Quickstart
----------
>>> from repro.api import ExperimentSpec, run_experiment
>>> spec = ExperimentSpec.from_dict(
...     {"dataset": "tiny", "condenser": {"name": "gcond", "overrides": {"epochs": 2}},
...      "attack": "bgc", "evaluation": {"overrides": {"epochs": 10}}}
... )
>>> record = run_experiment(spec)   # doctest: +SKIP
>>> record.attack_asr               # doctest: +SKIP
"""

from repro.api.spec import (
    COMPONENT_FIELDS,
    ComponentSpec,
    ExecutionSpec,
    ExperimentSpec,
    SweepSpec,
    derive_cell_seed,
)
from repro.api.transfer import TransferSweepSpec
from repro.api.runner import RunRecord, SweepRecord, run_experiment, run_sweep

__all__ = [
    "COMPONENT_FIELDS",
    "ComponentSpec",
    "ExecutionSpec",
    "ExperimentSpec",
    "SweepSpec",
    "TransferSweepSpec",
    "derive_cell_seed",
    "RunRecord",
    "SweepRecord",
    "run_experiment",
    "run_sweep",
]
