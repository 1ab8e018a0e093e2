"""Every config field's domain: declared once, checked before the dataset loads.

The configs covered are every registered component's config (with its
nested ``TriggerConfig``/``SelectionConfig``), ``EvaluationConfig``,
``TrainingConfig`` and ``ExecutionSpec``.  Each numeric or enumerated field
declares its domain with :func:`repro.utils.validation.checked`; an
out-of-domain override makes ``run_experiment`` raise its family's error
(``AttackError``, ``ConfigurationError`` or ``DefenseError``), naming the
field, before ``_load_graph`` runs; and every value the repository ships in
``examples/`` and ``docs/`` lies inside its domain.
"""

from __future__ import annotations

import json
import math
import re
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import repro  # noqa: F401  (imports populate the registries)
from repro.api import ExperimentSpec, SweepSpec, TransferSweepSpec, run_experiment
from repro.api.spec import COMPONENT_FIELDS, ExecutionSpec
from repro.evaluation.pipeline import EvaluationConfig
from repro.exceptions import AttackError, ConfigurationError, DefenseError
from repro.models.trainer import TrainingConfig
from repro.registry import ATTACKS, CONDENSERS, DEFENSES, bind_config
from repro.utils.validation import DOMAIN, _AtLeast, _Choice, _Optional, _Real

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per spec component: its registry and its family's error type.
FAMILIES = {
    "condenser": (CONDENSERS, ConfigurationError),
    "attack": (ATTACKS, AttackError),
    "defense": (DEFENSES, DefenseError),
}

#: Fields that name a registry entry rather than take a declared domain.
REGISTRY_NAMES = {("EvaluationConfig", "architecture")}

#: Overrides a value needs beside it to pass the cross-field rules.
COMPANIONS = {("poison_ratio", None): {"poison_number": 1}}

BASE_CELL = {
    "dataset": "tiny",
    "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
    "trigger": {"overrides": {"trigger_size": 2}},
    "evaluation": {"overrides": {"epochs": 10}},
    "seed": 0,
}


def _builtin_roots():
    """``(component, name, config class, family error)`` per config class:
    the spec component that reaches it (``None`` if no spec does)."""
    roots, seen = [], set()
    for component, (registry, error) in FAMILIES.items():
        for name in registry.available():
            cls = registry.get(name).config_cls
            if cls is None or not cls.__module__.startswith("repro.") or cls in seen:
                continue
            seen.add(cls)
            roots.append((component, name, cls, error))
    roots.append(("evaluation", None, EvaluationConfig, ConfigurationError))
    roots.append((None, None, TrainingConfig, ConfigurationError))
    roots.append((None, None, ExecutionSpec, ConfigurationError))
    return roots


def _walk(cls, prefix=""):
    """``(path, owner class, field, kind)`` for every numeric, enumerated or
    nested-config field of ``cls``; ``kind`` is ``"int"``, ``"float"`` or
    ``"str"``."""
    hints = typing.get_type_hints(cls)
    defaults = cls()
    for f in fields(cls):
        value = getattr(defaults, f.name)
        if is_dataclass(value):
            yield from _walk(type(value), f"{prefix}{f.name}.")
            continue
        kinds = set(typing.get_args(hints[f.name])) or {hints[f.name]}
        if bool in kinds:
            continue
        for kind in (int, float, str):
            if kind in kinds:
                yield f"{prefix}{f.name}", cls, f, kind.__name__
                break


PATHS = [
    (component, name, root, error, path, owner, f, kind)
    for component, name, root, error in _builtin_roots()
    for path, owner, f, kind in _walk(root)
    if (owner.__name__, f.name) not in REGISTRY_NAMES
]


def _id(case):
    return f"{case[2].__name__}.{case[4]}"


def _boundaries(domain):
    """In-domain values at the domain's edges."""
    if isinstance(domain, _Optional):
        return [None, *_boundaries(domain.domain)]
    if isinstance(domain, _AtLeast):
        return [domain.minimum]
    if isinstance(domain, _Choice):
        return list(domain.options)
    assert isinstance(domain, _Real), domain
    edges = []
    if math.isfinite(domain.low):
        edges.append(np.nextafter(domain.low, math.inf) if domain.low_open else domain.low)
    if math.isfinite(domain.high):
        edges.append(np.nextafter(domain.high, -math.inf) if domain.high_open else domain.high)
    return [float(edge) for edge in edges] or [0.0]


def _bind(component, root, path, value):
    """Bind ``{path: value}`` the way its config is built in a cell."""
    overrides = {path: value, **COMPANIONS.get((path, value), {})}
    if component is None:
        return root(**overrides)
    return bind_config(root, overrides)


@pytest.fixture
def no_load(monkeypatch):
    def refuse(spec):
        raise AssertionError("the dataset loaded before the configs were checked")

    monkeypatch.setattr("repro.api.runner._load_graph", refuse)


def _cell(component, name, path, value) -> ExperimentSpec:
    payload = json.loads(json.dumps(BASE_CELL))
    overrides = {path: value, **COMPANIONS.get((path, value), {})}
    if component == "condenser":
        payload["condenser"] = {"name": name, "overrides": overrides}
    elif component == "evaluation":
        payload["evaluation"]["overrides"].update(overrides)
    else:
        payload[component] = {"name": name, "overrides": overrides}
    return ExperimentSpec.from_dict(payload)


def test_walk_covers_every_config():
    """13 registered config classes, their two nested ones, the evaluation
    and training configs and ``ExecutionSpec``."""
    owners = {case[5].__name__ for case in PATHS}
    assert len(owners) == 18 and {"TriggerConfig", "SelectionConfig"} <= owners
    assert sum(case[2] is not ExecutionSpec and case[7] != "str" for case in PATHS) >= 113


@pytest.mark.parametrize("case", PATHS, ids=_id)
def test_every_numeric_and_enumerated_field_declares_a_domain(case):
    *_, path, owner, f, kind = case
    assert DOMAIN in f.metadata, f"{owner.__name__}.{f.name} declares no domain"


@pytest.mark.parametrize("case", PATHS, ids=_id)
def test_out_of_domain_values_fail_before_the_load(case, no_load):
    component, name, root, error, path, owner, f, kind = case
    domain = f.metadata[DOMAIN]
    if kind == "str":
        probes = ["bogus", 1, None]
    else:
        probes = [-1, 0, math.nan, math.inf, -math.inf] + ([2.5, True] if kind == "int" else [])
    rejected = [value for value in probes if domain.reason(value) is not None]
    if kind != "str":
        # No numeric field accepts a negative or a non-finite value, and no
        # integer field a fraction or a bool.
        assert {-1, math.inf, -math.inf} <= set(rejected), rejected
        assert any(isinstance(v, float) and math.isnan(v) for v in rejected)
        if kind == "int":
            assert 2.5 in rejected and any(v is True for v in rejected)
    for value in rejected:
        qualified = f"{owner.__name__}.{f.name}"
        with pytest.raises(error, match=re.escape(qualified)) as excinfo:
            if component is None:
                _bind(component, root, path, value)
            else:
                run_experiment(_cell(component, name, path, value))
        assert type(excinfo.value) is error, (value, excinfo.value)


@pytest.mark.parametrize("case", PATHS, ids=_id)
def test_in_domain_boundaries_bind(case):
    component, name, root, error, path, owner, f, kind = case
    for value in _boundaries(f.metadata[DOMAIN]):
        bound = _bind(component, root, path, value)
        leaf = bound
        for part in path.split("."):
            leaf = getattr(leaf, part)
        # Bound as given: a domain accepts or rejects, never converts.
        assert leaf is value or (leaf == value and type(leaf) is type(value)), (path, value)


def test_execution_blocked_threshold_shares_the_knob_domain():
    from repro.graph.blocked import BLOCKED_THRESHOLD

    declared = {f.name: f.metadata[DOMAIN] for f in fields(ExecutionSpec)}
    assert declared["blocked_threshold"].domain is BLOCKED_THRESHOLD.check


@pytest.mark.parametrize(
    "component, key, value, error",
    [
        ("attack", "selection.degree_balance", math.nan, AttackError),
        ("condenser", "feature_init_noise", math.nan, ConfigurationError),
        ("condenser", "epochs", math.inf, ConfigurationError),
        ("evaluation", "epochs", math.nan, ConfigurationError),
        ("attack", "max_neighbors", -1, AttackError),
        ("attack", "target_class", -1, AttackError),
    ],
)
def test_overrides_that_used_to_pass_or_fail_late_fail_before_the_load(
    component, key, value, error, no_load
):
    """Each used to finish ok or raise inside a stage after the load: a NaN
    degree balance scored; a NaN noise raised an
    ``AutogradError`` about a learning rate; an infinite or NaN epoch count a
    ``TypeError``; a negative neighbour cap numpy's ``ValueError``; a negative
    target class a ``GraphValidationError``."""
    payload = {
        **BASE_CELL,
        "attack": {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
        "defense": "prune",
    }
    payload = json.loads(json.dumps(payload))
    payload[component]["overrides"][key] = value
    with pytest.raises(error, match=re.escape(key.rpartition(".")[2])):
        run_experiment(ExperimentSpec.from_dict(payload))


@pytest.mark.parametrize(
    "attack, overrides, qualified",
    [
        ("naive", {"target_class": 99}, "NaivePoisonConfig.target_class"),
        ("prbcd", {"target_class": 99}, "SampledEdgeConfig.target_class"),
        ("bgc", {"target_class": 99}, "BGCConfig.target_class"),
        ("bgc", {"target_class": 3}, "BGCConfig.target_class"),
        ("bgc", {"directed": True, "source_class": 99}, "BGCConfig.source_class"),
        ("injection", {"target_class": 99}, "InjectionConfig.target_class"),
        ("gta", {"target_class": 99}, "GTAConfig.target_class"),
        ("doorping", {"target_class": 99}, "DoorpingConfig.target_class"),
    ],
)
def test_class_index_the_dataset_lacks_fails_before_the_load(
    attack, overrides, qualified, no_load
):
    """tiny has 3 classes (0-2).  Class 99 used to be caught late or not at all:
    ``naive`` finished ok and was scored, ``prbcd`` failed in autograd, a
    directed ``bgc`` found an empty candidate pool, and ``bgc`` and
    ``injection`` failed in a stage after the load."""
    payload = json.loads(json.dumps(BASE_CELL))
    payload["attack"] = {"name": attack, "overrides": overrides}
    with pytest.raises(AttackError, match=re.escape(f"{qualified} must be < 3")):
        run_experiment(ExperimentSpec.from_dict(payload))


def test_the_dataset_top_class_reaches_the_load(no_load):
    payload = json.loads(json.dumps(BASE_CELL))
    overrides = {"directed": True, "source_class": 2, "target_class": 2}
    payload["attack"] = {"name": "bgc", "overrides": overrides}
    with pytest.raises(AssertionError, match="the dataset loaded"):
        run_experiment(ExperimentSpec.from_dict(payload))


@pytest.mark.parametrize("key", ["sntk_ridge", "sntk_hops"])
def test_removed_sntk_evaluation_fields_are_unknown_overrides(key, no_load):
    """The SNTK predictor takes its ridge and hop count from the condensed
    graph's metadata, so the evaluation fields that once named them are
    gone: a spec that still sets one fails before the load instead of
    splitting the result store's keys for an identical record."""
    payload = json.loads(json.dumps(BASE_CELL))
    payload["condenser"]["name"] = "gc-sntk"
    payload["evaluation"]["overrides"][key] = 1
    with pytest.raises(ConfigurationError, match=f"unknown EvaluationConfig field '{key}'"):
        run_experiment(ExperimentSpec.from_dict(payload))


# --------------------------------------------------------------------- #
# Shipped values stay inside their domains
# --------------------------------------------------------------------- #
_FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)


def _shipped_payloads():
    """``(source, payload)`` for every example spec and every spec-shaped
    JSON block in ``docs/``."""
    payloads = [
        (path.name, json.loads(path.read_text(encoding="utf-8")))
        for path in sorted((REPO_ROOT / "examples").glob("*.json"))
    ]
    for page in sorted((REPO_ROOT / "docs").glob("*.md")):
        for language, body in _FENCE.findall(page.read_text(encoding="utf-8")):
            if language == "json" and isinstance(json.loads(body), dict):
                payloads.append((page.name, json.loads(body)))
    return payloads


def _cells(payload):
    """The concrete cells of a spec-shaped payload (``None`` if not one)."""
    if "models" in payload or "defenses" in payload:
        return TransferSweepSpec.from_dict(payload).to_sweep().expand()
    if "axes" in payload:
        return SweepSpec.from_dict(payload).expand()
    if payload and set(payload) <= set(COMPONENT_FIELDS) | {"seed"}:
        return [ExperimentSpec.from_dict(payload)]
    if payload and set(payload) <= {f.name for f in fields(ExecutionSpec)}:
        ExecutionSpec.coerce(payload)
        return []
    return None


def test_every_shipped_spec_binds(monkeypatch):
    class Bound(Exception):
        pass

    def stop(spec):
        raise Bound

    monkeypatch.setattr("repro.api.runner._load_graph", stop)
    bound = 0
    for source, payload in _shipped_payloads():
        cells = _cells(payload)
        if cells is None:
            continue
        for spec in cells:
            with pytest.raises(Bound):
                run_experiment(spec)
            bound += 1
    assert bound >= 10
