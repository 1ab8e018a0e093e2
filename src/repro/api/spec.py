"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the serializable description of one scenario
cell: which dataset, condenser, attack, defense, downstream model and
evaluation protocol to compose, each expressed as a registry name plus an
overrides mapping.  A :class:`SweepSpec` is a base spec plus cartesian axes
that expand into a grid of concrete specs — the shape of every table in the
paper.  Specs round-trip exactly through ``to_dict``/``from_dict`` and JSON:

>>> spec = ExperimentSpec.from_dict({"dataset": "cora", "condenser": "gcond"})
>>> ExperimentSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graph.blocked import BLOCKED_THRESHOLD
from repro.utils.validation import at_least, check_fields, checked, choice, optional, real

#: ExperimentSpec fields that hold a (name, overrides) component reference,
#: in canonical serialization order.
COMPONENT_FIELDS = (
    "dataset",
    "model",
    "condenser",
    "attack",
    "defense",
    "trigger",
    "evaluation",
)


def _check_seed(seed: Any) -> None:
    """Seeds must be non-negative ints (``SeedSequence`` rejects negatives)."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class ComponentSpec:
    """A reference to one registered component: its name plus overrides.

    ``name=None`` means "component absent" (no attack / no defense).  The
    ``overrides`` mapping is applied through
    :func:`repro.registry.bind_config`, so keys may be dot-paths into nested
    config dataclasses (``"trigger.trigger_size"``).
    """

    name: str | None = None
    overrides: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name is not None and not isinstance(self.name, str):
            raise ConfigurationError(f"component name must be a string, got {self.name!r}")
        if not isinstance(self.overrides, dict):
            raise ConfigurationError(
                f"component overrides must be a mapping, got {type(self.overrides).__name__}"
            )

    @classmethod
    def coerce(cls, value: Any, *, context: str = "component") -> "ComponentSpec":
        """Build a :class:`ComponentSpec` from the accepted shorthands.

        ``None`` → absent, ``"gcond"`` → name only, ``{"name": ..,
        "overrides": {..}}`` → full form, and an existing instance passes
        through unchanged.
        """
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"name", "overrides"}
            if unknown:
                raise ConfigurationError(
                    f"unknown {context} keys {sorted(unknown)}; expected 'name'/'overrides'"
                )
            return cls(
                name=value.get("name"),
                overrides=dict(value.get("overrides") or {}),
            )
        raise ConfigurationError(
            f"cannot interpret {value!r} as a {context} spec (need None, str or mapping)"
        )

    @property
    def is_set(self) -> bool:
        """Whether this component names anything (``None`` means absent)."""
        return self.name is not None

    def with_name(self, name: str | None) -> "ComponentSpec":
        """Copy of this spec with the component name replaced, overrides kept."""
        return ComponentSpec(name=name, overrides=dict(self.overrides))

    def with_override(self, key: str, value: Any) -> "ComponentSpec":
        """Copy of this spec with one override key set (dot-paths allowed)."""
        merged = dict(self.overrides)
        merged[key] = value
        return ComponentSpec(name=self.name, overrides=merged)

    def to_dict(self) -> Dict[str, Any]:
        """The full serialized form ``{"name": ..., "overrides": {...}}``."""
        return {"name": self.name, "overrides": dict(self.overrides)}


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully described experiment cell (a scenario as data, not code).

    Components resolve against the registries in :mod:`repro.registry`:
    ``dataset`` → ``DATASETS``, ``model`` → ``MODELS``, ``condenser`` →
    ``CONDENSERS``, ``attack`` → ``ATTACKS`` (absent = clean condensation
    only), ``defense`` → ``DEFENSES`` (absent = no defense).  ``trigger``
    configures the attack's trigger generator (its name selects the encoder:
    ``"mlp"``, ``"gcn"`` or ``"transformer"``); ``evaluation`` configures the
    downstream training protocol.  ``seed`` drives every random stream of the
    cell through :func:`repro.utils.seed.spawn_rngs`.
    """

    dataset: ComponentSpec = field(default_factory=lambda: ComponentSpec("cora"))
    model: ComponentSpec = field(default_factory=lambda: ComponentSpec("gcn"))
    condenser: ComponentSpec = field(default_factory=lambda: ComponentSpec("gcond"))
    attack: ComponentSpec = field(default_factory=ComponentSpec)
    defense: ComponentSpec = field(default_factory=ComponentSpec)
    trigger: ComponentSpec = field(default_factory=ComponentSpec)
    evaluation: ComponentSpec = field(default_factory=ComponentSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in COMPONENT_FIELDS:
            object.__setattr__(
                self, name, ComponentSpec.coerce(getattr(self, name), context=name)
            )
        _check_seed(self.seed)

    def validate_runnable(self) -> None:
        """Check that every required component names something.

        Deferred out of ``__post_init__`` because sweep base specs may leave
        e.g. the condenser name to an axis; :func:`repro.api.runner.run_experiment`
        calls this before resolving components.
        """
        for required in ("dataset", "model", "condenser"):
            if not getattr(self, required).is_set:
                raise ConfigurationError(f"ExperimentSpec.{required} must name a component")

    # -------------------------------------------------------------- #
    # Serialization
    # -------------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """Exact, JSON-compatible representation (round-trips via from_dict)."""
        payload: Dict[str, Any] = {
            name: getattr(self, name).to_dict() for name in COMPONENT_FIELDS
        }
        payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Parse a mapping; component values accept the shorthands of
        :meth:`ComponentSpec.coerce`."""
        unknown = set(payload) - set(COMPONENT_FIELDS) - {"seed"}
        if unknown:
            raise ConfigurationError(
                f"unknown ExperimentSpec keys {sorted(unknown)}; "
                f"expected {sorted(COMPONENT_FIELDS)} and 'seed'"
            )
        kwargs: Dict[str, Any] = {
            name: ComponentSpec.coerce(payload[name], context=name)
            for name in COMPONENT_FIELDS
            if name in payload
        }
        if "seed" in payload:
            kwargs["seed"] = payload["seed"]
        return cls(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a canonical (sorted-keys) JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a JSON string produced by :meth:`to_json` (or hand-written)."""
        return cls.from_dict(json.loads(text))

    def cache_key(self) -> str:
        """Content-address of this cell: sha256 over the canonical JSON form.

        The hash is taken over the exact round-trip representation
        (:meth:`to_dict` with sorted keys and compact separators), which
        already folds the shorthand spellings together — ``"gcond"`` and
        ``{"name": "gcond", "overrides": {}}`` hash identically — and
        includes the seed, so two specs share a key exactly when
        :func:`~repro.api.runner.run_experiment` would produce bit-identical
        records for them.  This is the key under which the
        :class:`~repro.service.store.ResultStore` memoises completed cells.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -------------------------------------------------------------- #
    # Derivation
    # -------------------------------------------------------------- #
    def with_axis_value(self, axis: str, value: Any) -> "ExperimentSpec":
        """Return a copy with one sweep-axis assignment applied.

        ``axis`` is either ``"seed"``, a component field name (value names the
        component, or is a mapping/ComponentSpec replacing it wholesale), or a
        dot-path ``"<component>.<override...>"`` whose tail becomes an
        override key on that component (nested dots reach nested configs,
        e.g. ``"attack.trigger.trigger_size"``).
        """
        if axis == "seed":
            _check_seed(value)
            return replace(self, seed=value)
        head, _, rest = axis.partition(".")
        if head not in COMPONENT_FIELDS:
            raise ConfigurationError(
                f"unknown sweep axis {axis!r}; axes start with 'seed' or one of "
                f"{sorted(COMPONENT_FIELDS)}"
            )
        component: ComponentSpec = getattr(self, head)
        if rest:
            updated = component.with_override(rest, value)
        elif isinstance(value, str):
            updated = component.with_name(value)
        else:
            updated = ComponentSpec.coerce(value, context=head)
        return replace(self, **{head: updated})


#: Execution backends accepted by :class:`ExecutionSpec`.
EXECUTION_BACKENDS = ("serial", "process", "pool")
#: Failure policies accepted by :class:`ExecutionSpec`.
ON_ERROR_MODES = ("raise", "record")


@dataclass(frozen=True)
class ExecutionSpec:
    """How a sweep executes — *not* what it computes.

    Execution settings never change any cell's result: per-cell seeds are
    fixed at expansion time and records merge by canonical grid index, so a
    sweep is bit-identical under the ``serial`` and ``pool`` backends for
    any worker count.  The fields:

    ``backend``
        ``"serial"`` runs cells in the calling process (the default);
        ``"pool"`` dispatches them onto ``workers`` long-lived worker
        processes (see :class:`~repro.service.pool.WorkerPool`) that read
        each dataset from the memo the parent loaded it into, with per-cell
        fault isolation and bit-identical results.  ``"process"``
        is another spelling of ``"pool"``: it runs the same executor and
        round-trips through JSON unchanged.
    ``workers``
        Number of worker processes (ignored by the serial backend).
    ``timeout``
        Per-cell wall-clock budget in seconds (``None`` = unlimited).
        Enforced by the pool, which terminates the worker and respawns it;
        the serial backend cannot preempt a running cell and ignores it.
        The clock starts when the cell is dispatched to a worker, so the
        budget covers the cell alone, not worker startup or time spent
        queued behind other cells.
    ``on_error``
        ``"raise"`` (default) propagates the first cell failure —
        the original exception for the serial backend, a
        :class:`~repro.exceptions.SweepExecutionError` for the pool
        backend, which terminates the cells still in flight.  ``"record"`` turns a failed cell into a structured failed
        :class:`~repro.api.runner.RunRecord` (error type, message,
        traceback, timing) and keeps the sweep running.
    ``blocked_threshold``
        Element-count threshold (``num_nodes * num_features``) above which
        the :class:`~repro.graph.cache.PropagationCache` streams hop chains
        through the blocked out-of-core engine
        (:mod:`repro.graph.blocked`) instead of holding dense arrays.
        ``None`` (default) keeps the process-wide setting (the
        ``REPRO_BLOCKED_THRESHOLD`` environment variable or the built-in
        default); ``0`` forces every chain through the blocked engine.
        Like every execution field it never changes a cell's floats below
        round-off — the blocked engine is exact per row block — and the
        sweep remains bit-identical across backends.
    """

    backend: str = checked("serial", choice(*EXECUTION_BACKENDS))
    workers: int = checked(1, at_least(1))
    timeout: float | None = checked(None, optional(real(above=0)))
    on_error: str = checked("raise", choice(*ON_ERROR_MODES))
    blocked_threshold: int | None = checked(None, optional(BLOCKED_THRESHOLD.check))

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)
        if self.timeout is not None:
            object.__setattr__(self, "timeout", float(self.timeout))

    @classmethod
    def coerce(cls, value: Any) -> "ExecutionSpec":
        """Build an :class:`ExecutionSpec` from the accepted shorthands.

        ``None`` → defaults, a mapping → the full form (unknown keys
        rejected), and an existing instance passes through unchanged.
        """
        if isinstance(value, cls):
            return value
        if value is None:
            return cls()
        if isinstance(value, Mapping):
            unknown = set(value) - {
                "backend",
                "workers",
                "timeout",
                "on_error",
                "blocked_threshold",
            }
            if unknown:
                raise ConfigurationError(
                    f"unknown execution keys {sorted(unknown)}; expected "
                    "'backend'/'workers'/'timeout'/'on_error'/'blocked_threshold'"
                )
            return cls(
                backend=value.get("backend", "serial"),
                workers=value.get("workers", 1),
                timeout=value.get("timeout"),
                on_error=value.get("on_error", "raise"),
                blocked_threshold=value.get("blocked_threshold"),
            )
        raise ConfigurationError(
            f"cannot interpret {value!r} as an execution spec (need None or mapping)"
        )

    def to_dict(self) -> Dict[str, Any]:
        """Exact, JSON-compatible representation (round-trips via coerce)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "timeout": self.timeout,
            "on_error": self.on_error,
            "blocked_threshold": self.blocked_threshold,
        }


def derive_cell_seed(sweep_seed: int, cell_index: int) -> int:
    """Deterministic per-cell seed, independent of execution order.

    Derived via :class:`numpy.random.SeedSequence` spawn keys from the sweep
    seed and the cell's position in the *canonical* grid, so a cell's seed
    (and therefore its entire result) does not depend on which cells ran
    before it.
    """
    sequence = np.random.SeedSequence(entropy=sweep_seed, spawn_key=(cell_index,))
    return int(sequence.generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass(frozen=True)
class SweepSpec:
    """A base :class:`ExperimentSpec` plus cartesian sweep axes.

    ``axes`` maps axis names (see :meth:`ExperimentSpec.with_axis_value`) to
    value lists; :meth:`expand` emits one concrete spec per element of the
    cartesian product, in the insertion order of ``axes`` (last axis varies
    fastest).  Unless a ``"seed"`` axis is given explicitly, each cell's seed
    is derived from ``seed`` and the cell index via :func:`derive_cell_seed`.
    ``execution`` (an :class:`ExecutionSpec`) says *how* the grid runs —
    serial or process-parallel — and never changes what any cell computes.
    """

    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    seed: int = 0
    name: str = "sweep"
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.base, ExperimentSpec):
            object.__setattr__(self, "base", ExperimentSpec.from_dict(self.base))
        object.__setattr__(self, "execution", ExecutionSpec.coerce(self.execution))
        if not isinstance(self.axes, dict):
            raise ConfigurationError("axes must be a mapping of axis name -> value list")
        normalized = {}
        for axis, values in self.axes.items():
            # Reject strings explicitly: list("gcond") would silently explode
            # a scalar into per-character cells.
            if isinstance(values, (str, bytes)) or not isinstance(values, (list, tuple)):
                raise ConfigurationError(
                    f"axis {axis!r} must map to a non-empty list, got {values!r}"
                )
            if not values:
                raise ConfigurationError(
                    f"axis {axis!r} must map to a non-empty list, got {values!r}"
                )
            normalized[axis] = list(values)
        object.__setattr__(self, "axes", normalized)
        _check_seed(self.seed)

    @property
    def num_cells(self) -> int:
        """Number of cells the cartesian product expands to."""
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def expand(self) -> List[ExperimentSpec]:
        """The canonical grid: one concrete spec per cartesian cell."""
        axis_names = list(self.axes)
        cells: List[ExperimentSpec] = []
        for index, combo in enumerate(
            itertools.product(*(self.axes[name] for name in axis_names))
        ):
            spec = self.base
            for axis, value in zip(axis_names, combo):
                spec = spec.with_axis_value(axis, value)
            if "seed" not in self.axes:
                spec = replace(spec, seed=derive_cell_seed(self.seed, index))
            cells.append(spec)
        return cells

    # -------------------------------------------------------------- #
    # Serialization
    # -------------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """Exact, JSON-compatible representation (round-trips via from_dict)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "base": self.base.to_dict(),
            "axes": {axis: list(values) for axis, values in self.axes.items()},
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        unknown = set(payload) - {"name", "seed", "base", "axes", "execution"}
        if unknown:
            raise ConfigurationError(
                f"unknown SweepSpec keys {sorted(unknown)}; "
                "expected 'name', 'seed', 'base', 'axes', 'execution'"
            )
        return cls(
            base=ExperimentSpec.from_dict(payload.get("base") or {}),
            axes=dict(payload.get("axes") or {}),
            seed=payload.get("seed", 0),
            name=payload.get("name", "sweep"),
            execution=ExecutionSpec.coerce(payload.get("execution")),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a canonical (sorted-keys) JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a JSON string produced by :meth:`to_json` (or hand-written)."""
        return cls.from_dict(json.loads(text))
