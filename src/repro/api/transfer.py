"""Declarative transferability sweeps: one surrogate, every victim.

A :class:`TransferSweepSpec` describes the paper's transfer experiments as
data: condense under a fixed surrogate (the base spec's condenser + attack),
then evaluate attack success across downstream architectures × defenses.
:meth:`TransferSweepSpec.to_sweep` expands it into an ordinary
:class:`~repro.api.spec.SweepSpec` with a ``seed`` × ``model`` × ``defense``
grid, so a transfer study inherits everything sweeps already have —
serial/process/pool execution, the result store, the stage memo and
bit-identical determinism — without any new execution machinery.  Every
cell of one seed shares that seed's attack and clean condensation, so the
matrix's columns differ only by the model or defense, not by seed noise.

``models=None`` / ``defenses=None`` mean "every registered component at
expansion time": registering a new model or defense automatically grows the
matrix.  The defense axis always includes the no-defense column (``None``)
unless an explicit ``defenses`` list omits it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from repro.api.spec import ExecutionSpec, ExperimentSpec, SweepSpec, _check_seed
from repro.exceptions import ConfigurationError
from repro.registry import DEFENSES, MODELS

__all__ = ["TransferSweepSpec"]


@dataclass(frozen=True)
class TransferSweepSpec:
    """A surrogate scenario plus the victim-model × defense matrix to span.

    ``base`` fixes the dataset, condenser, attack and trigger (the surrogate
    side); ``models`` and ``defenses`` are the matrix axes.  ``None`` for
    either axis resolves to every registered component when :meth:`to_sweep`
    is called; a ``None`` *entry* in ``defenses`` is the undefended column.
    ``seeds`` lists the cell seeds, one whole matrix each (``None`` means
    ``[seed]``); all cells of a seed share one attack and one clean leg.
    """

    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    models: List[str] | None = None
    defenses: List[Any] | None = None
    seed: int = 0
    name: str = "transfer"
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    seeds: List[int] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.base, ExperimentSpec):
            object.__setattr__(self, "base", ExperimentSpec.from_dict(self.base))
        object.__setattr__(self, "execution", ExecutionSpec.coerce(self.execution))
        for axis in ("models", "defenses"):
            values = getattr(self, axis)
            if values is None:
                continue
            if isinstance(values, (str, bytes)) or not isinstance(values, (list, tuple)):
                raise ConfigurationError(
                    f"{axis} must be null (= all registered) or a non-empty list, "
                    f"got {values!r}"
                )
            if not values:
                raise ConfigurationError(f"{axis} must not be empty")
            object.__setattr__(self, axis, list(values))
        _check_seed(self.seed)
        if self.seeds is not None:
            if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
                raise ConfigurationError(
                    f"seeds must be null (= [seed]) or a non-empty list, got {self.seeds!r}"
                )
            for value in self.seeds:
                _check_seed(value)
            object.__setattr__(self, "seeds", list(self.seeds))

    # -------------------------------------------------------------- #
    # Axis resolution
    # -------------------------------------------------------------- #
    def resolved_models(self) -> List[str]:
        """The model axis: explicit list or every registered architecture."""
        if self.models is None:
            return MODELS.available()
        for name in self.models:
            MODELS.canonical(name)  # fail fast with the registry's message
        return list(self.models)

    def resolved_defenses(self) -> List[Any]:
        """The defense axis: explicit list or no-defense + every registered one."""
        if self.defenses is None:
            return [None, *DEFENSES.available()]
        for value in self.defenses:
            if value is None:
                continue
            name = value if isinstance(value, str) else dict(value).get("name")
            if name is not None:
                DEFENSES.canonical(name)
        return list(self.defenses)

    def resolved_seeds(self) -> List[int]:
        """The seed axis: explicit ``seeds`` or ``[seed]``."""
        return [self.seed] if self.seeds is None else list(self.seeds)

    def to_sweep(self) -> SweepSpec:
        """Expand into the equivalent ``seed`` × ``model`` × ``defense``
        :class:`SweepSpec`; the explicit seed axis is outermost."""
        return SweepSpec(
            base=self.base,
            axes={
                "seed": self.resolved_seeds(),
                "model": self.resolved_models(),
                "defense": self.resolved_defenses(),
            },
            seed=self.seed,
            name=self.name,
            execution=self.execution,
        )

    # -------------------------------------------------------------- #
    # Serialization
    # -------------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """Exact, JSON-compatible representation (round-trips via from_dict)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "seeds": None if self.seeds is None else list(self.seeds),
            "base": self.base.to_dict(),
            "models": None if self.models is None else list(self.models),
            "defenses": None if self.defenses is None else list(self.defenses),
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TransferSweepSpec":
        keys = {"name", "seed", "seeds", "base", "models", "defenses", "execution"}
        unknown = set(payload) - keys
        if unknown:
            raise ConfigurationError(
                f"unknown TransferSweepSpec keys {sorted(unknown)}; expected "
                "'name', 'seed', 'seeds', 'base', 'models', 'defenses', 'execution'"
            )
        return cls(
            base=ExperimentSpec.from_dict(payload.get("base") or {}),
            models=payload.get("models"),
            defenses=payload.get("defenses"),
            seed=payload.get("seed", 0),
            name=payload.get("name", "transfer"),
            execution=ExecutionSpec.coerce(payload.get("execution")),
            seeds=payload.get("seeds"),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to a canonical (sorted-keys) JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TransferSweepSpec":
        """Parse a JSON string produced by :meth:`to_json` (or hand-written)."""
        return cls.from_dict(json.loads(text))
