"""The domain of every config field and knob: declared once, checked in one place.

A config dataclass declares each numeric or enumerated field's domain in
the field itself, with :func:`checked`, and its ``__post_init__`` calls
:func:`check_fields` with its family's error type::

    @dataclass
    class TriggerConfig:
        trigger_size: int = checked(4, at_least(1))
        encoder: str = checked("mlp", choice("mlp", "gcn", "transformer"))

        def __post_init__(self) -> None:
            check_fields(self, AttackError)

Direct construction, :func:`~repro.registry.bind_config` and nested
dot-path overrides all construct the dataclass, so they all pass this one
check, and a bad override fails before the dataset loads; ``__post_init__``
keeps only the rules that relate two fields.  The vocabulary:

* :func:`at_least` — an integer (``bool`` excluded) ``>= minimum``;
  :data:`CLASS_INDEX` is ``at_least(0)``: the upper bound of a class label,
  the dataset's class count, is checked where the dataset is known;
* :func:`real` — a finite real (``bool``, NaN and ±inf excluded) within
  optional open or closed bounds;
* :func:`choice` — one of a fixed set of values;
* :func:`optional` — ``None`` or a value of another domain.

A domain never converts a value: it accepts it as given or rejects it.
Called on a value, a domain returns it unchanged or raises ``ValueError``
with a phrase completing the value's name (``"must be >= 1, got 0"``).
That is the check contract of :class:`repro.utils.knobs.Knob`, so a knob
and a config field share one domain: ``REPRO_BLOCKED_THRESHOLD`` checks
with ``at_least(0)`` and ``ExecutionSpec.blocked_threshold`` is that
knob's check, made optional.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import field, fields
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "CLASS_INDEX",
    "Domain",
    "at_least",
    "check",
    "check_fields",
    "checked",
    "choice",
    "optional",
    "real",
]

#: The ``dataclasses.field`` metadata key a field's domain is declared under.
DOMAIN = "domain"


class Domain:
    """A set of accepted values; :meth:`reason` says why a value is outside."""

    __slots__ = ()

    def reason(self, value: Any) -> Optional[str]:
        """``None`` if ``value`` lies in the domain, else why not, as a
        phrase completing the value's name (``"must be >= 1, got 0"``)."""
        raise NotImplementedError

    def __call__(self, value: Any) -> Any:
        """``value`` unchanged, or ``ValueError`` saying why it is outside."""
        reason = self.reason(value)
        if reason is not None:
            raise ValueError(reason)
        return value


class _AtLeast(Domain):
    """Integers (``bool`` excluded) ``>= minimum``: see :func:`at_least`."""

    __slots__ = ("minimum",)

    def __init__(self, minimum: int) -> None:
        self.minimum = minimum

    def reason(self, value: Any) -> Optional[str]:
        kind = type(value)
        if kind is not int and (kind is bool or not isinstance(value, numbers.Integral)):
            return f"must be an integer, got {value!r}"
        if value < self.minimum:
            return f"must be >= {self.minimum}, got {value}"
        return None


class _Real(Domain):
    """Finite reals within open or closed bounds: see :func:`real`.

    An unbounded side is an open infinite bound, so the comparisons alone
    reject ±inf, and NaN fails every comparison.
    """

    __slots__ = ("low", "low_open", "high", "high_open", "_phrase")

    def __init__(self, low: float, low_open: bool, high: float, high_open: bool) -> None:
        self.low, self.low_open, self.high, self.high_open = low, low_open, high, high_open
        if math.isinf(low) and math.isinf(high):
            bounds = ""
        elif math.isinf(high):
            bounds = f" {'>' if low_open else '>='} {low:g}"
        elif math.isinf(low):
            bounds = f" {'<' if high_open else '<='} {high:g}"
        else:
            bounds = f" in {'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"
        self._phrase = f"must be a finite real{bounds}"

    def reason(self, value: Any) -> Optional[str]:
        kind = type(value)
        if (
            (kind is float or kind is int or (kind is not bool and isinstance(value, numbers.Real)))
            and (self.low < value if self.low_open else self.low <= value)
            and (value < self.high if self.high_open else value <= self.high)
        ):
            return None
        return f"{self._phrase}, got {value!r}"


class _Choice(Domain):
    """One of a fixed set of values: see :func:`choice`."""

    __slots__ = ("options",)

    def __init__(self, options: Tuple[Any, ...]) -> None:
        self.options = options

    def reason(self, value: Any) -> Optional[str]:
        if value in self.options:
            return None
        listed = ", ".join(map(repr, self.options))
        return f"must be one of {listed}, got {value!r}"


class _Optional(Domain):
    """``None`` or a value of another domain: see :func:`optional`."""

    __slots__ = ("domain",)

    def __init__(self, domain: Domain) -> None:
        self.domain = domain

    def reason(self, value: Any) -> Optional[str]:
        return None if value is None else self.domain.reason(value)


def at_least(minimum: int) -> Domain:
    """Integers (``bool`` excluded) ``>= minimum``."""
    return _AtLeast(minimum)


def real(
    *,
    above: float | None = None,
    at_least: float | None = None,
    below: float | None = None,
    at_most: float | None = None,
) -> Domain:
    """Finite reals (``bool`` excluded) within the given bounds: ``above``
    and ``below`` exclude their bound, ``at_least`` and ``at_most`` include
    it, and a side given neither is unbounded (yet never infinite)."""
    low, low_open = (above, True) if above is not None else (at_least, False)
    high, high_open = (below, True) if below is not None else (at_most, False)
    return _Real(
        -math.inf if low is None else low, low is None or low_open,
        math.inf if high is None else high, high is None or high_open,
    )


def choice(*options: Any) -> Domain:
    """One of ``options`` (compared with ``==``)."""
    return _Choice(options)


def optional(domain: Domain) -> Domain:
    """``None``, or a value of ``domain``."""
    return _Optional(domain)


#: A class label.  Its upper bound, the dataset's class count, is checked
#: where the dataset is known.
CLASS_INDEX = at_least(0)


def checked(default: Any, domain: Domain):
    """A dataclass field with ``default`` whose values must lie in ``domain``."""
    return field(default=default, metadata={DOMAIN: domain})


def check(value: Any, domain: Domain, name: str, error: type) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` lies in ``domain``."""
    reason = domain.reason(value)
    if reason is not None:
        raise error(f"{name} {reason}")


#: Per config class, its ``(qualified name, field name, domain)`` triples.
_DECLARED: Dict[type, Tuple[Tuple[str, str, Domain], ...]] = {}


def check_fields(config: Any, error: type) -> None:
    """Check every declared field of the dataclass instance ``config``.

    Raises ``error`` (the config family's error type) naming the first
    field, as ``Class.field``, whose value lies outside its domain.
    """
    cls = type(config)
    declared = _DECLARED.get(cls)
    if declared is None:
        declared = _DECLARED[cls] = tuple(
            (f"{cls.__name__}.{f.name}", f.name, f.metadata[DOMAIN])
            for f in fields(cls)
            if DOMAIN in f.metadata
        )
    values = vars(config)
    for qualified, name, domain in declared:
        reason = domain.reason(values[name])
        if reason is not None:
            raise error(f"{qualified} {reason}")
