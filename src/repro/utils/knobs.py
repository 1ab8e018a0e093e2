"""One type for every ``REPRO_*`` setting: override > environment > default.

Every environment variable the package reads is a :class:`Knob`, declared
beside the code that consumes it.  A knob resolves, in priority order:

1. a per-process programmatic override (:meth:`Knob.set`, or the scoped
   :meth:`Knob.overridden` that ``ExecutionSpec`` uses for a sweep);
2. its environment variable, parsed once per raw string — a memo keyed by
   the raw string keeps :meth:`Knob.get` to an override check, one
   ``os.environ.get`` and a compare, while a changed environment is still
   picked up;
3. its default.

A malformed value, from the environment or an override, raises
:class:`~repro.exceptions.ConfigurationError` naming the variable.  This
is the only module that reads ``os.environ``; the CLI resolves every
registered knob up front, so a bad variable exits 2 with the knob's hint
instead of failing mid-run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from repro.exceptions import ConfigurationError
from repro.utils.validation import at_least

__all__ = ["KNOBS", "Knob", "any_string", "at_least", "parse_int"]

#: Every declared knob, keyed by its environment variable.
KNOBS: Dict[str, "Knob"] = {}


def parse_int(raw: str) -> int:
    """Parse an environment string as a decimal integer."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"must be an integer, got {raw!r}") from None


def any_string(value: Any) -> str:
    """A check accepting any string."""
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


class Knob:
    """One setting: an override, then the ``env`` variable, then ``default``.

    ``parse`` turns the raw environment string into a value, and ``check``
    validates a parsed or overriding value; the defaults accept any string.
    Both raise ``ValueError`` with a message that completes the variable's
    name, e.g. ``"must be >= 0, got -1"``; a domain of
    :mod:`repro.utils.validation` (such as :func:`at_least`) is such a
    check, and a config field may share it.  ``hint`` is the advice the CLI
    prints under the error when the variable is malformed.  Constructing a
    knob registers it in :data:`KNOBS`.
    """

    __slots__ = ("env", "default", "parse", "check", "hint", "_override", "_memo")

    def __init__(
        self,
        env: str,
        default: Any,
        *,
        parse: Callable[[str], Any] = str,
        check: Callable[[Any], Any] = any_string,
        hint: str = "",
    ) -> None:
        self.env = env
        self.default = default
        self.parse = parse
        self.check = check
        self.hint = hint
        self._override: Any = None
        self._memo: Optional[tuple] = None
        KNOBS[env] = self

    def get(self) -> Any:
        """The effective value: the override, else the environment, else the default."""
        override = self._override
        if override is not None:
            return override
        raw = os.environ.get(self.env)
        memo = self._memo
        if memo is not None and memo[0] == raw:
            return memo[1]
        value = self.default if raw is None else self._checked(raw, self.env, parse=True)
        self._memo = (raw, value)
        return value

    def set(self, value: Any) -> Any:
        """Install (or with ``None`` clear) the override; returns the previous one."""
        if value is not None:
            value = self._checked(value, f"{self.env} override")
        previous, self._override = self._override, value
        return previous

    @contextmanager
    def overridden(self, value: Any) -> Iterator[None]:
        """Install ``value`` for the ``with`` block, then restore the previous
        override.  ``None`` leaves the current resolution untouched."""
        if value is None:
            yield
            return
        previous = self.set(value)
        try:
            yield
        finally:
            self.set(previous)

    def _checked(self, value: Any, source: str, parse: bool = False) -> Any:
        """Validate ``value`` (parsed first if it is a raw env string)."""
        try:
            return self.check(self.parse(value) if parse else value)
        except ValueError as error:
            raise ConfigurationError(f"{source} {error}") from error
