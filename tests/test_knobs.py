"""Every ``REPRO_*`` setting resolves through one ``Knob`` path.

Each declared knob is held to one contract: the environment parse is
memoised per raw string, a changed environment is still picked up, an
unset variable gives the default, a malformed value raises
``ConfigurationError`` naming the variable, and an override wins over the
environment until it is cleared.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from helpers import MALFORMED_KNOB_VALUES, import_all_repro_modules
from repro.exceptions import ConfigurationError
from repro.utils.knobs import KNOBS, any_string

import_all_repro_modules()

SRC = Path(__file__).resolve().parent.parent / "src"
KNOBS_MODULE = SRC / "repro" / "utils" / "knobs.py"

#: Per knob: a valid raw env string, its parsed value, a valid override and
#: a rejected override.
CASES = {
    "REPRO_BLOCKED_THRESHOLD": ("424242", 424242, 0, -1),
    "REPRO_BLOCK_ROWS": ("64", 64, 1, 0),
    "REPRO_BLOCKED_DIR": ("blocked-scratch", "blocked-scratch", "pinned", 5),
    "REPRO_RESULT_STORE": (" runs/store ", "runs/store", "other-store", 5),
}


@pytest.fixture(params=sorted(CASES))
def knob(request, monkeypatch):
    """One declared knob with no override, no memo and its variable unset."""
    knob = KNOBS[request.param]
    assert knob.set(None) is None, "a test leaked an override"
    monkeypatch.setattr(knob, "_memo", None)
    monkeypatch.delenv(knob.env, raising=False)
    return knob


def test_every_knob_has_a_case():
    assert set(CASES) == set(KNOBS)
    malformed = {env for env, _, _ in MALFORMED_KNOB_VALUES}
    for env, knob in KNOBS.items():
        # A knob without a malformed example must accept any string.
        assert env in malformed or knob.check is any_string, env


class TestKnobResolution:
    def test_same_raw_string_parses_once(self, knob, monkeypatch):
        raw, parsed, _, _ = CASES[knob.env]
        parses = []
        original = knob.parse
        monkeypatch.setattr(
            knob, "parse", lambda value: (parses.append(value), original(value))[1]
        )
        monkeypatch.setenv(knob.env, raw)
        for _ in range(5):
            assert knob.get() == parsed
        assert parses == [raw]

    def test_environment_change_is_picked_up(self, knob, monkeypatch):
        raw, parsed, _, _ = CASES[knob.env]
        assert knob.get() == knob.default
        monkeypatch.setenv(knob.env, raw)
        assert knob.get() == parsed
        monkeypatch.delenv(knob.env)
        assert knob.get() == knob.default

    def test_set_returns_previous_and_none_clears(self, knob, monkeypatch):
        raw, parsed, override, _ = CASES[knob.env]
        monkeypatch.setenv(knob.env, raw)
        assert knob.set(override) is None
        try:
            assert knob.get() == override
        finally:
            assert knob.set(None) == override
        assert knob.get() == parsed

    def test_rejected_override_names_the_variable(self, knob):
        rejected = CASES[knob.env][3]
        with pytest.raises(ConfigurationError, match=f"{knob.env} override"):
            knob.set(rejected)
        assert knob.set(None) is None

    def test_overridden_restores_and_none_changes_nothing(self, knob):
        override = CASES[knob.env][2]
        with knob.overridden(override):
            assert knob.get() == override
            with knob.overridden(None):
                assert knob.get() == override
        assert knob.get() == knob.default


@pytest.mark.parametrize("env, raw, fragment", MALFORMED_KNOB_VALUES)
def test_malformed_environment_raises_naming_the_variable(
    env, raw, fragment, monkeypatch
):
    knob = KNOBS[env]
    monkeypatch.setenv(env, raw)
    with pytest.raises(ConfigurationError) as excinfo:
        knob.get()
    assert env in str(excinfo.value)
    assert fragment in str(excinfo.value)
    # An override wins over the malformed environment until it is cleared.
    with knob.overridden(CASES[env][2]):
        assert knob.get() == CASES[env][2]
    with pytest.raises(ConfigurationError):
        knob.get()


def test_no_module_outside_knobs_reads_the_environment():
    readers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != KNOBS_MODULE
        and re.search(r"\benviron\b|\bgetenv\b", path.read_text(encoding="utf-8"))
    ]
    assert readers == []
