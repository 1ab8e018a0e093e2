"""Unit tests for seeding, logging and the field-domain vocabulary."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import pytest

from repro.exceptions import AttackError
from repro.utils import get_logger, new_rng, spawn_rngs
from repro.utils import numeric
from repro.utils.logging import enable_console_logging
from repro.utils.numeric import LEAF_ELEMENTS, streamed_std
from repro.utils.validation import (
    at_least,
    check_fields,
    checked,
    choice,
    optional,
    real,
)


class TestSeeding:
    def test_new_rng_deterministic(self):
        assert new_rng(3).random() == new_rng(3).random()

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.random() != b.random()

    def test_spawn_rngs_reproducible(self):
        first = [g.random() for g in spawn_rngs(9, 3)]
        second = [g.random() for g in spawn_rngs(9, 3)]
        assert first == second

    def test_spawn_rngs_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger("attack.bgc").name == "repro.attack.bgc"
        assert get_logger("repro.models").name == "repro.models"

    def test_enable_console_logging_is_idempotent(self):
        enable_console_logging(logging.WARNING)
        before = len(logging.getLogger("repro").handlers)
        enable_console_logging(logging.WARNING)
        assert len(logging.getLogger("repro").handlers) == before


@dataclass
class _Probe:
    count: int = checked(1, at_least(1))
    rate: float = checked(0.5, real(above=0, at_most=1))
    mode: str = checked("a", choice("a", "b"))
    limit: int | None = checked(None, optional(at_least(0)))
    plain: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, AttackError)


class TestValidation:
    """The domain vocabulary: accepts as given, rejects with a named reason."""

    @pytest.mark.parametrize("value", [0, -1, 2.5, 2.0, True, "3", None, math.nan])
    def test_at_least_rejects_non_integers_and_small_values(self, value):
        assert at_least(1).reason(value) is not None

    def test_at_least_returns_the_value_unchanged(self):
        value = np.int64(7)
        assert at_least(1)(value) is value
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            at_least(1)(0)
        with pytest.raises(ValueError, match="must be an integer"):
            at_least(1)(1.0)

    @pytest.mark.parametrize(
        "domain, inside, outside",
        [
            (real(above=0, at_most=1), [1e-300, 1, 1.0], [0, 0.0, 1.0000001, -1]),
            (real(at_least=0, below=1), [0, 0.999], [1, -1e-12]),
            (real(at_least=0), [0, 1e300, 3], [-1, -0.0001]),
            (real(), [-1e300, 0, 7], []),
        ],
    )
    def test_real_bounds_and_finiteness(self, domain, inside, outside):
        for value in inside:
            assert domain.reason(value) is None, value
        for value in [*outside, math.nan, math.inf, -math.inf, True, "1", None]:
            assert domain.reason(value) is not None, value

    def test_real_describes_its_interval(self):
        assert real(above=0, at_most=1).reason(2).startswith(
            "must be a finite real in (0, 1]"
        )
        assert real(at_least=0).reason(-1).startswith("must be a finite real >= 0")

    def test_choice_and_optional(self):
        assert choice("a", "b").reason("b") is None
        assert "one of 'a', 'b'" in choice("a", "b").reason("c")
        assert optional(at_least(0)).reason(None) is None
        assert optional(at_least(0)).reason(-1) == "must be >= 0, got -1"

    def test_check_fields_names_the_field_with_the_family_error(self):
        _Probe(count=3, rate=1, mode="b", limit=0, plain=math.nan)
        for bad, name in [
            ({"count": 0}, "count"),
            ({"rate": math.nan}, "rate"),
            ({"mode": "c"}, "mode"),
            ({"limit": -1}, "limit"),
        ]:
            with pytest.raises(AttackError, match=rf"^_Probe\.{name} must be"):
                _Probe(**bad)

    def test_check_fields_converts_nothing(self):
        probe = _Probe(count=np.int64(2), rate=1)
        assert type(probe.count) is np.int64 and type(probe.rate) is int


def _std_inputs(shape, kind: str) -> np.ndarray:
    rng = new_rng(int(np.prod(shape)) % 1009)
    if kind == "constant":
        return np.full(shape, 0.3)
    if kind == "negative-heavy":
        return 0.5 - 100.0 * rng.exponential(size=shape)
    if kind == "sparse-binary":
        return (rng.random(shape) < 0.0127).astype(np.float64)
    return 1.0 + 3.0 * rng.normal(size=shape)


STD_SHAPES = [
    (1,), (7,), (8,), (9,), (127,), (128,), (129,),
    (LEAF_ELEMENTS - 1,), (LEAF_ELEMENTS + 1,), (3 * LEAF_ELEMENTS + 5,),
    (60, 24), (2708, 1433),
]


class TestStreamedStd:
    """``streamed_std`` must be ``float(np.std(x))`` bit for bit: it walks
    numpy's own pairwise-summation tree, so a numpy release that changes
    its pairwise sum fails here first."""

    @pytest.mark.parametrize("kind", ["normal", "constant", "negative-heavy", "sparse-binary"])
    @pytest.mark.parametrize("shape", STD_SHAPES)
    def test_equals_np_std(self, shape, kind):
        x = _std_inputs(shape, kind)
        assert streamed_std(x) == float(np.std(x))

    def test_streams_more_than_one_leaf(self, monkeypatch):
        """A large input goes through the split, never one full-size leaf."""
        leaves = []
        squared = numeric._squared_deviations

        def spy(flat, mean, start, count):
            if count <= LEAF_ELEMENTS:
                leaves.append(count)
            return squared(flat, mean, start, count)

        monkeypatch.setattr(numeric, "_squared_deviations", spy)
        x = _std_inputs((2708, 1433), "normal")
        assert streamed_std(x) == float(np.std(x))
        assert len(leaves) > 1 and max(leaves) <= LEAF_ELEMENTS
        assert sum(leaves) == x.size

    def test_empty_falls_back(self):
        with pytest.warns(RuntimeWarning):
            assert np.isnan(streamed_std(np.empty((0, 3))))

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: x[:, ::2],
            lambda x: x.T,
            lambda x: x.astype(np.float32),
            lambda x: x.tolist(),
        ],
        ids=["strided", "transposed", "float32", "list"],
    )
    def test_other_inputs_take_np_std(self, monkeypatch, make):
        def no_stream(*args):
            raise AssertionError("the streamed path ran")

        monkeypatch.setattr(numeric, "_squared_deviations", no_stream)
        x = make(_std_inputs((300, 64), "normal"))
        assert streamed_std(x) == float(np.std(x))


class TestPublicAPI:
    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.1.0"

    def test_top_level_exports(self):
        import repro

        for name in ("load_dataset", "make_condenser", "BGC", "run_experiment"):
            assert hasattr(repro, name)
