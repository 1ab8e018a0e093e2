"""Unit tests for seeding, logging and validation utilities."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils import (
    SeedSequenceFactory,
    check_non_negative,
    check_positive_int,
    check_probability,
    check_ratio,
    get_logger,
    new_rng,
    spawn_rngs,
)
from repro.utils import numeric
from repro.utils.logging import enable_console_logging
from repro.utils.numeric import LEAF_ELEMENTS, streamed_std


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

    def test_factory_issues_distinct_generators(self):
        factory = SeedSequenceFactory(7)
        values = [factory.next_rng().random() for _ in range(4)]
        assert len(set(values)) == 4
        assert factory.issued == 4
        assert factory.root_seed == 7

    def test_factory_reproducible_across_instances(self):
        a = [g.random() for g in SeedSequenceFactory(1).next_rngs(3)]
        b = [g.random() for g in SeedSequenceFactory(1).next_rngs(3)]
        assert a == b


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger("attack.bgc").name == "repro.attack.bgc"
        assert get_logger("repro.models").name == "repro.models"

    def test_enable_console_logging_is_idempotent(self):
        enable_console_logging(logging.WARNING)
        before = len(logging.getLogger("repro").handlers)
        enable_console_logging(logging.WARNING)
        assert len(logging.getLogger("repro").handlers) == before


class TestValidation:
    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ConfigurationError):
            check_probability(1.5, "p")

    def test_check_ratio(self):
        assert check_ratio(1.0, "r") == 1.0
        with pytest.raises(ConfigurationError):
            check_ratio(0.0, "r")

    def test_check_positive_int(self):
        assert check_positive_int(3, "n") == 3
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "n")
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "n")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ConfigurationError):
            check_non_negative(-1e-9, "x")


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
