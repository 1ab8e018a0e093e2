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
from repro.utils.logging import enable_console_logging


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


class TestPublicAPI:
    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.1.0"

    def test_top_level_exports(self):
        import repro

        for name in ("load_dataset", "make_condenser", "BGC", "run_experiment"):
            assert hasattr(repro, name)
