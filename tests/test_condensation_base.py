"""Unit tests for the condensation base classes and configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.condensation import (
    CondensationConfig,
    CondensedGraph,
    available_condensers,
    make_condenser,
)
from repro.condensation.dc_graph import DCGraph
from repro.condensation.gcond import GCond, GCondX
from repro.condensation.gc_sntk import GCSNTK
from repro.exceptions import CondensationError, ConfigurationError


class TestCondensedGraph:
    def test_valid_construction(self):
        condensed = CondensedGraph(
            features=np.ones((3, 4)),
            labels=np.array([0, 1, 2]),
            adjacency=np.eye(3),
            method="test",
        )
        assert condensed.num_nodes == 3
        assert condensed.num_classes == 3

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(CondensationError):
            CondensedGraph(
                features=np.ones((3, 4)), labels=np.array([0, 1]), adjacency=np.eye(3)
            )

    def test_adjacency_shape_mismatch_rejected(self):
        with pytest.raises(CondensationError):
            CondensedGraph(
                features=np.ones((3, 4)), labels=np.array([0, 1, 2]), adjacency=np.eye(4)
            )

    def test_copy_is_deep(self):
        condensed = CondensedGraph(
            features=np.ones((2, 2)), labels=np.array([0, 1]), adjacency=np.eye(2)
        )
        clone = condensed.copy()
        clone.features[0, 0] = 42.0
        assert condensed.features[0, 0] == 1.0


class TestCondensationConfig:
    def test_defaults_are_valid(self):
        CondensationConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"ratio": 0.0},
            {"ratio": 1.5},
            {"num_hops": 0},
            {"distance": "manhattan"},
            {"lr_features": 0.0},
            {"surrogate_steps": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CondensationConfig(**kwargs)


class TestRegistry:
    def test_all_paper_condensers_registered(self):
        names = available_condensers()
        for expected in ("dc-graph", "gcond", "gcond-x", "gc-sntk"):
            assert expected in names

    def test_unknown_condenser_rejected(self):
        with pytest.raises(ConfigurationError):
            make_condenser("doscond")

    @pytest.mark.parametrize(
        "name,cls",
        [("dc-graph", DCGraph), ("gcond", GCond), ("gcond-x", GCondX), ("gc-sntk", GCSNTK)],
    )
    def test_factory_returns_expected_class(self, name, cls):
        assert isinstance(make_condenser(name), cls)

    def test_config_is_passed_through(self):
        config = CondensationConfig(epochs=3, ratio=0.2)
        condenser = make_condenser("gcond", config)
        assert condenser.config.epochs == 3
