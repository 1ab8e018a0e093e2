"""Shared test helpers (plain module, no fixtures).

Import from here (``from helpers import ...``), never ``from conftest import``:
both ``tests/`` and ``benchmarks/`` carry a ``conftest.py``, so the bare name
``conftest`` resolves to whichever directory pytest put on ``sys.path`` first
and silently shadows the other.
"""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np

import repro
from repro.graph.data import GraphData
from repro.graph.generators import class_correlated_features, stochastic_block_model
from repro.graph.splits import make_planetoid_split
from repro.utils.seed import new_rng


def build_small_graph(
    seed: int = 7,
    nodes_per_class: int = 30,
    num_classes: int = 3,
    num_features: int = 24,
    train_per_class: int = 6,
) -> GraphData:
    """Construct a small, well-separated SBM graph used across the test suite."""
    generator = new_rng(seed)
    block_sizes = [nodes_per_class] * num_classes
    adjacency = stochastic_block_model(block_sizes, p_in=0.25, p_out=0.01, rng=generator)
    labels = np.repeat(np.arange(num_classes), nodes_per_class)
    features = class_correlated_features(
        labels,
        num_features=num_features,
        signal_words_per_class=4,
        signal_strength=0.6,
        density=0.05,
        rng=generator,
    )
    split = make_planetoid_split(
        labels, train_per_class=train_per_class, num_val=20, num_test=40, rng=generator
    )
    return GraphData(
        adjacency=adjacency,
        features=features,
        labels=labels,
        split=split,
        name="small-sbm",
    )


def numerical_gradient(function, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function of ``array``."""
    gradient = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(array)
        flat[index] = original - epsilon
        lower = function(array)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2.0 * epsilon)
    return gradient


#: A malformed environment value for every knob that can reject one, with a
#: fragment of the error it must raise: ``(env, raw, fragment)``.
MALFORMED_KNOB_VALUES = [
    ("REPRO_BLOCKED_THRESHOLD", "banana", "must be an integer"),
    ("REPRO_BLOCKED_THRESHOLD", "-3", "must be >= 0"),
    ("REPRO_BLOCKED_THRESHOLD", "", "must be an integer"),
    ("REPRO_BLOCK_ROWS", "banana", "must be an integer"),
    ("REPRO_BLOCK_ROWS", "0", "must be >= 1"),
    ("REPRO_BLOCK_ROWS", "2.0", "must be an integer"),
]


def import_all_repro_modules() -> None:
    """Import every module under ``repro`` so every declared knob is registered."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def spy_on_condense(condenser) -> list:
    """Record every graph handed to ``condenser.condense`` (which still runs)."""
    seen = []
    condense = condenser.condense

    def spy(graph, rng):
        seen.append(graph)
        return condense(graph, rng)

    condenser.condense = spy
    return seen
