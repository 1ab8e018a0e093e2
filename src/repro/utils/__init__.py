"""Shared utilities: seeding, logging, knobs and field domains."""

from repro.utils.seed import new_rng, spawn_rngs
from repro.utils.logging import get_logger

__all__ = [
    "new_rng",
    "spawn_rngs",
    "get_logger",
]
