"""Deterministic random-number management.

Every stochastic component in the library receives an explicit
:class:`numpy.random.Generator`.  Experiments construct these generators from
integer seeds via :func:`new_rng` or spawn independent streams with
:func:`spawn_rngs` so that repeated runs are
bit-for-bit reproducible regardless of execution order.
"""

from __future__ import annotations

from typing import List

import numpy as np


def new_rng(seed: int | None = None) -> np.random.Generator:
    """Return a fresh ``numpy.random.Generator`` seeded with ``seed``.

    Parameters
    ----------
    seed:
        Integer seed.  ``None`` produces an OS-entropy-seeded generator,
        which is only appropriate for exploratory use, never in benchmarks.
    """
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` statistically independent generators from one seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]

