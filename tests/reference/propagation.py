"""The dense SGC precompute that :func:`repro.graph.propagation.sgc_precompute`
is pinned against."""

from __future__ import annotations

import numpy as np

from repro.graph.normalize import dense_gcn_normalize


def dense_sgc_precompute(
    adjacency: np.ndarray, features: np.ndarray, num_hops: int
) -> np.ndarray:
    """``Â^K X`` with a dense normalised adjacency and dense products."""
    normalized = dense_gcn_normalize(adjacency)
    propagated = np.asarray(features, dtype=np.float64)
    for _ in range(num_hops):
        propagated = normalized @ propagated
    return propagated
