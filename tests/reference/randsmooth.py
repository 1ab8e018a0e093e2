"""The per-node majority-vote loop that :func:`_majority_vote` replaced."""

from __future__ import annotations

import numpy as np


def majority_vote_loop(stacked: np.ndarray) -> np.ndarray:
    """Per-node bincount/argmax over a ``(num_samples, num_nodes)`` array.

    The pinned semantics of :func:`repro.defenses.randsmooth._majority_vote`:
    the vectorised version must stay bit-identical to this loop.
    """
    num_nodes = stacked.shape[1]
    majority = np.empty(num_nodes, dtype=np.int64)
    for node in range(num_nodes):
        counts = np.bincount(stacked[:, node])
        majority[node] = int(np.argmax(counts))
    return majority
