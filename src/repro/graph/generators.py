"""Random-graph and feature generators used to simulate the benchmark datasets.

The paper evaluates on public graphs (Cora, Citeseer, Flickr, Reddit).  This
environment has no network access, so :mod:`repro.datasets` builds
statistically similar stand-ins from the generators in this module:
degree-corrected stochastic block models for the topology and sparse,
class-correlated bag-of-words-style features.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DatasetError
from repro.utils.validation import check, real

#: Edge and feature densities are probabilities.
_PROBABILITY = real(at_least=0, at_most=1)


def stochastic_block_model(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
) -> sp.csr_matrix:
    """Sample a symmetric, binary stochastic block model adjacency matrix.

    Parameters
    ----------
    block_sizes:
        Number of nodes in each block (class).
    p_in / p_out:
        Intra-block and inter-block edge probabilities.
    """
    check(p_in, _PROBABILITY, "p_in", DatasetError)
    check(p_out, _PROBABILITY, "p_out", DatasetError)
    block_sizes = [int(size) for size in block_sizes]
    if any(size <= 0 for size in block_sizes):
        raise DatasetError(f"block sizes must be positive, got {block_sizes}")
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    return _sample_block_edges(labels, p_in, p_out, degree_propensity=None, rng=rng)


def degree_corrected_sbm(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
    power_law_exponent: float = 2.5,
    min_propensity: float = 0.2,
) -> sp.csr_matrix:
    """Degree-corrected SBM: node propensities follow a truncated power law.

    This produces the heavy-tailed degree distributions of real citation and
    social graphs, which matters for BGC's degree-aware node selection metric.
    """
    check(p_in, _PROBABILITY, "p_in", DatasetError)
    check(p_out, _PROBABILITY, "p_out", DatasetError)
    block_sizes = [int(size) for size in block_sizes]
    num_nodes = int(sum(block_sizes))
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    # Truncated Pareto-style propensities normalised to mean 1.
    raw = (1.0 - rng.random(num_nodes)) ** (-1.0 / (power_law_exponent - 1.0))
    raw = np.clip(raw, min_propensity, 10.0)
    propensity = raw / raw.mean()
    return _sample_block_edges(labels, p_in, p_out, degree_propensity=propensity, rng=rng)


def _sample_block_edges(
    labels: np.ndarray,
    p_in: float,
    p_out: float,
    degree_propensity: Optional[np.ndarray],
    rng: np.random.Generator,
) -> sp.csr_matrix:
    """Sample edges block-pair by block-pair to avoid an O(N^2) dense matrix."""
    num_nodes = labels.shape[0]
    classes = np.unique(labels)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for a in classes:
        nodes_a = np.flatnonzero(labels == a)
        for b in classes:
            if b < a:
                continue
            nodes_b = np.flatnonzero(labels == b)
            prob = p_in if a == b else p_out
            if prob <= 0:
                continue
            # Expected edges; sample pair candidates with Bernoulli thinning in
            # manageable batches using the sparse "coupon" trick.
            pair_count = (
                nodes_a.size * (nodes_a.size - 1) // 2 if a == b else nodes_a.size * nodes_b.size
            )
            if pair_count == 0:
                continue
            expected = prob * pair_count
            sample_size = rng.poisson(expected)
            if sample_size == 0:
                continue
            src = rng.choice(nodes_a, size=sample_size, replace=True)
            dst = rng.choice(nodes_b, size=sample_size, replace=True)
            if degree_propensity is not None:
                keep_prob = degree_propensity[src] * degree_propensity[dst]
                keep_prob = np.clip(keep_prob, 0.0, 1.0)
                keep = rng.random(sample_size) < keep_prob
                src, dst = src[keep], dst[keep]
            mask = src != dst
            rows.append(src[mask])
            cols.append(dst[mask])
    if rows:
        row = np.concatenate(rows)
        col = np.concatenate(cols)
    else:
        row = np.array([], dtype=np.int64)
        col = np.array([], dtype=np.int64)
    data = np.ones(row.shape[0], dtype=np.float64)
    upper = sp.csr_matrix((data, (row, col)), shape=(num_nodes, num_nodes))
    symmetric = upper + upper.T
    symmetric.data = np.minimum(symmetric.data, 1.0)
    symmetric.setdiag(0)
    symmetric.eliminate_zeros()
    return symmetric.tocsr()


def class_correlated_features(
    labels: np.ndarray,
    num_features: int,
    signal_words_per_class: int,
    signal_strength: float,
    density: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate sparse bag-of-words-like features correlated with class labels.

    Each class owns ``signal_words_per_class`` dedicated feature columns whose
    activation probability is boosted by ``signal_strength``; all other
    columns fire with base probability ``density``.  Rows are L1-normalised,
    matching the Planetoid preprocessing convention.

    The base activations are sampled in row chunks and normalised in place,
    so the only full-size allocation is the returned ``(N, F)`` matrix — at
    the six-figure node counts of the Flickr/Reddit stand-ins the transient
    uniform draw and the normalised copy would otherwise triple the peak.
    Chunking does not change the values: ``Generator.random`` fills row-major
    arrays from the bit stream sequentially, so chunked row draws consume
    exactly the same stream as one full-size draw.
    """
    check(density, _PROBABILITY, "density", DatasetError)
    labels = np.asarray(labels, dtype=np.int64)
    num_nodes = labels.shape[0]
    num_classes = int(labels.max()) + 1 if labels.size else 0
    if num_classes * signal_words_per_class > num_features:
        raise DatasetError(
            f"{num_classes} classes x {signal_words_per_class} signal words exceed "
            f"{num_features} feature columns"
        )
    chunk = 32768
    base = np.empty((num_nodes, num_features), dtype=np.float64)
    for start in range(0, num_nodes, chunk):
        stop = min(start + chunk, num_nodes)
        base[start:stop] = rng.random((stop - start, num_features)) < density
    for cls in range(num_classes):
        members = np.flatnonzero(labels == cls)
        start = cls * signal_words_per_class
        stop = start + signal_words_per_class
        boosted = rng.random((members.size, signal_words_per_class)) < min(
            1.0, density + signal_strength
        )
        base[np.ix_(members, np.arange(start, stop))] = np.maximum(
            base[np.ix_(members, np.arange(start, stop))], boosted.astype(np.float64)
        )
    row_sums = base.sum(axis=1, keepdims=True)
    row_sums[row_sums == 0] = 1.0
    base /= row_sums
    return base
