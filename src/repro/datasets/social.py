"""Synthetic Flickr and Reddit stand-ins (inductive protocol, six-figure scale).

The stand-ins keep the class counts, feature dimensionality, inductive split
protocol and degree skew of the real graphs at genuine six-figure node
counts: Flickr at 100,000 nodes (reference 89,250) and Reddit at the full
232,965-node reference scale (only Reddit's edge density — 57M edges in the
real graph — remains scaled down).  ``num_nodes`` is the size actually
generated; ``reference_nodes`` records the published size of the graph being
emulated, and both numbers are reported side by side by
:mod:`repro.datasets.statistics` and the ``repro datasets`` CLI listing
(reddit's two columns now agree).  The blocked propagation engine
(:mod:`repro.graph.blocked`) bounds the working set of hop chains at this
scale, which is what made generating reddit at reference size affordable.  Generation is blockwise throughout — the
SBM samples edges block-pair by block-pair and the feature generator draws
row chunks — so no dense ``(N, N)`` intermediate is ever formed; hop chains
over these graphs stream through the blocked engine
(:mod:`repro.graph.blocked`) rather than materialising dense products.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import DatasetSpec, _dataset_seed, register_dataset
from repro.graph.data import GraphData
from repro.graph.generators import class_correlated_features, degree_corrected_sbm
from repro.graph.splits import make_inductive_split
from repro.utils.seed import spawn_rngs


def _build_inductive(spec: DatasetSpec, seed: int) -> GraphData:
    topology_rng, feature_rng, split_rng = spawn_rngs(_dataset_seed(spec.name, seed), 3)

    block_sizes = _zipf_blocks(spec.num_nodes, spec.num_classes, topology_rng)
    avg_block = spec.num_nodes / spec.num_classes
    p_in = min(1.0, spec.homophily * spec.avg_degree / max(avg_block, 1.0))
    p_out = min(
        1.0,
        (1.0 - spec.homophily) * spec.avg_degree / max(spec.num_nodes - avg_block, 1.0),
    )
    adjacency = degree_corrected_sbm(
        block_sizes, p_in, p_out, topology_rng, power_law_exponent=2.2
    )
    labels = np.repeat(np.arange(spec.num_classes), block_sizes)

    features = class_correlated_features(
        labels,
        num_features=spec.num_features,
        signal_words_per_class=max(3, spec.num_features // (4 * spec.num_classes)),
        signal_strength=0.4,
        density=0.02,
        rng=feature_rng,
    )
    split = make_inductive_split(
        num_nodes=spec.num_nodes,
        train_fraction=spec.train_fraction,
        val_fraction=spec.val_fraction,
        rng=split_rng,
    )
    return GraphData(
        adjacency=adjacency,
        features=features,
        labels=labels,
        split=split,
        name=spec.name,
        inductive=True,
        metadata={
            "avg_degree_target": spec.avg_degree,
            "homophily_target": spec.homophily,
            "reference_nodes": float(spec.reference_nodes),
        },
    )


def _zipf_blocks(num_nodes: int, num_classes: int, rng: np.random.Generator) -> list[int]:
    """Zipf-distributed class sizes (social graphs have skewed class frequencies)."""
    ranks = np.arange(1, num_classes + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights = weights / weights.sum()
    sizes = np.maximum(8, np.round(weights * num_nodes).astype(int))
    sizes[0] += num_nodes - sizes.sum()
    rng.shuffle(sizes)
    return sizes.tolist()


FLICKR_SPEC = DatasetSpec(
    name="flickr",
    num_nodes=100_000,
    num_classes=7,
    num_features=500,
    inductive=True,
    avg_degree=10.0,
    homophily=0.55,
    train_fraction=0.5,
    val_fraction=0.25,
    reference_nodes=89250,
)

REDDIT_SPEC = DatasetSpec(
    name="reddit",
    num_nodes=232_965,
    num_classes=10,
    num_features=602,
    inductive=True,
    avg_degree=25.0,
    homophily=0.78,
    train_fraction=0.66,
    val_fraction=0.10,
    reference_nodes=232965,
)

register_dataset(FLICKR_SPEC, _build_inductive)
register_dataset(REDDIT_SPEC, _build_inductive)
