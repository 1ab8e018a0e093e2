"""Synthetic Cora and Citeseer stand-ins (transductive, Planetoid protocol)."""

from __future__ import annotations

import numpy as np

from repro.datasets.base import DatasetSpec, _dataset_seed, register_dataset
from repro.graph.data import GraphData
from repro.graph.generators import class_correlated_features, degree_corrected_sbm
from repro.graph.splits import make_planetoid_split
from repro.utils.seed import spawn_rngs


def _build_transductive(spec: DatasetSpec, seed: int) -> GraphData:
    """Shared builder for the citation-style transductive datasets."""
    topology_rng, feature_rng, split_rng = spawn_rngs(_dataset_seed(spec.name, seed), 3)

    block_sizes = _balanced_blocks(spec.num_nodes, spec.num_classes, topology_rng)
    p_in, p_out = _edge_probabilities(spec)
    adjacency = degree_corrected_sbm(block_sizes, p_in, p_out, topology_rng)
    labels = np.repeat(np.arange(spec.num_classes), block_sizes)

    features = class_correlated_features(
        labels,
        num_features=spec.num_features,
        signal_words_per_class=max(4, spec.num_features // (4 * spec.num_classes)),
        signal_strength=0.35,
        density=0.01,
        rng=feature_rng,
    )
    split = make_planetoid_split(
        labels,
        train_per_class=spec.train_per_class,
        num_val=spec.num_val,
        num_test=spec.num_test,
        rng=split_rng,
    )
    return GraphData(
        adjacency=adjacency,
        features=features,
        labels=labels,
        split=split,
        name=spec.name,
        inductive=False,
        metadata={"avg_degree_target": spec.avg_degree, "homophily_target": spec.homophily},
    )


def _balanced_blocks(num_nodes: int, num_classes: int, rng: np.random.Generator) -> list[int]:
    """Split ``num_nodes`` into slightly imbalanced class blocks."""
    weights = rng.uniform(0.8, 1.2, size=num_classes)
    weights = weights / weights.sum()
    sizes = np.maximum(1, np.round(weights * num_nodes).astype(int))
    # Adjust the largest block so the sizes sum exactly to num_nodes.
    sizes[np.argmax(sizes)] += num_nodes - sizes.sum()
    return sizes.tolist()


def _edge_probabilities(spec: DatasetSpec) -> tuple[float, float]:
    """Derive SBM probabilities from the target average degree and homophily."""
    avg_block = spec.num_nodes / spec.num_classes
    # Expected intra-class neighbours ~ homophily * avg_degree, spread over a block.
    p_in = min(1.0, spec.homophily * spec.avg_degree / max(avg_block, 1.0))
    inter_nodes = spec.num_nodes - avg_block
    p_out = min(1.0, (1.0 - spec.homophily) * spec.avg_degree / max(inter_nodes, 1.0))
    return p_in, p_out


CORA_SPEC = DatasetSpec(
    name="cora",
    num_nodes=2708,
    num_classes=7,
    num_features=1433,
    inductive=False,
    avg_degree=4.0,
    homophily=0.81,
    train_per_class=20,
    num_val=500,
    num_test=1000,
    reference_nodes=2708,
)

CITESEER_SPEC = DatasetSpec(
    name="citeseer",
    num_nodes=3327,
    num_classes=6,
    num_features=1200,
    inductive=False,
    avg_degree=2.8,
    homophily=0.74,
    train_per_class=20,
    num_val=500,
    num_test=1000,
    reference_nodes=3327,
)

register_dataset(CORA_SPEC, _build_transductive)
register_dataset(CITESEER_SPEC, _build_transductive)
