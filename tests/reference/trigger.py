"""The trigger generator's tape forward and the per-node trigger loss.

:func:`tape_forward` is the autograd forward of a
:class:`~repro.attack.trigger.TriggerGenerator`, and :func:`tape_generate`
the hard triggers it gave before
:meth:`~repro.attack.trigger.TriggerGenerator.generate` computed the
feature head in place; the two must agree byte for byte.

:func:`repro.attack.trigger.batched_local_trigger_loss` builds one
block-diagonal autograd graph for a whole batch of trigger-attached nodes.
:func:`local_trigger_loss` is the loop it replaced: one small autograd graph
per node, over that node's trigger from :func:`trigger_for_node`.
:func:`scaffold_for_node` is the per-node scaffold both used to build; the
batched loss now builds every uncached node's scaffold in one pass, which
must give the same bytes.
:class:`PerNodeLoss` plugs the loop back into BGC's generator update, which
GTA and DOORPING share; their runs must select the same nodes and build the
same condensed adjacency as the shipped classes, with features and
generator weights equal to round-off.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.attack.baselines import DoorpingAttack, GTAAttack
from repro.attack.trigger import UniversalTriggerGenerator, _local_node_set
from repro.autograd import Adam, Tensor
from repro.autograd import functional as F
from repro.autograd.tensor import no_grad
from repro.condensation.gradient_matching import normalize_dense_tensor
from repro.exceptions import AttackError
from repro.graph.data import GraphData


def tape_forward(generator, inputs: Tensor) -> Tuple[Tensor, Tensor]:
    """Flattened trigger features ``(n, t*d)`` and soft structure ``(n, t*t)``
    of a :class:`~repro.attack.trigger.TriggerGenerator`, on the tape."""
    encoded = generator._encode(inputs)
    features = F.tanh(generator.feature_head(encoded)) * generator._feature_bound
    structure = F.sigmoid(generator.structure_head(encoded))
    return features, structure


def tape_generate(generator, node_inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hard triggers ``(n, t, d)`` and ``(n, t, t)`` from :func:`tape_forward`."""
    t = generator.config.trigger_size
    with no_grad():
        flat_features, flat_structure = tape_forward(
            generator, Tensor(np.asarray(node_inputs, dtype=np.float64))
        )
    features = flat_features.data.reshape(-1, t, generator.num_features)
    soft = flat_structure.data.reshape(-1, t, t)
    symmetric = (soft + np.transpose(soft, (0, 2, 1))) * 0.5
    adjacency = (symmetric > 0.5).astype(np.float64)
    for block in adjacency:
        np.fill_diagonal(block, 0.0)
    return features, adjacency


def scaffold_for_node(
    graph, node: int, max_neighbors: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``node``'s local node set and the adjacency block it induces (two
    scipy fancy-index calls)."""
    local = _local_node_set(graph.adjacency, node, max_neighbors)
    return local, graph.adjacency[local][:, local].toarray()


def trigger_for_node(generator, node_input: np.ndarray) -> Tuple[Tensor, Tensor]:
    """Differentiable trigger (features ``(t, d)``, soft adjacency ``(t, t)``) for one node.

    A :class:`~repro.attack.trigger.UniversalTriggerGenerator` returns its
    shared trigger whatever the node.
    """
    if isinstance(generator, UniversalTriggerGenerator):
        bounded = F.tanh(generator.trigger_features) * generator._feature_bound
        return bounded, Tensor(generator._structure)
    inputs = Tensor(np.asarray(node_input, dtype=np.float64).reshape(1, -1))
    flat_features, flat_structure = tape_forward(generator, inputs)
    t = generator.config.trigger_size
    features = flat_features.reshape(t, generator.num_features)
    soft = flat_structure.reshape(t, t)
    symmetric = (soft + soft.T) * 0.5
    structure = F.straight_through_binarize(symmetric, threshold=0.5)
    # Zero the diagonal: trigger nodes carry no self-loops of their own.
    mask = Tensor(1.0 - np.eye(t))
    return features, structure * mask


def local_trigger_loss(
    node: int,
    graph,
    encoder_inputs: np.ndarray,
    generator,
    surrogate_weight: Tensor,
    target_class: int,
    max_neighbors: int = 10,
    num_hops: int = 2,
) -> Tensor:
    """Surrogate cross-entropy for one trigger-attached node on its local subgraph.

    The computation graph is the node's sampled 1-hop neighbourhood plus the
    trigger block.  Features are projected through the surrogate weight before
    propagation, so each evaluation costs a few hundred kiloflops while the
    gradient still flows into the trigger features and structure (and from
    there into the generator parameters).
    """
    trigger_features, trigger_structure = trigger_for_node(generator, encoder_inputs[node])
    trigger_size = trigger_features.shape[0]

    local, base = scaffold_for_node(graph, node, max_neighbors)
    host_features = np.asarray(graph.features[local], dtype=np.float64)
    n_local = local.size
    connector_cols = np.zeros((n_local, trigger_size))
    connector_cols[0, 0] = 1.0
    connector_rows = np.zeros((trigger_size, n_local))
    connector_rows[0, 0] = 1.0

    top = Tensor.concatenate([Tensor(base), Tensor(connector_cols)], axis=1)
    bottom = Tensor.concatenate([Tensor(connector_rows), trigger_structure], axis=1)
    local_adjacency = Tensor.concatenate([top, bottom], axis=0)
    normalized = normalize_dense_tensor(local_adjacency)

    host_projection = host_features @ surrogate_weight.data
    trigger_projection = trigger_features.matmul(surrogate_weight)
    projected = Tensor.concatenate([Tensor(host_projection), trigger_projection], axis=0)

    hidden = projected
    for _ in range(num_hops):
        hidden = normalized.matmul(hidden)
    return F.cross_entropy(hidden[0:1], np.array([target_class]))


class PerNodeLoss:
    """Mixin: BGC's generator update with the per-node loss loop.

    Same batches, drawn from the same stream, as
    :meth:`repro.attack.bgc.BGC._update_generator`; each step averages
    :func:`local_trigger_loss` over the batch instead of taking the batched
    loss.
    """

    def _update_generator(
        self,
        working: GraphData,
        encoder_inputs: np.ndarray,
        generator,
        optimizer: Adam,
        surrogate_weight: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        config = self.config
        weight_tensor = Tensor(surrogate_weight)
        if config.directed:
            pool = np.flatnonzero(working.labels == config.source_class)
        else:
            pool = np.arange(working.num_nodes)
        if pool.size == 0:
            raise AttackError("no nodes available to optimise triggers against")
        last_loss = float("nan")
        for _ in range(config.generator_steps):
            batch = rng.choice(pool, size=min(config.update_batch_size, pool.size), replace=False)
            optimizer.zero_grad()
            total = None
            for node in batch:
                node_loss = local_trigger_loss(
                    int(node),
                    working,
                    encoder_inputs,
                    generator,
                    weight_tensor,
                    target_class=config.target_class,
                    max_neighbors=config.max_neighbors,
                    num_hops=config.surrogate_hops,
                )
                total = node_loss if total is None else total + node_loss
            loss = total * (1.0 / len(batch))
            loss.backward()
            optimizer.step()
            last_loss = float(loss.item())
        return last_loss


class PerNodeGTA(PerNodeLoss, GTAAttack):
    """GTA training its generator with the per-node loss."""


class PerNodeDoorping(PerNodeLoss, DoorpingAttack):
    """DOORPING training its universal trigger with the per-node loss."""
