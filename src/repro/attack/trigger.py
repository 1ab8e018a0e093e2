"""Adaptive trigger generation (Section IV-C of the paper).

The trigger generator ``f_g`` maps a node's representation to the features
*and* internal structure of a small trigger subgraph.  Its encoder is an MLP
by default; the Table V ablation swaps in a GCN encoder (operating on
propagated features) or a single-layer / 8-head Transformer.  The generated
adjacency is binarised in the forward pass and receives straight-through
gradients, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.autograd import Linear, Module, Tensor
from repro.autograd import functional as F
from repro.exceptions import AttackError
from repro.graph.propagation import sgc_precompute
from repro.models.transformer import TransformerEncoderLayer


@dataclass
class TriggerConfig:
    """Hyperparameters of the trigger generator.

    ``feature_scale`` is a *relative* bound: generated trigger features are
    squashed through ``tanh`` and multiplied by
    ``feature_scale * max|X|`` of the host graph (set via
    :meth:`TriggerGenerator.calibrate`).  Bounding the magnitude keeps the
    attack a genuine backdoor — the association is learned by the condensed
    graph — rather than an adversarial-magnitude perturbation that would fool
    clean models too (clean-model ASR stays at chance level, as in the
    paper's C-ASR columns).
    """

    trigger_size: int = 4
    hidden: int = 64
    encoder: str = "mlp"
    learning_rate: float = 0.01
    feature_scale: float = 0.1
    num_hops: int = 2

    def __post_init__(self) -> None:
        if self.trigger_size < 1:
            raise AttackError(f"trigger_size must be >= 1, got {self.trigger_size}")
        if self.encoder not in ("mlp", "gcn", "transformer"):
            raise AttackError(
                f"encoder must be one of 'mlp', 'gcn', 'transformer', got {self.encoder!r}"
            )
        if self.learning_rate <= 0:
            raise AttackError("learning_rate must be positive")


class TriggerGenerator(Module):
    """Generates per-node trigger features and structure from node representations.

    ``forward(representations)`` returns a pair ``(features, adjacency)`` of
    tensors with shapes ``(n, t, d)`` and ``(n, t, t)`` flattened to 2-D
    (``(n, t*d)`` / ``(n, t*t)``) internally; use :meth:`generate` for the
    reshaped, binarised view.
    """

    def __init__(
        self,
        num_features: int,
        rng: np.random.Generator,
        config: TriggerConfig | None = None,
    ) -> None:
        super().__init__()
        self.config = config or TriggerConfig()
        self.num_features = num_features
        hidden = self.config.hidden
        encoder = self.config.encoder
        if encoder == "transformer":
            self.input_projection = Linear(num_features, hidden, rng=rng)
            self.encoder_block = TransformerEncoderLayer(hidden, num_heads=8, rng=rng)
        else:
            # The "gcn" encoder receives structure-propagated features as its
            # input (see encode_nodes), so both variants are linear stacks here.
            self.encoder_layer1 = Linear(num_features, hidden, rng=rng)
            self.encoder_layer2 = Linear(hidden, hidden, rng=rng)
        trigger_size = self.config.trigger_size
        self.feature_head = Linear(hidden, trigger_size * num_features, rng=rng)
        self.structure_head = Linear(hidden, trigger_size * trigger_size, rng=rng)
        self._feature_bound = self.config.feature_scale

    # -------------------------------------------------------------- #
    # Calibration and encoding
    # -------------------------------------------------------------- #
    def calibrate(self, host_features: np.ndarray) -> None:
        """Set the trigger feature bound relative to the host graph's scale."""
        magnitude = float(np.abs(np.asarray(host_features)).max())
        if magnitude <= 0.0:
            magnitude = 1.0
        self._feature_bound = self.config.feature_scale * magnitude

    def encode_inputs(self, graph_adjacency, features: np.ndarray) -> np.ndarray:
        """Prepare the raw encoder inputs for a set of nodes.

        The MLP and Transformer encoders consume raw node features; the GCN
        encoder consumes SGC-propagated features so that graph structure
        informs the triggers, mirroring Eq. 10.
        """
        if self.config.encoder == "gcn":
            return sgc_precompute(graph_adjacency, features, self.config.num_hops)
        return np.asarray(features, dtype=np.float64)

    def _encode(self, inputs: Tensor) -> Tensor:
        if self.config.encoder == "transformer":
            projected = self.input_projection(inputs)
            return self.encoder_block(projected)
        hidden = F.relu(self.encoder_layer1(inputs))
        return self.encoder_layer2(hidden)

    def _encode_rowwise(self, inputs: Tensor) -> Tensor:
        """Encode a batch with strictly row-independent semantics.

        Identical to :meth:`_encode` for the MLP and GCN encoders (row-wise
        linear stacks); the transformer encoder treats each row as its own
        length-1 sequence instead of attending across the batch, matching
        what :meth:`trigger_for_node` computes per node.
        """
        if self.config.encoder == "transformer":
            projected = self.input_projection(inputs)
            return self.encoder_block.forward_per_token(projected)
        return self._encode(inputs)

    # -------------------------------------------------------------- #
    # Generation
    # -------------------------------------------------------------- #
    def forward(self, inputs: Tensor) -> Tuple[Tensor, Tensor]:
        """Return flattened trigger features ``(n, t*d)`` and soft structure ``(n, t*t)``."""
        encoded = self._encode(inputs)
        features = F.tanh(self.feature_head(encoded)) * self._feature_bound
        structure_logits = self.structure_head(encoded)
        structure = F.sigmoid(structure_logits)
        return features, structure

    def trigger_for_node(self, node_input: np.ndarray) -> Tuple[Tensor, Tensor]:
        """Differentiable trigger (features ``(t, d)``, soft adjacency ``(t, t)``) for one node."""
        inputs = Tensor(np.asarray(node_input, dtype=np.float64).reshape(1, -1))
        flat_features, flat_structure = self.forward(inputs)
        t = self.config.trigger_size
        features = flat_features.reshape(t, self.num_features)
        soft = flat_structure.reshape(t, t)
        symmetric = (soft + soft.T) * 0.5
        structure = F.straight_through_binarize(symmetric, threshold=0.5)
        # Zero the diagonal: trigger nodes carry no self-loops of their own.
        mask = Tensor(1.0 - np.eye(t))
        return features, structure * mask

    def triggers_for_nodes(self, node_inputs: np.ndarray) -> Tuple[Tensor, Tensor]:
        """Differentiable triggers for a whole batch in one forward pass.

        Returns ``(features, structures)`` with shapes ``(B, t, d)`` and
        ``(B, t, t)``; row ``i`` equals :meth:`trigger_for_node` of input
        ``i`` (up to float rounding), but the batch shares one autograd
        graph.  Row independence is preserved for every encoder — the
        transformer encoder runs per-token (see :meth:`_encode_rowwise`)
        rather than attending across whichever nodes happen to share the
        batch.
        """
        inputs = Tensor(np.asarray(node_inputs, dtype=np.float64))
        if inputs.ndim != 2:
            raise AttackError(f"node_inputs must be 2-D, got shape {inputs.shape}")
        batch = inputs.shape[0]
        t = self.config.trigger_size
        encoded = self._encode_rowwise(inputs)
        flat_features = F.tanh(self.feature_head(encoded)) * self._feature_bound
        flat_structure = F.sigmoid(self.structure_head(encoded))
        features = flat_features.reshape(batch, t, self.num_features)
        soft = flat_structure.reshape(batch, t, t)
        symmetric = (soft + F.transpose_last2(soft)) * 0.5
        structures = F.straight_through_binarize(symmetric, threshold=0.5)
        mask = Tensor(1.0 - np.eye(t))
        return features, structures * mask

    def generate(
        self, node_inputs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Hard (numpy) triggers for a batch of nodes.

        Returns ``(features, adjacency)`` with shapes ``(n, t, d)`` and
        ``(n, t, t)``; the adjacency is binary and symmetric.
        """
        from repro.autograd.tensor import no_grad

        node_inputs = np.asarray(node_inputs, dtype=np.float64)
        if node_inputs.ndim != 2:
            raise AttackError(f"node_inputs must be 2-D, got shape {node_inputs.shape}")
        t = self.config.trigger_size
        with no_grad():
            flat_features, flat_structure = self.forward(Tensor(node_inputs))
        features = flat_features.data.reshape(-1, t, self.num_features)
        soft = flat_structure.data.reshape(-1, t, t)
        symmetric = (soft + np.transpose(soft, (0, 2, 1))) * 0.5
        adjacency = (symmetric > 0.5).astype(np.float64)
        for block in adjacency:
            np.fill_diagonal(block, 0.0)
        return features, adjacency


def generate_hard_triggers(
    generator,
    graph_adjacency,
    features: np.ndarray,
    nodes: np.ndarray,
    inputs: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Convenience wrapper: hard triggers for ``nodes`` of a graph.

    Works for any object exposing ``encode_inputs`` and ``generate`` —
    :class:`TriggerGenerator` and :class:`UniversalTriggerGenerator` both do.
    ``inputs`` is ``generator.encode_inputs(graph_adjacency, features)``
    when the caller already holds it (for the ``gcn`` encoder that is a
    whole-graph propagation); otherwise it is computed here.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if inputs is None:
        inputs = generator.encode_inputs(graph_adjacency, features)
    return generator.generate(inputs[nodes])


class UniversalTriggerGenerator(Module):
    """A single shared trigger applied identically to every node.

    This is the DOORPING-style trigger: one learnable block of trigger-node
    features with a fixed fully connected internal structure.  It exposes the
    same ``encode_inputs`` / ``generate`` / ``trigger_for_node`` interface as
    :class:`TriggerGenerator` so the attack and evaluation code can use either
    interchangeably.
    """

    def __init__(
        self,
        num_features: int,
        rng: np.random.Generator,
        config: TriggerConfig | None = None,
    ) -> None:
        super().__init__()
        self.config = config or TriggerConfig()
        self.num_features = num_features
        t = self.config.trigger_size
        from repro.autograd.module import Parameter

        self.trigger_features = Parameter(
            rng.normal(scale=0.1, size=(t, num_features)), name="universal_trigger"
        )
        self._structure = 1.0 - np.eye(t)
        self._feature_bound = self.config.feature_scale

    def calibrate(self, host_features: np.ndarray) -> None:
        """Set the trigger feature bound relative to the host graph's scale."""
        magnitude = float(np.abs(np.asarray(host_features)).max())
        if magnitude <= 0.0:
            magnitude = 1.0
        self._feature_bound = self.config.feature_scale * magnitude

    def encode_inputs(self, graph_adjacency, features: np.ndarray) -> np.ndarray:
        """Node inputs are irrelevant for a universal trigger; pass features through."""
        del graph_adjacency
        return np.asarray(features, dtype=np.float64)

    def trigger_for_node(self, node_input: np.ndarray) -> Tuple[Tensor, Tensor]:
        """Return the shared differentiable trigger regardless of the node."""
        del node_input
        bounded = F.tanh(self.trigger_features) * self._feature_bound
        return bounded, Tensor(self._structure)

    def triggers_for_nodes(self, node_inputs: np.ndarray) -> Tuple[Tensor, Tensor]:
        """The shared trigger broadcast over the batch, gradients accumulating."""
        batch = np.asarray(node_inputs).shape[0]
        t = self.config.trigger_size
        bounded = F.tanh(self.trigger_features) * self._feature_bound
        # Broadcasting multiply tiles the (t, d) block to (B, t, d); the
        # mul-vjp un-broadcasts by summing over the batch axis, so every
        # node's gradient flows back into the single shared trigger.
        ones = Tensor(np.ones((batch, 1, 1)))
        features = ones * bounded.reshape(1, t, self.num_features)
        structures = np.repeat(self._structure[None, :, :], batch, axis=0)
        return features, Tensor(structures)

    def generate(self, node_inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Tile the shared trigger for each requested node."""
        node_inputs = np.asarray(node_inputs, dtype=np.float64)
        count = node_inputs.shape[0]
        bounded = np.tanh(self.trigger_features.data) * self._feature_bound
        features = np.repeat(bounded[None, :, :], count, axis=0)
        adjacency = np.repeat(self._structure[None, :, :], count, axis=0)
        return features, adjacency


def _local_node_set(csr, node: int, max_neighbors: int) -> np.ndarray:
    """Center-first local node set of ``node`` with degree-capped sampling.

    High-degree nodes sample ``max_neighbors`` neighbours with a per-node
    deterministic rng, so the per-node and batched loss paths (and repeated
    epochs) see identical computation graphs for the same node.
    """
    neighbors = csr.indices[csr.indptr[node] : csr.indptr[node + 1]]
    if neighbors.size > max_neighbors:
        neighbors = np.sort(
            np.random.default_rng(node).choice(neighbors, size=max_neighbors, replace=False)
        )
    return np.concatenate(([node], neighbors)).astype(np.int64)


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

    This is the *reference* path: :func:`batched_local_trigger_loss` computes
    the same quantity for a whole batch in a single autograd graph and is
    pinned to this function by equivalence tests.
    """
    from repro.condensation.gradient_matching import normalize_dense_tensor

    trigger_features, trigger_structure = generator.trigger_for_node(encoder_inputs[node])
    trigger_size = trigger_features.shape[0]

    local = _local_node_set(graph.adjacency, node, max_neighbors)
    n_local = local.size
    csr = graph.adjacency

    base = csr[local][:, local].toarray()
    connector_cols = np.zeros((n_local, trigger_size))
    connector_cols[0, 0] = 1.0
    connector_rows = np.zeros((trigger_size, n_local))
    connector_rows[0, 0] = 1.0

    top = Tensor.concatenate([Tensor(base), Tensor(connector_cols)], axis=1)
    bottom = Tensor.concatenate([Tensor(connector_rows), trigger_structure], axis=1)
    local_adjacency = Tensor.concatenate([top, bottom], axis=0)
    normalized = normalize_dense_tensor(local_adjacency)

    host_projection = graph.features[local] @ surrogate_weight.data
    trigger_projection = trigger_features.matmul(surrogate_weight)
    projected = Tensor.concatenate([Tensor(host_projection), trigger_projection], axis=0)

    hidden = projected
    for _ in range(num_hops):
        hidden = normalized.matmul(hidden)
    return F.cross_entropy(hidden[0:1], np.array([target_class]))


def _batched_gcn_normalize(adjacency: Tensor) -> Tensor:
    """Batched differentiable GCN normalisation of ``(B, m, m)`` blocks.

    Elementwise identical to applying
    :func:`repro.condensation.gradient_matching.normalize_dense_tensor` to
    each block (same self-loop handling and epsilon).  Delegates to the fused
    :func:`repro.autograd.functional.batched_gcn_normalize` — one analytic
    vjp instead of a six-primitive chain, which dominated the cost of an
    attack-epoch generator step.
    """
    return F.batched_gcn_normalize(adjacency)


def batched_local_trigger_loss(
    nodes: np.ndarray,
    graph,
    encoder_inputs: np.ndarray,
    generator,
    surrogate_weight: Tensor,
    target_class: int,
    max_neighbors: int = 10,
    num_hops: int = 2,
    scaffold_cache: dict | None = None,
) -> Tensor:
    """Mean of :func:`local_trigger_loss` over ``nodes`` as ONE autograd graph.

    Each node's local computation graph (sampled 1-hop neighbourhood plus
    trigger block) is an independent connected component, so the whole batch
    is propagated as a block-diagonal system: local sets are padded to a
    common width with isolated filler rows (a filler row carries only its
    self-loop, so no real row ever reads it), stacked into ``(B, m, m)``
    blocks, normalised and propagated with batched dense ops.  The result
    matches averaging the per-node reference to float rounding — values *and*
    gradients — while replacing ``B`` small autograd graphs with one.

    ``scaffold_cache`` memoises each node's constant scaffold — its local
    node set, the induced host adjacency block and the host feature rows —
    across calls.  The scaffold depends only on the graph and
    ``max_neighbors``, both fixed across the generator steps and attack
    epochs of one attack run, while the sparse gathers that build it
    dominated the per-step cost; the projection through ``surrogate_weight``
    is *not* cached (the surrogate changes every epoch).  Pass a dict owned
    by the attack run; ``None`` computes everything fresh.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.ndim != 1 or nodes.size == 0:
        raise AttackError(f"nodes must be a non-empty 1-D array, got shape {nodes.shape}")
    batch = nodes.size
    csr = graph.adjacency
    scaffolds = []
    for node in nodes:
        key = int(node)
        entry = scaffold_cache.get(key) if scaffold_cache is not None else None
        if entry is None:
            local = _local_node_set(csr, key, max_neighbors)
            entry = (
                local,
                csr[local][:, local].toarray(),
                np.asarray(graph.features[local], dtype=np.float64),
            )
            if scaffold_cache is not None:
                scaffold_cache[key] = entry
        scaffolds.append(entry)
    n_host = max(entry[0].size for entry in scaffolds)

    trigger_features, trigger_structures = generator.triggers_for_nodes(
        encoder_inputs[nodes]
    )
    trigger_size = trigger_features.shape[1]
    m = n_host + trigger_size

    # Per-node scaffolds placed into zero-padded batch blocks: filler
    # rows/columns are exactly zero by construction, so no validity masking
    # is needed, and each node's block is identical on every call.
    num_features = int(np.asarray(scaffolds[0][2]).shape[1])
    host_blocks = np.zeros((batch, n_host, n_host), dtype=np.float64)
    host_features = np.zeros((batch, n_host, num_features), dtype=np.float64)
    for i, (local, block, feats) in enumerate(scaffolds):
        size = local.size
        host_blocks[i, :size, :size] = block
        host_features[i, :size] = feats

    # Constant scaffold: host adjacency + host<->trigger connector edges; the
    # differentiable trigger structures are embedded as the trailing blocks.
    base = np.zeros((batch, m, m), dtype=np.float64)
    base[:, :n_host, :n_host] = host_blocks
    base[:, 0, n_host] = 1.0
    base[:, n_host, 0] = 1.0
    local_adjacency = F.embed_blocks(base, trigger_structures, n_host, n_host)
    normalized = _batched_gcn_normalize(local_adjacency)

    # Project features through the surrogate before propagation, as in the
    # reference: host rows are constants, trigger rows carry gradients.
    host_projection = (
        host_features.reshape(batch * n_host, num_features) @ surrogate_weight.data
    ).reshape(batch, n_host, -1)
    num_classes = surrogate_weight.shape[1]
    trigger_projection = (
        trigger_features.reshape(batch * trigger_size, -1)
        .matmul(surrogate_weight)
        .reshape(batch, trigger_size, num_classes)
    )
    projected = Tensor.concatenate(
        [Tensor(host_projection), trigger_projection], axis=1
    )

    hidden = projected
    for _ in range(num_hops):
        hidden = F.batched_matmul(normalized, hidden)
    center_logits = hidden[:, 0, :]
    return F.cross_entropy(center_logits, np.full(batch, target_class, dtype=np.int64))
