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
from repro.autograd.tensor import no_grad
from repro.exceptions import AttackError
from repro.graph.blocked import blocked_threshold
from repro.graph.cache import get_default_cache
from repro.graph.propagation import sgc_precompute
from repro.graph.view import ChunkedRows
from repro.kernels import active_backend
from repro.models.transformer import TransformerEncoderLayer
from repro.utils.validation import at_least, check_fields, checked, choice, real


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

    trigger_size: int = checked(4, at_least(1))
    hidden: int = checked(64, at_least(1))
    encoder: str = checked("mlp", choice("mlp", "gcn", "transformer"))
    learning_rate: float = checked(0.01, real(above=0))
    feature_scale: float = checked(0.1, real(at_least=0))
    num_hops: int = checked(2, at_least(0))

    def __post_init__(self) -> None:
        check_fields(self, AttackError)


def feature_magnitude(features) -> float:
    """``max|X|`` of a feature matrix, or 1.0 for an all-zero one.

    ``max(X.max(), −X.min())`` is ``np.abs(X).max()`` exactly (negation
    does not round, and a NaN propagates through both), without the
    ``(N, F)`` copy ``np.abs`` makes.
    """
    features = np.asarray(features)
    magnitude = float(max(features.max(), -features.min()))
    return 1.0 if magnitude <= 0.0 else magnitude


class TriggerGenerator(Module):
    """Generates per-node trigger features and structure from node representations.

    :meth:`triggers_for_nodes` is the differentiable batch the generator
    trains through; :meth:`generate` gives hard numpy triggers of shapes
    ``(n, t, d)`` and ``(n, t, t)`` for poisoning and evaluation; its pinned
    tape reference is ``tests/reference/trigger.py``.
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
        self._feature_bound = self.config.feature_scale * feature_magnitude(host_features)

    def encode_inputs(self, graph_adjacency, features: np.ndarray, graph=None) -> np.ndarray:
        """Prepare the raw encoder inputs for a set of nodes.

        The MLP and Transformer encoders consume raw node features; the GCN
        encoder consumes SGC-propagated features so that graph structure
        informs the triggers, mirroring Eq. 10.  Given the ``graph`` that
        ``graph_adjacency`` and ``features`` belong to, the GCN encoder reads
        its ``Â^K X`` from the propagation cache when that is a base graph
        whose chain stays in memory: the cache computes it with the same
        ``gcn_normalize`` and spmm chain, so the bytes are the same, and
        keeps the whole product for every later reader of it.  A derived
        graph (cached in difference form) or one above the blocked
        threshold is propagated here.
        """
        if self.config.encoder != "gcn":
            return np.asarray(features, dtype=np.float64)
        if (
            graph is not None
            and graph.derivation is None
            and graph.num_nodes * graph.num_features <= blocked_threshold()
        ):
            return get_default_cache().propagated(graph, self.config.num_hops)
        return sgc_precompute(graph_adjacency, features, self.config.num_hops)

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
        what the per-node reference (``tests/reference/trigger.py``)
        computes one node at a time.
        """
        if self.config.encoder == "transformer":
            projected = self.input_projection(inputs)
            return self.encoder_block.forward_per_token(projected)
        return self._encode(inputs)

    # -------------------------------------------------------------- #
    # Generation
    # -------------------------------------------------------------- #
    def triggers_for_nodes(self, node_inputs: np.ndarray) -> Tuple[Tensor, Tensor]:
        """Differentiable triggers for a whole batch in one forward pass.

        Returns ``(features, structures)`` with shapes ``(B, t, d)`` and
        ``(B, t, t)``; row ``i`` equals the trigger of input ``i`` alone
        (up to float rounding), but the batch shares one autograd graph.
        Row independence is preserved for every encoder — the transformer
        encoder runs per-token (see :meth:`_encode_rowwise`) rather than
        attending across whichever nodes happen to share the batch.
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
        ``(n, t, t)``; the adjacency is binary and symmetric: the
        :meth:`feature_rows` and :meth:`structures` of the batch's
        :meth:`encode`.
        """
        encoded = self.encode(node_inputs)
        return self.feature_rows(encoded), self.structures(encoded)

    def encode(self, node_inputs: np.ndarray) -> np.ndarray:
        """The encoder output ``(n, hidden)`` of a batch of node inputs.

        The mlp and gcn encoders are row-wise, so a batch may be encoded in
        parts; the transformer encoder attends across its whole batch.
        """
        node_inputs = np.asarray(node_inputs, dtype=np.float64)
        if node_inputs.ndim != 2:
            raise AttackError(f"node_inputs must be 2-D, got shape {node_inputs.shape}")
        with no_grad():
            return self._encode(Tensor(node_inputs)).data

    @property
    def row_wise(self) -> bool:
        """Whether :meth:`encode` treats each row on its own."""
        return self.config.encoder != "transformer"

    def feature_rows(self, encoded: np.ndarray) -> np.ndarray:
        """The ``(n, t, d)`` trigger features of encoded nodes.

        The feature head ``tanh(h W + b) · bound`` is computed in place in
        one ``(n, t·d)`` array.  Each in-place step rounds as the tape's
        fresh array does (pinned byte for byte against
        ``tests/reference/trigger.py``).
        """
        head = self.feature_head
        flat_features = active_backend().matmul(encoded, head.weight.data)
        flat_features += head.bias.data
        np.tanh(flat_features, out=flat_features)
        flat_features *= self._feature_bound
        return flat_features.reshape(-1, self.config.trigger_size, self.num_features)

    def structures(self, encoded: np.ndarray) -> np.ndarray:
        """The ``(n, t, t)`` binary, symmetric, loop-free trigger adjacency."""
        t = self.config.trigger_size
        with no_grad():
            soft = F.sigmoid(self.structure_head(Tensor(encoded))).data.reshape(-1, t, t)
        symmetric = (soft + np.transpose(soft, (0, 2, 1))) * 0.5
        adjacency = (symmetric > 0.5).astype(np.float64)
        diagonal = np.arange(t)
        adjacency[:, diagonal, diagonal] = 0.0
        return adjacency


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


def streamed_triggers(generator, graph, nodes: np.ndarray) -> Tuple[ChunkedRows, np.ndarray]:
    """Hard triggers for ``nodes`` of ``graph``, their feature rows left to be generated.

    Returns what :func:`generate_hard_triggers` does, except that the
    ``(n, t, d)`` features are a :class:`~repro.graph.view.ChunkedRows`
    holding the ``(n, hidden)`` encoder output: its rows are the feature
    head of a chunk of nodes at a time.  A row-wise encoder also runs per
    chunk, so no ``(n, d)`` block of node inputs is gathered; the
    transformer encoder runs once, since it attends across its batch.
    Chunked rows round as a smaller gemm does, so they match
    :meth:`~TriggerGenerator.generate`'s to float rounding.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    inputs = generator.encode_inputs(graph.adjacency, graph.features, graph)
    t, width = generator.config.trigger_size, generator.num_features
    step = ChunkedRows.items_per_chunk(t, width) if generator.row_wise else max(nodes.size, 1)
    encoded = np.concatenate(
        [
            generator.encode(inputs[nodes[start : start + step]])
            for start in range(0, max(nodes.size, 1), step)
        ]
    )
    return (
        ChunkedRows(generator.feature_rows, encoded, t, width),
        generator.structures(encoded),
    )


class UniversalTriggerGenerator(Module):
    """A single shared trigger applied identically to every node.

    This is the DOORPING-style trigger: one learnable block of trigger-node
    features with a fixed fully connected internal structure.  It exposes the
    same ``encode_inputs`` / ``generate`` / ``triggers_for_nodes`` interface
    (and the ``encode`` / ``feature_rows`` / ``structures`` parts of
    ``generate``) as :class:`TriggerGenerator` so the attack and evaluation
    code can use either interchangeably.
    """

    #: Every node gets the same trigger, so a batch may be split anywhere.
    row_wise = True

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
        self._feature_bound = self.config.feature_scale * feature_magnitude(host_features)

    def encode_inputs(self, graph_adjacency, features: np.ndarray, graph=None) -> np.ndarray:
        """Node inputs are irrelevant for a universal trigger; pass features through."""
        del graph_adjacency, graph
        return np.asarray(features, dtype=np.float64)

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
        encoded = self.encode(node_inputs)
        return self.feature_rows(encoded), self.structures(encoded)

    def encode(self, node_inputs: np.ndarray) -> np.ndarray:
        """An empty ``(n, 0)`` state per node: the trigger reads no input."""
        return np.empty((np.asarray(node_inputs).shape[0], 0))

    def feature_rows(self, encoded: np.ndarray) -> np.ndarray:
        """The shared ``(t, d)`` block tiled ``(n, t, d)`` for ``n`` nodes."""
        bounded = np.tanh(self.trigger_features.data) * self._feature_bound
        return np.repeat(bounded[None, :, :], encoded.shape[0], axis=0)

    def structures(self, encoded: np.ndarray) -> np.ndarray:
        """The fixed fully connected structure tiled ``(n, t, t)``."""
        return np.repeat(self._structure[None, :, :], encoded.shape[0], axis=0)


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


def _local_scaffolds(graph, nodes: list, max_neighbors: int) -> list:
    """Each node's scaffold: its local node set and the adjacency block that
    set induces (its feature rows are read from the graph when a batch uses
    it, so a scaffold holds no copy of them).

    One pass for all of ``nodes``: one ``csr[rows]`` gather over the
    concatenated sets, then each stored entry keeps its column wherever that
    column lies in its row's own set (one ``searchsorted`` on ``owner * N +
    node`` keys), and ``bincount`` sums the kept values into a ``(k, m, m)``
    stack in stored order from zero, as ``toarray`` does.  Each block is
    therefore byte-equal to ``csr[local][:, local].toarray()``, the per-node
    expression pinned in ``tests/reference/trigger.py``.
    """
    csr = graph.adjacency
    sets = [_local_node_set(csr, node, max_neighbors) for node in nodes]
    sizes = np.array([local.size for local in sets])
    rows = np.concatenate(sets)
    count, width = sizes.size, int(sizes.max())
    offsets = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(count), sizes)
    position = np.arange(rows.size) - offsets[owner]
    gathered = csr[rows]
    entry_row = np.repeat(np.arange(rows.size), np.diff(gathered.indptr))
    # Where each entry's column lies in its row's set; a set holding a node
    # twice matches it twice, as the per-node column gather does.
    num_nodes = csr.shape[1]
    set_keys = owner * num_nodes + rows
    order = np.argsort(set_keys, kind="stable")
    set_keys = set_keys[order]
    keys = owner[entry_row] * num_nodes + gathered.indices
    first = np.searchsorted(set_keys, keys, side="left")
    matches = np.searchsorted(set_keys, keys, side="right") - first
    kept = np.repeat(np.arange(keys.size), matches)
    rank = np.arange(kept.size) - np.repeat(np.cumsum(matches) - matches, matches)
    column = position[order[first[kept] + rank]]
    row = entry_row[kept]
    flat = (owner[row] * width + position[row]) * width + column
    blocks = np.bincount(
        flat, weights=gathered.data[kept], minlength=count * width * width
    ).reshape(count, width, width)
    return [
        (local, blocks[i, :size, :size])
        for i, (local, size) in enumerate(zip(sets, sizes.tolist()))
    ]


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
    """Mean surrogate cross-entropy of trigger-attached ``nodes``, as ONE autograd graph.

    A node's loss is taken on its local computation graph (sampled 1-hop
    neighbourhood plus trigger block), with features projected through the
    surrogate weight before propagation.  Each such graph is an independent
    connected component, so the whole batch is propagated as a
    block-diagonal system: local sets are padded to a common width with
    isolated filler rows (a filler row carries only its self-loop, so no
    real row ever reads it), stacked into ``(B, m, m)`` blocks, normalised
    and propagated with batched dense ops.  The result matches averaging the
    per-node reference loop (``tests/reference/trigger.py``) to float
    rounding — values *and* gradients — while replacing ``B`` small autograd
    graphs with one.

    ``scaffold_cache`` memoises each node's constant scaffold — its local
    node set and the induced host adjacency block — across calls.  The
    scaffold depends only on the graph and ``max_neighbors``, both fixed
    across the generator steps and attack epochs of one attack run; the
    nodes a call finds uncached are built in one pass
    (:func:`_local_scaffolds`).  The host feature rows are gathered from
    ``graph.features`` into the padded batch block on every call, and the
    projection through ``surrogate_weight`` is *not* cached (the surrogate
    changes every epoch).  Pass a dict owned by the attack run; ``None``
    computes everything fresh.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.ndim != 1 or nodes.size == 0:
        raise AttackError(f"nodes must be a non-empty 1-D array, got shape {nodes.shape}")
    batch = nodes.size
    keys = nodes.tolist()
    cache = scaffold_cache if scaffold_cache is not None else {}
    missing = [key for key in dict.fromkeys(keys) if key not in cache]
    if missing:
        cache.update(zip(missing, _local_scaffolds(graph, missing, max_neighbors)))
    scaffolds = [cache[key] for key in keys]
    n_host = max(entry[0].size for entry in scaffolds)

    trigger_features, trigger_structures = generator.triggers_for_nodes(
        encoder_inputs[nodes]
    )
    trigger_size = trigger_features.shape[1]
    m = n_host + trigger_size

    # Per-node scaffolds placed into zero-padded batch blocks: filler
    # rows/columns are exactly zero by construction, so no validity masking
    # is needed, and each node's block is identical on every call.
    features = graph.features
    num_features = features.shape[1]
    host_blocks = np.zeros((batch, n_host, n_host), dtype=np.float64)
    host_features = np.zeros((batch, n_host, num_features), dtype=np.float64)
    for i, (local, block) in enumerate(scaffolds):
        size = local.size
        host_blocks[i, :size, :size] = block
        host_features[i, :size] = features[local]

    # Constant scaffold: host adjacency + host<->trigger connector edges; the
    # differentiable trigger structures are embedded as the trailing blocks.
    base = np.zeros((batch, m, m), dtype=np.float64)
    base[:, :n_host, :n_host] = host_blocks
    base[:, 0, n_host] = 1.0
    base[:, n_host, 0] = 1.0
    local_adjacency = F.embed_blocks(base, trigger_structures, n_host, n_host)
    normalized = F.batched_gcn_normalize(local_adjacency)

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
