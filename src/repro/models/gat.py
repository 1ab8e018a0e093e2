"""Graph Attention Network (Velickovic et al., 2018) on the numpy autograd engine.

The layer is expressed entirely in :class:`~repro.autograd.tensor.Tensor`
primitives — gathers (``index_rows``), elementwise ops and constant-sparse
matmuls — so forward and backward ride the kernel backend like every
other model.  Per-destination softmax over incoming edges is computed with a
*detached* per-segment max shift (softmax is shift-invariant, so gradients
stay exact) and segment sums expressed as ``S @ x`` where ``S`` is the
constant ``(N, E)`` destination-incidence matrix.

Weighted adjacencies (dense condensed graphs) are supported by folding the
edge weight multiplicatively into the unnormalised attention coefficient;
self-loops are added for nodes that lack one, matching the reference
implementation's ``A + I`` convention.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd import Linear, Module, Tensor
from repro.autograd import functional as F
from repro.autograd.tensor import sparse_matmul
from repro.exceptions import ConfigurationError
from repro.models.base import Adjacency, NodeClassifier
from repro.registry import MODELS


def _edge_list(adjacency: Adjacency) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edge list ``(dst, src, weight)`` with self-loops guaranteed.

    Row index is the receiver (matching ``A @ X`` propagation).  Nodes whose
    diagonal entry is zero get a unit self-loop appended; existing diagonal
    entries keep their weight.
    """
    if sp.issparse(adjacency):
        coo = adjacency.tocoo()
        dst, src, weight = coo.row, coo.col, coo.data.astype(np.float64)
        diagonal = adjacency.diagonal()
    else:
        dense = np.asarray(adjacency, dtype=np.float64)
        dst, src = np.nonzero(dense)
        weight = dense[dst, src]
        diagonal = np.diagonal(dense)
    missing = np.flatnonzero(diagonal == 0)
    if missing.size:
        dst = np.concatenate([dst, missing])
        src = np.concatenate([src, missing])
        weight = np.concatenate([weight, np.ones(missing.size)])
    return dst.astype(np.int64), src.astype(np.int64), weight


def _segment_softmax(
    scores: Tensor, weight: np.ndarray, dst: np.ndarray, incidence: sp.csr_matrix
) -> Tensor:
    """Softmax of per-edge ``scores`` over each destination's incoming edges.

    ``weight`` scales the exponentiated coefficient (unit for unweighted
    graphs), and the per-destination max shift is a detached constant —
    softmax is shift-invariant, so the gradient through ``scores`` is exact.
    """
    num_nodes = incidence.shape[0]
    shift = np.full(num_nodes, -np.inf)
    np.maximum.at(shift, dst, scores.data[:, 0])
    shifted = scores - Tensor(shift[dst][:, None])
    weighted = shifted.exp() * Tensor(weight[:, None])
    denominator = sparse_matmul(incidence, weighted)
    return weighted / denominator.index_rows(dst)


class GATLayer(Module):
    """One multi-head attention layer: ``heads`` independent attention maps.

    Head outputs are concatenated when ``concat_heads`` (hidden layers) and
    averaged otherwise (the output layer), per the reference architecture.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        heads: int = 1,
        concat_heads: bool = True,
        negative_slope: float = 0.2,
    ) -> None:
        super().__init__()
        if heads < 1:
            raise ConfigurationError(f"heads must be >= 1, got {heads}")
        self.heads = heads
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        for head in range(heads):
            self.register_module(
                f"proj_{head}", Linear(in_features, out_features, rng=rng, bias=True)
            )
            self.register_module(
                f"att_src_{head}", Linear(out_features, 1, rng=rng, bias=False)
            )
            self.register_module(
                f"att_dst_{head}", Linear(out_features, 1, rng=rng, bias=False)
            )

    def forward(
        self,
        x: Tensor,
        dst: np.ndarray,
        src: np.ndarray,
        weight: np.ndarray,
        incidence: sp.csr_matrix,
    ) -> Tensor:
        outputs = []
        for head in range(self.heads):
            projected = getattr(self, f"proj_{head}")(x)
            score_src = getattr(self, f"att_src_{head}")(projected)
            score_dst = getattr(self, f"att_dst_{head}")(projected)
            edge_scores = F.leaky_relu(
                score_src.index_rows(src) + score_dst.index_rows(dst),
                negative_slope=self.negative_slope,
            )
            attention = _segment_softmax(edge_scores, weight, dst, incidence)
            messages = attention * projected.index_rows(src)
            outputs.append(sparse_matmul(incidence, messages))
        if len(outputs) == 1:
            return outputs[0]
        if self.concat_heads:
            return Tensor.concatenate(outputs, axis=1)
        total = outputs[0]
        for head_output in outputs[1:]:
            total = total + head_output
        return total * (1.0 / len(outputs))


@MODELS.register("gat")
class GAT(NodeClassifier):
    """Multi-layer GAT: concatenated attention heads on hidden layers,
    averaged heads on the output layer, ReLU + dropout between layers.

    ``hidden`` is the total hidden width: each of the ``heads`` hidden-layer
    heads produces ``max(hidden // heads, 1)`` features.
    """

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int = 64,
        num_layers: int = 2,
        dropout: float = 0.5,
        heads: int = 2,
        negative_slope: float = 0.2,
    ) -> None:
        super().__init__(in_features, num_classes)
        if num_layers < 1:
            raise ConfigurationError(f"num_layers must be >= 1, got {num_layers}")
        if heads < 1:
            raise ConfigurationError(f"heads must be >= 1, got {heads}")
        self.num_layers = num_layers
        self.dropout_rate = dropout
        self._rng = rng
        head_dim = max(hidden // heads, 1)
        dims = [in_features] + [head_dim * heads] * (num_layers - 1) + [num_classes]
        for index in range(num_layers):
            is_output = index == num_layers - 1
            layer = GATLayer(
                dims[index],
                num_classes if is_output else head_dim,
                rng=rng,
                heads=heads,
                concat_heads=not is_output,
                negative_slope=negative_slope,
            )
            self.register_module(f"gat_{index}", layer)

    def forward(self, adjacency: Adjacency, features: Union[np.ndarray, Tensor]) -> Tensor:
        dst, src, weight = _edge_list(adjacency)
        num_nodes = adjacency.shape[0]
        incidence = sp.csr_matrix(
            (np.ones(dst.size), (dst, np.arange(dst.size))),
            shape=(num_nodes, dst.size),
        )
        hidden = self.as_tensor(features)
        for index in range(self.num_layers):
            layer: GATLayer = getattr(self, f"gat_{index}")
            hidden = layer(hidden, dst, src, weight, incidence)
            if index < self.num_layers - 1:
                hidden = F.relu(hidden)
                hidden = F.dropout(hidden, self.dropout_rate, self._rng, training=self.training)
        return hidden
