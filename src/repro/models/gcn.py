"""Graph Convolutional Network (Kipf & Welling, 2017)."""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.autograd import Linear, Tensor
from repro.autograd import functional as F
from repro.exceptions import ConfigurationError
from repro.models.base import Adjacency, NodeClassifier, normalize_adjacency, propagate
from repro.registry import MODELS


@MODELS.register("gcn")
class GCN(NodeClassifier):
    """Multi-layer GCN with ReLU activations and dropout.

    The layer count is configurable (1-3 layers are used in Table VIII); the
    default of two layers matches the paper's test model.
    """

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int = 64,
        num_layers: int = 2,
        dropout: float = 0.5,
    ) -> None:
        super().__init__(in_features, num_classes)
        if num_layers < 1:
            raise ConfigurationError(f"num_layers must be >= 1, got {num_layers}")
        self.num_layers = num_layers
        self.dropout_rate = dropout
        self._rng = rng
        dims = [in_features] + [hidden] * (num_layers - 1) + [num_classes]
        for index in range(num_layers):
            layer = Linear(dims[index], dims[index + 1], rng=rng, bias=True)
            self.register_module(f"conv_{index}", layer)

    def forward(
        self, adjacency: Adjacency, features: Union[np.ndarray, Tensor, sp.spmatrix]
    ) -> Tensor:
        operator = normalize_adjacency(adjacency)
        # Sparse features go to the first Linear as a constant sparse operand.
        hidden = features if sp.issparse(features) else self.as_tensor(features)
        for index in range(self.num_layers):
            layer: Linear = getattr(self, f"conv_{index}")
            hidden = propagate(operator, layer(hidden))
            if index < self.num_layers - 1:
                hidden = F.relu(hidden)
                hidden = F.dropout(hidden, self.dropout_rate, self._rng, training=self.training)
        return hidden
