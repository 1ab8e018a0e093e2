"""Structure-agnostic multi-layer perceptron baseline."""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.autograd import Linear, Tensor
from repro.autograd import functional as F
from repro.exceptions import ConfigurationError
from repro.models.base import Adjacency, NodeClassifier
from repro.registry import MODELS


@MODELS.register("mlp")
class MLP(NodeClassifier):
    """Plain MLP that ignores the adjacency matrix entirely (Table III row)."""

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
            self.register_module(f"fc_{index}", Linear(dims[index], dims[index + 1], rng=rng))

    def feature_weights(self) -> List[np.ndarray]:
        """The first layer's weight."""
        return [self.fc_0.weight.data]

    def forward(self, adjacency: Adjacency, features: Union[np.ndarray, Tensor]) -> Tensor:
        del adjacency  # structure-agnostic by design
        hidden = features  # the first Linear takes stacked features as they are
        for index in range(self.num_layers):
            layer: Linear = getattr(self, f"fc_{index}")
            hidden = layer(hidden)
            if index < self.num_layers - 1:
                hidden = F.relu(hidden)
                hidden = F.dropout(hidden, self.dropout_rate, self._rng, training=self.training)
        return hidden
