"""APPNP: predict then propagate with personalised PageRank (Gasteiger et al., 2019)."""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.autograd import Linear, Tensor
from repro.autograd import functional as F
from repro.exceptions import ConfigurationError
from repro.models.base import Adjacency, NodeClassifier, normalize_adjacency, propagate
from repro.registry import MODELS


@MODELS.register("appnp")
class APPNP(NodeClassifier):
    """Two-layer MLP predictor followed by K steps of PPR propagation."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int = 64,
        num_layers: int = 2,
        dropout: float = 0.5,
        num_propagations: int = 10,
        teleport: float = 0.1,
    ) -> None:
        super().__init__(in_features, num_classes)
        if not 0.0 < teleport <= 1.0:
            raise ConfigurationError(f"teleport must lie in (0, 1], got {teleport}")
        if num_propagations < 1:
            raise ConfigurationError(f"num_propagations must be >= 1, got {num_propagations}")
        del num_layers  # predictor depth is fixed at two layers as in the paper
        self.num_propagations = num_propagations
        self.teleport = teleport
        self.dropout_rate = dropout
        self._rng = rng
        self.fc1 = Linear(in_features, hidden, rng=rng)
        self.fc2 = Linear(hidden, num_classes, rng=rng)

    def feature_weights(self) -> List[np.ndarray]:
        """The predictor's first layer weight."""
        return [self.fc1.weight.data]

    def forward(self, adjacency: Adjacency, features: Union[np.ndarray, Tensor]) -> Tensor:
        operator = normalize_adjacency(adjacency)
        # fc1 takes stacked features as they are.
        hidden = F.relu(self.fc1(features))
        hidden = F.dropout(hidden, self.dropout_rate, self._rng, training=self.training)
        predictions = self.fc2(hidden)
        state = predictions
        for _ in range(self.num_propagations):
            state = propagate(operator, state) * (1.0 - self.teleport) + predictions * self.teleport
        return state
