"""Simple Graph Convolution (Wu et al., 2019).

SGC removes nonlinearities: logits are ``Â^K X W``.  Because it is linear in
``W``, its parameter gradient has a closed form — this is why the condensers
use it as their surrogate backbone (see ``repro.condensation``).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.autograd import Linear, Tensor
from repro.exceptions import ConfigurationError
from repro.models.base import Adjacency, NodeClassifier, normalize_adjacency, propagate
from repro.registry import MODELS


@MODELS.register("sgc")
class SGC(NodeClassifier):
    """K-hop simplified graph convolution (default K = 2)."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int = 64,
        num_layers: int = 2,
        dropout: float = 0.0,
    ) -> None:
        super().__init__(in_features, num_classes)
        if num_layers < 1:
            raise ConfigurationError(f"num_layers (hops) must be >= 1, got {num_layers}")
        self.num_hops = num_layers
        self.linear = Linear(in_features, num_classes, rng=rng, bias=True)

    def forward(self, adjacency: Adjacency, features: Union[np.ndarray, Tensor]) -> Tensor:
        operator = normalize_adjacency(adjacency)
        hidden = self.as_tensor(features)
        for _ in range(self.num_hops):
            hidden = propagate(operator, hidden)
        return self.linear(hidden)
