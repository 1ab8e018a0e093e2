"""The dense-feature selector that the sparse-input selector replaced."""

from __future__ import annotations

import numpy as np

from repro.attack.selection import RepresentativeNodeSelector
from repro.autograd import functional as F
from repro.autograd.tensor import no_grad
from repro.graph.data import GraphData
from repro.models.base import normalize_adjacency, propagate
from repro.models.gcn import GCN
from repro.models.trainer import Trainer, TrainingConfig


class DenseFeatureSelector(RepresentativeNodeSelector):
    """Eq. 9 selection whose selector GCN reads ``graph.features`` densely.

    Same model, rng draws and training loop as the production selector; only
    the first layer's ``X W`` and ``Xᵀ G`` run as dense products, so the
    hidden representations agree to rounding.
    """

    def _node_representations(
        self, graph: GraphData, rng: np.random.Generator
    ) -> np.ndarray:
        selector = GCN(
            graph.num_features,
            graph.num_classes,
            rng=rng,
            hidden=self.config.selector_hidden,
            num_layers=2,
        )
        trainer = Trainer(
            selector,
            TrainingConfig(epochs=self.config.selector_epochs, patience=self.config.selector_epochs),
        )
        val_index = graph.split.val if graph.split.val.size else None
        trainer.fit(
            graph.adjacency, graph.features, graph.labels, graph.split.train, val_index
        )
        selector.eval()
        with no_grad():
            operator = normalize_adjacency(graph.adjacency)
            hidden = propagate(operator, selector.conv_0(selector.as_tensor(graph.features)))
            hidden = F.relu(hidden)
        return hidden.data
