"""Shared infrastructure for node-classification models."""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.autograd import Module, Tensor
from repro.autograd.tensor import sparse_matmul
from repro.graph.cache import get_default_cache
from repro.graph.normalize import dense_gcn_normalize, gcn_normalize
from repro.registry import MODELS

Adjacency = Union[sp.spmatrix, np.ndarray]


def normalize_adjacency(adjacency: Adjacency, add_loops: bool = True) -> Adjacency:
    """GCN-normalise either a sparse or a dense adjacency matrix.

    The default sparse path is memoised in the shared
    :class:`~repro.graph.cache.PropagationCache`: full-batch training calls
    ``forward`` (and therefore normalisation) once per epoch on the same
    adjacency, so the memo turns hundreds of ``gcn_normalize`` passes per fit
    into one.  Dense (condensed-graph) adjacencies are tiny and stay
    uncached, as does the rare ``add_loops=False`` variant.
    """
    if sp.issparse(adjacency):
        if add_loops:
            return get_default_cache().normalized_adjacency(adjacency)
        return gcn_normalize(adjacency, add_loops=False)
    return dense_gcn_normalize(np.asarray(adjacency), add_loops=add_loops)


def propagate(operator: Adjacency, x: Tensor) -> Tensor:
    """Multiply a (constant) propagation operator by a dense tensor."""
    if sp.issparse(operator):
        return sparse_matmul(operator, x)
    return Tensor(np.asarray(operator, dtype=np.float64)).matmul(x)


class NodeClassifier(Module):
    """Base class: a module mapping ``(adjacency, features)`` to node logits."""

    def __init__(self, in_features: int, num_classes: int) -> None:
        super().__init__()
        self.in_features = in_features
        self.num_classes = num_classes

    def forward(self, adjacency: Adjacency, features: Union[np.ndarray, Tensor]) -> Tensor:
        raise NotImplementedError

    def predict(self, adjacency: Adjacency, features: Union[np.ndarray, Tensor]) -> np.ndarray:
        """Return hard label predictions for every node."""
        from repro.autograd.tensor import no_grad

        was_training = self.training
        self.eval()
        with no_grad():
            logits = self.forward(adjacency, features)
        if was_training:
            self.train()
        return np.argmax(logits.data, axis=1)

    @staticmethod
    def as_tensor(features: Union[np.ndarray, Tensor]) -> Tensor:
        return features if isinstance(features, Tensor) else Tensor(features)


def available_architectures() -> list[str]:
    """Names accepted by :func:`make_model` (the Table III architectures)."""
    return MODELS.available()


def make_model(
    name: str,
    in_features: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden: int = 64,
    num_layers: int = 2,
    dropout: float = 0.5,
) -> NodeClassifier:
    """Instantiate an architecture by name (``gcn``, ``sgc``, ``sage``, ...)."""
    return MODELS.build(
        name,
        in_features=in_features,
        num_classes=num_classes,
        rng=rng,
        hidden=hidden,
        num_layers=num_layers,
        dropout=dropout,
    )
