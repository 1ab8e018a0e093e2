"""Graph Convolutional Network (Kipf & Welling, 2017)."""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd import Adam, Linear, Tensor
from repro.autograd import functional as F
from repro.autograd.functional import _weighted_targets
from repro.exceptions import ConfigurationError
from repro.kernels import active_backend
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

    def feature_weights(self) -> List[np.ndarray]:
        """The first convolution's weight."""
        return [self.conv_0.weight.data]

    def forward(
        self, adjacency: Adjacency, features: Union[np.ndarray, Tensor, sp.spmatrix]
    ) -> Tensor:
        operator = normalize_adjacency(adjacency)
        # The first Linear takes sparse and stacked features as they are.
        hidden = features
        for index in range(self.num_layers):
            layer: Linear = getattr(self, f"conv_{index}")
            hidden = propagate(operator, layer(hidden))
            if index < self.num_layers - 1:
                hidden = F.relu(hidden)
                hidden = F.dropout(hidden, self.dropout_rate, self._rng, training=self.training)
        return hidden


def _product(matrix: Union[np.ndarray, sp.spmatrix], dense: np.ndarray) -> np.ndarray:
    """``matrix @ dense`` through the kernel the tape would dispatch to."""
    if sp.issparse(matrix):
        return active_backend().spmm(matrix, dense)
    return active_backend().matmul(matrix, dense)


class FusedGCNFit:
    """The epochs of one full-batch :class:`GCN` fit, without the autograd tape.

    :class:`~repro.models.trainer.Trainer` trains through this class when its
    model is exactly a ``GCN``.  A :meth:`step` is one forward and one
    hand-written backward over plain arrays, making the kernel calls of
    ``GCN.forward``, ``cross_entropy`` and ``Tensor.backward`` on the same
    operands in the same order, then the optimiser's own ``step`` on
    ``param.grad``.  Parameters, dropout draws and losses therefore match the
    tape bit for bit (pinned in ``tests/test_hotpath_equivalence.py`` against
    ``tests/reference/trainer.py``).  What the tape rebuilds every forward is
    built once per fit: the normalised operator and its transpose, the CSR
    features and their CSC transpose, and the loss's weighted targets.

    :meth:`accuracy`, the validation pass, keeps its first-layer output
    ``Â(X W₀ + b₀)``: nothing writes the weights before the next
    :meth:`step`, and ReLU and dropout come after that product, so the step
    starts from the kept array.
    """

    def __init__(
        self,
        model: GCN,
        adjacency: Adjacency,
        features: Union[np.ndarray, sp.spmatrix],
        labels: np.ndarray,
        train_index: np.ndarray,
    ) -> None:
        self.model = model
        self._layers = [getattr(model, f"conv_{index}") for index in range(model.num_layers)]
        operator = normalize_adjacency(adjacency)
        operator = operator.tocsr() if sp.issparse(operator) else np.asarray(operator)
        self._operator, self._operator_t = operator, operator.T
        if sp.issparse(features):
            features = features.tocsr()
        else:
            features = np.asarray(features, dtype=np.float64)
        self._features, self._features_t = features, features.T
        self._labels = labels
        self._train_index = train_index
        self._unique_rows = train_index.size < 2 or bool(np.all(np.diff(train_index) > 0))
        self._targets = _weighted_targets(
            (train_index.size, model.num_classes), labels[train_index], None
        )
        self._first: Optional[np.ndarray] = None

    def _layer(self, index: int, inputs: Union[np.ndarray, sp.spmatrix]) -> np.ndarray:
        """Layer ``index``'s output ``Â (inputs W + b)``."""
        layer = self._layers[index]
        hidden = _product(inputs, layer.weight.data)
        hidden += layer.bias.data.reshape(1, -1)
        return _product(self._operator, hidden)

    def step(self, optimizer: Adam) -> float:
        """One training epoch: forward, backward, ``optimizer.step()``; the loss."""
        model = self.model
        last = len(self._layers) - 1
        hidden = self._first if self._first is not None else self._layer(0, self._features)
        self._first = None
        inputs_t, masks = [self._features_t], []
        for index in range(1, last + 1):
            # In place: no one else holds `hidden` (a kept first layer is
            # used once), and `x *= mask` rounds exactly as `x * mask`.
            relu = hidden > 0
            hidden *= relu
            drop = F.dropout_mask(hidden.shape, model.dropout_rate, model._rng, model.training)
            if drop is not None:
                hidden *= drop
            masks.append((relu, drop))
            inputs_t.append(hidden.T)
            hidden = self._layer(index, hidden)

        backend = active_backend()
        loss, probs = backend.softmax_xent(hidden[self._train_index], self._targets)
        grad = backend.softmax_xent_grad(np.ones_like(loss), probs, self._targets)
        grad = backend.scatter_add_rows(hidden.shape, self._train_index, grad, self._unique_rows)
        for index in range(last, -1, -1):
            layer = self._layers[index]
            grad = _product(self._operator_t, grad)
            layer.bias.grad = np.add.reduce(grad, axis=0)
            layer.weight.grad = _product(inputs_t[index], grad)
            if index:
                grad = backend.matmul(grad, layer.weight.data.T)
                relu, drop = masks[index - 1]
                if drop is not None:
                    grad *= drop
                grad *= relu
        optimizer.step()
        return float(loss)

    def accuracy(self, index: np.ndarray) -> float:
        """Accuracy on ``index`` with the current weights (the eval-mode forward)."""
        hidden = self._first = self._layer(0, self._features)
        for layer_index in range(1, len(self._layers)):
            hidden = self._layer(layer_index, hidden * (hidden > 0))
        hits = np.argmax(hidden, axis=1)[index] == self._labels[index]
        return float(np.count_nonzero(hits) / index.size)
