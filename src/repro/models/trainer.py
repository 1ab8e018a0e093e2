"""Full-batch training loop with early stopping for node classifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.autograd import Adam
from repro.autograd import functional as F
from repro.exceptions import ConfigurationError
from repro.models.base import Adjacency, NodeClassifier
from repro.models.gcn import GCN, FusedGCNFit
from repro.utils.logging import get_logger
from repro.utils.validation import at_least, check_fields, checked, real

logger = get_logger("models.trainer")


def _feature_array(features):
    """Coerce a feature argument to a contiguous ``(N, F)`` float array.

    Model forward passes read whole feature matrices, so a zero-copy
    :class:`~repro.graph.view.StackedFeatures` (or a
    :class:`~repro.graph.view.PropagatedView`) handed to the trainer is
    materialised here, once — the object caches its own materialisation, so
    repeated epochs over the same view pay the vstack a single time.  A
    scipy sparse matrix passes through untouched, for models whose first
    layer multiplies it sparsely (:class:`~repro.models.gcn.GCN`).
    """
    if sp.issparse(features):
        return features
    if hasattr(features, "materialize"):
        return features.materialize()
    return np.asarray(features, dtype=np.float64)


@dataclass
class TrainingConfig:
    """Hyperparameters for :class:`Trainer`."""

    epochs: int = checked(200, at_least(1))
    lr: float = checked(0.01, real(above=0))
    weight_decay: float = checked(5e-4, real(at_least=0))
    patience: int = checked(30, at_least(1))
    verbose: bool = False

    def __post_init__(self) -> None:
        check_fields(self, ConfigurationError)


@dataclass
class TrainingResult:
    """Outcome of a training run."""

    best_epoch: int
    best_val_accuracy: float
    final_train_loss: float
    history: list = field(default_factory=list)


class Trainer:
    """Trains a :class:`NodeClassifier` full-batch with Adam and early stopping.

    The trainer supports the two training regimes the BGC pipeline needs:

    * training on a large (possibly poisoned) original graph with explicit
      train/val masks, and
    * training on a small condensed graph where *every* node is a training
      node and no validation set exists (``val_index=None`` disables early
      stopping and runs the full epoch budget).

    A model that is exactly a :class:`~repro.models.gcn.GCN` trains through
    :class:`~repro.models.gcn.FusedGCNFit`, without the autograd tape; every
    other model, a ``GCN`` subclass included, trains on the tape.  Both give
    the same parameters bit for bit.
    """

    def __init__(self, model: NodeClassifier, config: TrainingConfig | None = None) -> None:
        self.model = model
        self.config = config or TrainingConfig()

    def fit(
        self,
        adjacency: Adjacency,
        features: np.ndarray,
        labels: np.ndarray,
        train_index: np.ndarray,
        val_index: np.ndarray | None = None,
    ) -> TrainingResult:
        """Train the model and restore its best-validation parameters.

        Validation runs on the training graph's ``val_index`` nodes after
        every epoch; the first epoch to reach the best accuracy wins, and
        ``patience`` epochs without a gain stop the fit.  Feature arguments
        may be zero-copy view objects
        (:class:`~repro.graph.view.StackedFeatures`); they are materialised
        once at entry.
        """
        features = _feature_array(features)
        labels = np.asarray(labels, dtype=np.int64)
        train_index = np.asarray(train_index, dtype=np.int64)
        optimizer = Adam(
            self.model.parameters(), lr=self.config.lr, weight_decay=self.config.weight_decay
        )
        use_validation = val_index is not None and len(val_index) > 0
        if use_validation:
            val_index = np.asarray(val_index, dtype=np.int64)

        if type(self.model) is GCN:
            fused = FusedGCNFit(self.model, adjacency, features, labels, train_index)
            train_step, validate = fused.step, fused.accuracy
        else:

            def train_step(optimizer: Adam) -> float:
                optimizer.zero_grad()
                logits = self.model.forward(adjacency, features)
                loss = F.cross_entropy(logits[train_index], labels[train_index])
                loss.backward()
                optimizer.step()
                return loss.item()

            def validate(index: np.ndarray) -> float:
                return self.evaluate(adjacency, features, labels, index)

        best_val = -np.inf
        best_state = self.model.state_dict()
        best_epoch = 0
        epochs_without_improvement = 0
        history = []
        final_loss = np.nan

        self.model.train()
        for epoch in range(self.config.epochs):
            final_loss = train_step(optimizer)
            if use_validation:
                val_accuracy = validate(val_index)
                history.append({"epoch": epoch, "loss": final_loss, "val_accuracy": val_accuracy})
                if val_accuracy > best_val:
                    best_val = val_accuracy
                    best_state = self.model.state_dict()
                    best_epoch = epoch
                    epochs_without_improvement = 0
                else:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= self.config.patience:
                        if self.config.verbose:
                            logger.info("early stopping at epoch %d", epoch)
                        break
            else:
                history.append({"epoch": epoch, "loss": final_loss})
                best_epoch = epoch

        if use_validation:
            self.model.load_state_dict(best_state)
        self.model.eval()
        return TrainingResult(
            best_epoch=best_epoch,
            best_val_accuracy=float(best_val) if use_validation else float("nan"),
            final_train_loss=float(final_loss),
            history=history,
        )

    def evaluate(
        self,
        adjacency: Adjacency,
        features: np.ndarray,
        labels: np.ndarray,
        index: np.ndarray,
    ) -> float:
        """Accuracy of the current model on ``index`` nodes."""
        predictions = self.model.predict(adjacency, _feature_array(features))
        index = np.asarray(index, dtype=np.int64)
        if index.size == 0:
            return float("nan")
        return float(np.mean(predictions[index] == np.asarray(labels)[index]))
