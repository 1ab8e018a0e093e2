"""Detection-based defenses for condensed graphs (extension experiments).

The paper's discussion argues that detection- and prune-based defenses are
ineffective against BGC because the malicious information is distributed
across the *synthetic* nodes rather than carried by an explicit trigger.
This module implements two concrete detectors so that claim can be tested
quantitatively (see ``benchmarks/bench_ext_detection.py``):

* :class:`FeatureOutlierDetector` — flags condensed nodes whose features are
  far from their class centroid (z-score of the Euclidean distance).
* :class:`SpectralSignatureDetector` — the classic spectral-signature
  backdoor detector: flags nodes with the largest projection onto the top
  singular vector of the centred per-class feature matrix.

Both share :class:`Detector`: per-node suspicion scores, a boolean mask at a
chosen contamination rate, and a ``defend`` that drops the flagged nodes
(:func:`remove_flagged_nodes`) and retrains the customer's model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.condensation.base import CondensedGraph
from repro.defenses.base import Defense
from repro.evaluation.pipeline import (
    EvaluationConfig,
    Predictor,
    train_model_on_condensed,
)
from repro.exceptions import DefenseError
from repro.graph.data import GraphData
from repro.registry import DEFENSES
from repro.utils.logging import get_logger

logger = get_logger("defenses.detection")


@dataclass
class DetectionReport:
    """Outcome of running a detector on a condensed graph."""

    scores: np.ndarray
    flagged: np.ndarray
    contamination: float

    @property
    def num_flagged(self) -> int:
        return int(self.flagged.sum())

    def flagged_indices(self) -> np.ndarray:
        """Indices of the condensed nodes the detector would remove."""
        return np.flatnonzero(self.flagged)


def _validate_contamination(contamination: float) -> None:
    if not 0.0 < contamination < 1.0:
        raise DefenseError(f"contamination must lie in (0, 1), got {contamination}")


@dataclass
class FeatureOutlierConfig:
    """Configuration of the feature-outlier detector."""

    contamination: float = 0.1

    def __post_init__(self) -> None:
        _validate_contamination(self.contamination)


@dataclass
class SpectralSignatureConfig:
    """Configuration of the spectral-signature detector."""

    contamination: float = 0.1

    def __post_init__(self) -> None:
        _validate_contamination(self.contamination)


def _resolve_detector_config(config, contamination, config_cls):
    """Merge the legacy ``contamination=`` keyword with the config object."""
    if config is None:
        if contamination is None:
            return config_cls()
        return config_cls(contamination=contamination)
    if contamination is not None:
        return replace(config, contamination=contamination)
    return config


def _flag_top_scores(scores: np.ndarray, contamination: float) -> np.ndarray:
    """Boolean mask marking the ``contamination`` fraction of highest scores."""
    if not 0.0 < contamination < 1.0:
        raise DefenseError(f"contamination must lie in (0, 1), got {contamination}")
    num_flagged = max(1, int(round(contamination * scores.shape[0])))
    threshold_index = np.argsort(-scores)[:num_flagged]
    mask = np.zeros(scores.shape[0], dtype=bool)
    mask[threshold_index] = True
    return mask


class Detector(Defense):
    """Score condensed nodes, flag the most suspicious, drop them and retrain.

    Subclasses define :meth:`score` and ``config_cls``; the legacy
    ``contamination=`` keyword overrides the config's rate.
    """

    #: The detector's config dataclass (it carries ``contamination``).
    config_cls: type

    def __init__(self, config=None, contamination: float | None = None) -> None:
        self.config = _resolve_detector_config(config, contamination, self.config_cls)

    @property
    def contamination(self) -> float:
        return self.config.contamination

    def score(self, condensed: CondensedGraph) -> np.ndarray:
        """Per-node suspicion scores (larger = more suspicious)."""
        raise NotImplementedError

    def detect(self, condensed: CondensedGraph) -> DetectionReport:
        """Score every condensed node and flag the most anomalous ones."""
        scores = self.score(condensed)
        flagged = _flag_top_scores(scores, self.contamination)
        logger.debug("%s flagged %d nodes", type(self).__name__, int(flagged.sum()))
        return DetectionReport(scores=scores, flagged=flagged, contamination=self.contamination)

    def defend(
        self,
        condensed: CondensedGraph,
        model: Predictor,
        graph: GraphData,
        evaluation: EvaluationConfig,
        rng: np.random.Generator,
    ) -> Predictor:
        """Retrain the customer's model without the flagged condensed nodes."""
        defended = remove_flagged_nodes(condensed, self.detect(condensed))
        return train_model_on_condensed(defended, graph, evaluation, rng)


@DEFENSES.register("feature-outlier", aliases=("outlier",), config_cls=FeatureOutlierConfig)
class FeatureOutlierDetector(Detector):
    """Z-score distance-to-class-centroid outlier detection."""

    config_cls = FeatureOutlierConfig

    def score(self, condensed: CondensedGraph) -> np.ndarray:
        """Per-node suspicion scores (larger = more anomalous)."""
        scores = np.zeros(condensed.num_nodes)
        for cls in np.unique(condensed.labels):
            members = np.flatnonzero(condensed.labels == cls)
            features = condensed.features[members]
            centroid = features.mean(axis=0)
            distances = np.linalg.norm(features - centroid, axis=1)
            spread = distances.std()
            if spread <= 1e-12:
                continue
            scores[members] = (distances - distances.mean()) / spread
        return scores


@DEFENSES.register("spectral-signature", aliases=("spectral",), config_cls=SpectralSignatureConfig)
class SpectralSignatureDetector(Detector):
    """Spectral-signature detection (Tran et al., 2018) adapted to condensed graphs."""

    config_cls = SpectralSignatureConfig

    def score(self, condensed: CondensedGraph) -> np.ndarray:
        """Squared projection of each node onto its class's top singular vector."""
        scores = np.zeros(condensed.num_nodes)
        for cls in np.unique(condensed.labels):
            members = np.flatnonzero(condensed.labels == cls)
            features = condensed.features[members]
            centred = features - features.mean(axis=0, keepdims=True)
            if centred.shape[0] < 2:
                continue
            # Top right-singular vector of the centred class feature matrix.
            _, _, vt = np.linalg.svd(centred, full_matrices=False)
            projections = centred @ vt[0]
            scores[members] = projections ** 2
        return scores


def remove_flagged_nodes(condensed: CondensedGraph, report: DetectionReport) -> CondensedGraph:
    """Return a copy of ``condensed`` with the flagged nodes removed.

    If removal would empty a class entirely, that class's least-suspicious
    flagged node is kept so the downstream model can still be trained.
    """
    keep = ~report.flagged.copy()
    for cls in np.unique(condensed.labels):
        members = np.flatnonzero(condensed.labels == cls)
        if not np.any(keep[members]):
            least_suspicious = members[np.argmin(report.scores[members])]
            keep[least_suspicious] = True
    indices = np.flatnonzero(keep)
    return CondensedGraph(
        features=condensed.features[indices],
        labels=condensed.labels[indices],
        adjacency=condensed.adjacency[np.ix_(indices, indices)],
        method=f"{condensed.method}+detection",
        source=condensed.source,
        ratio=condensed.ratio,
        metadata={**condensed.metadata, "removed_nodes": float((~keep).sum())},
    )
