"""Unit tests for the detection-based defenses (extension module)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.condensation.base import CondensedGraph
from repro.defenses.detection import (
    DetectionReport,
    Detector,
    FeatureOutlierConfig,
    FeatureOutlierDetector,
    SpectralSignatureConfig,
    SpectralSignatureDetector,
    remove_flagged_nodes,
)
from repro.evaluation import EvaluationConfig
from repro.evaluation.pipeline import train_model_on_condensed
from repro.exceptions import DefenseError
from repro.registry import DEFENSES
from repro.utils.seed import new_rng


@pytest.fixture
def condensed_with_outlier(rng):
    """A condensed graph where node 0 of class 0 is a blatant feature outlier."""
    features = rng.normal(size=(12, 6)) * 0.1
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    features[0] = 10.0  # the planted anomaly
    return CondensedGraph(
        features=features, labels=labels, adjacency=np.eye(12), method="gcond-x"
    )


class TestFeatureOutlierDetector:
    def test_invalid_contamination(self):
        with pytest.raises(DefenseError):
            FeatureOutlierDetector(contamination=0.0)
        with pytest.raises(DefenseError):
            FeatureOutlierDetector(contamination=1.0)

    def test_flags_planted_outlier(self, condensed_with_outlier):
        report = FeatureOutlierDetector(contamination=0.1).detect(condensed_with_outlier)
        assert 0 in report.flagged_indices()

    def test_flagged_count_respects_contamination(self, condensed_with_outlier):
        report = FeatureOutlierDetector(contamination=0.25).detect(condensed_with_outlier)
        assert report.num_flagged == 3

    def test_scores_shape(self, condensed_with_outlier):
        scores = FeatureOutlierDetector().score(condensed_with_outlier)
        assert scores.shape == (12,)

    def test_homogeneous_class_gets_zero_scores(self, rng):
        features = np.ones((6, 4))
        condensed = CondensedGraph(
            features=features, labels=np.zeros(6, dtype=int), adjacency=np.eye(6)
        )
        scores = FeatureOutlierDetector().score(condensed)
        np.testing.assert_allclose(scores, 0.0)


class TestSpectralSignatureDetector:
    def test_flags_planted_outlier(self, condensed_with_outlier):
        report = SpectralSignatureDetector(contamination=0.1).detect(condensed_with_outlier)
        assert 0 in report.flagged_indices()

    def test_scores_are_non_negative(self, condensed_with_outlier):
        scores = SpectralSignatureDetector().score(condensed_with_outlier)
        assert np.all(scores >= 0.0)

    def test_single_member_class_is_skipped(self, rng):
        condensed = CondensedGraph(
            features=rng.normal(size=(3, 4)),
            labels=np.array([0, 1, 2]),
            adjacency=np.eye(3),
        )
        scores = SpectralSignatureDetector().score(condensed)
        np.testing.assert_allclose(scores, 0.0)

    def test_invalid_contamination(self):
        with pytest.raises(DefenseError):
            SpectralSignatureDetector(contamination=2.0)


class TestRemoveFlaggedNodes:
    def test_removes_flagged(self, condensed_with_outlier):
        report = FeatureOutlierDetector(contamination=0.25).detect(condensed_with_outlier)
        cleaned = remove_flagged_nodes(condensed_with_outlier, report)
        assert cleaned.num_nodes == condensed_with_outlier.num_nodes - report.num_flagged
        assert "detection" in cleaned.method

    def test_never_empties_a_class(self, rng):
        condensed = CondensedGraph(
            features=rng.normal(size=(4, 3)),
            labels=np.array([0, 0, 1, 1]),
            adjacency=np.eye(4),
        )
        report = DetectionReport(
            scores=np.array([1.0, 2.0, 3.0, 4.0]),
            flagged=np.array([False, False, True, True]),
            contamination=0.5,
        )
        cleaned = remove_flagged_nodes(condensed, report)
        assert set(np.unique(cleaned.labels)) == {0, 1}

    def test_adjacency_submatrix_taken(self, condensed_with_outlier):
        condensed_with_outlier.adjacency[1, 2] = condensed_with_outlier.adjacency[2, 1] = 1.0
        report = FeatureOutlierDetector(contamination=0.1).detect(condensed_with_outlier)
        cleaned = remove_flagged_nodes(condensed_with_outlier, report)
        assert cleaned.adjacency.shape == (cleaned.num_nodes, cleaned.num_nodes)


class TestDetectorConfigs:
    """The detectors are sweepable: contamination binds through the registry."""

    def test_config_dataclass_validates(self):
        with pytest.raises(DefenseError):
            FeatureOutlierConfig(contamination=0.0)
        with pytest.raises(DefenseError):
            SpectralSignatureConfig(contamination=1.5)

    def test_registry_override_binds_contamination(self):
        for name in ("feature-outlier", "spectral-signature"):
            detector = DEFENSES.build(name, contamination=0.3)
            assert detector.contamination == 0.3

    def test_registry_default_contamination(self):
        assert DEFENSES.build("feature-outlier").contamination == 0.1
        assert DEFENSES.build("spectral-signature").contamination == 0.1

    def test_config_object_and_kwarg_agree(self, condensed_with_outlier):
        via_config = FeatureOutlierDetector(FeatureOutlierConfig(contamination=0.25))
        via_kwarg = FeatureOutlierDetector(contamination=0.25)
        np.testing.assert_array_equal(
            via_config.detect(condensed_with_outlier).flagged,
            via_kwarg.detect(condensed_with_outlier).flagged,
        )

    def test_spec_override_reaches_detector(self):
        from repro.api import ExperimentSpec

        spec = ExperimentSpec.from_dict(
            {
                "dataset": "tiny",
                "defense": {"name": "feature-outlier", "overrides": {"contamination": 0.2}},
            }
        )
        detector = DEFENSES.build(
            spec.defense.name, **(spec.defense.overrides or {})
        )
        assert detector.contamination == 0.2


DETECTORS = [
    (FeatureOutlierDetector, FeatureOutlierConfig),
    (SpectralSignatureDetector, SpectralSignatureConfig),
]
DETECTOR_IDS = ["feature-outlier", "spectral-signature"]


@pytest.mark.parametrize("detector_cls, config_cls", DETECTORS, ids=DETECTOR_IDS)
class TestDetectorBase:
    """Both detectors share one ``Detector``: config, ``detect`` and ``defend``."""

    def test_contamination_keyword_overrides_a_copy_of_the_config(
        self, detector_cls, config_cls, condensed_with_outlier
    ):
        config = config_cls(contamination=0.1)
        detector = detector_cls(config, contamination=0.25)
        assert isinstance(detector, Detector)
        assert detector.contamination == 0.25 and config.contamination == 0.1
        report = detector.detect(condensed_with_outlier)
        assert report.num_flagged == round(0.25 * condensed_with_outlier.num_nodes)
        assert report.contamination == 0.25

    def test_defend_retrains_without_the_flagged_nodes(
        self, detector_cls, config_cls, condensed_with_outlier, small_graph
    ):
        condensed = CondensedGraph(
            features=small_graph.features[:12],
            labels=condensed_with_outlier.labels,
            adjacency=condensed_with_outlier.adjacency,
            method="gcond-x",
        )
        evaluation = EvaluationConfig(epochs=3, hidden=8)
        detector = detector_cls(config_cls(contamination=0.2))
        defended = detector.defend(condensed, None, small_graph, evaluation, new_rng(5))
        kept = remove_flagged_nodes(condensed, detector.detect(condensed))
        assert kept.num_nodes < condensed.num_nodes
        retrained = train_model_on_condensed(kept, small_graph, evaluation, new_rng(5))
        for name, value in retrained.state_dict().items():
            np.testing.assert_array_equal(defended.state_dict()[name], value)
