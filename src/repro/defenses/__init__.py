"""Defense methods evaluated against BGC (Table IV) plus detection extensions.

Every registered defense is a :class:`Defense`: the runner's ``defend`` stage
calls its one method, ``defend(condensed, model, graph, evaluation, rng)``.
"""

from repro.defenses.base import Defense
from repro.defenses.prune import PruneDefense, PruneConfig
from repro.defenses.randsmooth import RandSmoothDefense, RandSmoothConfig, SmoothedModel
from repro.defenses.robust_training import (
    DropEdgeConfig,
    DropEdgeDefense,
    DropNodeConfig,
    DropNodeDefense,
    drop_edges,
)
from repro.defenses.detection import (
    DetectionReport,
    Detector,
    FeatureOutlierConfig,
    FeatureOutlierDetector,
    SpectralSignatureConfig,
    SpectralSignatureDetector,
    remove_flagged_nodes,
)

__all__ = [
    "Defense",
    "PruneDefense",
    "PruneConfig",
    "RandSmoothDefense",
    "RandSmoothConfig",
    "SmoothedModel",
    "DropEdgeDefense",
    "DropEdgeConfig",
    "DropNodeDefense",
    "DropNodeConfig",
    "drop_edges",
    "DetectionReport",
    "Detector",
    "FeatureOutlierConfig",
    "FeatureOutlierDetector",
    "SpectralSignatureConfig",
    "SpectralSignatureDetector",
    "remove_flagged_nodes",
]
