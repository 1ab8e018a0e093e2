"""Backdoor attacks against graph condensation.

* :class:`~repro.attack.bgc.BGC` — the paper's attack: representative-node
  poisoning plus a trigger generator that is re-optimised at every
  condensation epoch (Algorithm 1).
* :class:`~repro.attack.naive.NaivePoison` — directly injecting triggers into
  the condensed graph (the Figure 1 strawman).
* :mod:`repro.attack.baselines` — GTA and DOORPING adapted to graph
  condensation (Figure 4 comparison).
* :class:`~repro.attack.sampled.SampledEdgeAttack` — PRBCD-style sampled
  search-space edge flips (budgeted topology poisoning at any scale).
* :class:`~repro.attack.injection.NodeInjectionAttack` — budgeted fake-node
  injection with feature-bound projection.
"""

from repro.attack.kmeans import KMeans
from repro.attack.selection import (
    RepresentativeNodeSelector,
    RandomNodeSelector,
    SelectionConfig,
)
from repro.attack.trigger import (
    TriggerGenerator,
    TriggerConfig,
    UniversalTriggerGenerator,
    batched_local_trigger_loss,
    generate_hard_triggers,
)
from repro.attack.bgc import BGC, BGCConfig, BGCResult
from repro.attack.naive import NaivePoison
from repro.attack.baselines import GTAAttack, DoorpingAttack
from repro.attack.sampled import SampledEdgeAttack, SampledEdgeConfig
from repro.attack.injection import NodeInjectionAttack, InjectionConfig
from repro.attack.analysis import (
    condensed_graph_divergence,
    trigger_statistics,
    class_distribution_shift,
)

__all__ = [
    "KMeans",
    "RepresentativeNodeSelector",
    "RandomNodeSelector",
    "SelectionConfig",
    "TriggerGenerator",
    "TriggerConfig",
    "UniversalTriggerGenerator",
    "batched_local_trigger_loss",
    "generate_hard_triggers",
    "BGC",
    "BGCConfig",
    "BGCResult",
    "NaivePoison",
    "GTAAttack",
    "DoorpingAttack",
    "SampledEdgeAttack",
    "SampledEdgeConfig",
    "NodeInjectionAttack",
    "InjectionConfig",
    "condensed_graph_divergence",
    "trigger_statistics",
    "class_distribution_shift",
]
