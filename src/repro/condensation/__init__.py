"""Graph condensation methods.

Four condensers from the paper's evaluation:

* :class:`~repro.condensation.dc_graph.DCGraph` — the graph-agnostic dataset
  condensation baseline (gradient matching on raw features, no structure),
* :class:`~repro.condensation.gcond.GCond` — gradient matching with a learned
  condensed structure ``A'_{ij} = σ(MLP([x'_i ; x'_j]))``,
* :class:`~repro.condensation.gcond.GCondX` — GCond without structure,
* :class:`~repro.condensation.gc_sntk.GCSNTK` — kernel-ridge-regression
  condensation with a structure-based neural tangent kernel.

All gradient-matching condensers expose a *stateful* API (``initialize``,
``train_surrogate``, ``outer_step``) in addition to the one-shot
:meth:`~repro.condensation.base.Condenser.condense`, which is what the BGC
attack hooks into to interleave trigger updates with condensation updates.
"""

from repro.condensation.base import (
    CondensedGraph,
    Condenser,
    CondensationConfig,
    make_condenser,
    available_condensers,
)
from repro.condensation.gradient_matching import (
    GradientMatchingCondenser,
    all_class_model_gradients,
    gradient_distance,
)
from repro.condensation.dc_graph import DCGraph
from repro.condensation.gcond import GCond, GCondX
from repro.condensation.gc_sntk import GCSNTK
from repro.condensation.sntk import linear_structure_kernel, KernelRidgeRegression

__all__ = [
    "CondensedGraph",
    "Condenser",
    "CondensationConfig",
    "make_condenser",
    "available_condensers",
    "GradientMatchingCondenser",
    "all_class_model_gradients",
    "gradient_distance",
    "DCGraph",
    "GCond",
    "GCondX",
    "GCSNTK",
    "linear_structure_kernel",
    "KernelRidgeRegression",
]
