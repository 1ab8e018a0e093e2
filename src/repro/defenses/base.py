"""The one defense protocol: every registered defense is a :class:`Defense`."""

from __future__ import annotations

import numpy as np

from repro.condensation.base import CondensedGraph
from repro.evaluation.pipeline import EvaluationConfig, Predictor
from repro.graph.data import GraphData


class Defense:
    """A customer-side defense, applied by the runner's ``defend`` stage.

    :meth:`defend` receives what the customer holds — the condensed graph
    they were handed and the model they trained on it — plus the original
    graph, how they train (``evaluation``) and the defense's own random
    stream, and returns the predictor the defended customer deploys.  A
    defense that sanitises the condensed graph retrains on the result with
    :func:`~repro.evaluation.pipeline.train_model_on_condensed`; one that
    changes how the customer trains fits its own model; one that acts at
    inference time wraps ``model``.
    """

    def defend(
        self,
        condensed: CondensedGraph,
        model: Predictor,
        graph: GraphData,
        evaluation: EvaluationConfig,
        rng: np.random.Generator,
    ) -> Predictor:
        """The predictor the defended customer deploys."""
        raise NotImplementedError
