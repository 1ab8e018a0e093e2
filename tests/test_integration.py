"""Integration tests: the full threat-model pipeline on a small graph.

These tests exercise the same code paths as the paper's headline experiments
(Table II / Figure 1) end to end: clean condensation, BGC attack, downstream
training, CTA/ASR measurement and the two defenses — but on the small test
graph so the whole module runs in seconds.
"""

from __future__ import annotations

import pytest

from repro.attack import BGC, BGCConfig, TriggerConfig
from repro.attack.selection import SelectionConfig
from repro.condensation import CondensationConfig, make_condenser
from repro.defenses import PruneConfig, PruneDefense, RandSmoothConfig, RandSmoothDefense
from repro.evaluation.pipeline import (
    EvaluationConfig,
    evaluate_backdoor,
    evaluate_clean,
    train_model_on_condensed,
)
from repro.utils.seed import new_rng

from helpers import build_small_graph


@pytest.fixture(scope="module")
def scenario():
    """Run one clean condensation and one BGC attack, shared across tests."""
    graph = build_small_graph(seed=21, nodes_per_class=50, train_per_class=15)
    condensation = CondensationConfig(epochs=10, ratio=0.25)
    evaluation = EvaluationConfig(epochs=80, hidden=16)

    clean_condenser = make_condenser("gcond-x", condensation)
    clean_condensed = clean_condenser.condense(graph, new_rng(1))
    clean_model = train_model_on_condensed(clean_condensed, graph, evaluation, new_rng(2))

    attack = BGC(
        BGCConfig(
            target_class=0,
            poison_ratio=0.2,
            epochs=10,
            surrogate_steps=20,
            generator_steps=2,
            update_batch_size=8,
            trigger=TriggerConfig(trigger_size=3, hidden=16, feature_scale=0.2),
            selection=SelectionConfig(num_clusters=2, selector_epochs=30),
        )
    )
    attacked_condenser = make_condenser("gcond-x", condensation)
    result = attack.run(graph, attacked_condenser, new_rng(3))
    backdoored_model = train_model_on_condensed(result.condensed, graph, evaluation, new_rng(4))

    return {
        "graph": graph,
        "evaluation": evaluation,
        "clean_condensed": clean_condensed,
        "clean_model": clean_model,
        "result": result,
        "backdoored_model": backdoored_model,
    }


class TestThreatModelEndToEnd:
    def test_clean_condensation_preserves_utility(self, scenario):
        graph = scenario["graph"]
        clean_cta = evaluate_clean(scenario["clean_model"], graph)
        assert clean_cta > 0.6

    def test_backdoored_graph_preserves_utility(self, scenario):
        graph = scenario["graph"]
        clean_cta = evaluate_clean(scenario["clean_model"], graph)
        attacked_cta = evaluate_clean(scenario["backdoored_model"], graph)
        # The paper's headline: CTA close to C-CTA (allow a modest gap here).
        assert attacked_cta > clean_cta - 0.25

    def test_attack_success_rate_gap(self, scenario):
        graph = scenario["graph"]
        result = scenario["result"]
        attacked_asr = evaluate_backdoor(
            scenario["backdoored_model"], graph, result.generator, result.target_class
        )
        clean_asr = evaluate_backdoor(
            scenario["clean_model"], graph, result.generator, result.target_class
        )
        assert attacked_asr > 0.7
        assert attacked_asr > clean_asr + 0.3

    def test_condensed_graph_is_small(self, scenario):
        graph = scenario["graph"]
        condensed = scenario["result"].condensed
        assert condensed.num_nodes < graph.num_nodes / 2

    def test_architecture_transfer(self, scenario):
        """Table III: the backdoor transfers to other downstream architectures."""
        graph = scenario["graph"]
        result = scenario["result"]
        transfer_asrs = []
        for architecture in ("sgc", "mlp"):
            model = train_model_on_condensed(
                result.condensed,
                graph,
                EvaluationConfig(architecture=architecture, epochs=60, hidden=16),
                new_rng(10),
            )
            transfer_asrs.append(
                evaluate_backdoor(model, graph, result.generator, result.target_class)
            )
        assert max(transfer_asrs) > 0.5


class TestDefensesEndToEnd:
    def test_prune_defense_pipeline(self, scenario):
        graph = scenario["graph"]
        result = scenario["result"]
        pruned = PruneDefense(PruneConfig(prune_fraction=0.2)).apply_to_condensed(result.condensed)
        model = train_model_on_condensed(pruned, graph, scenario["evaluation"], new_rng(11))
        cta = evaluate_clean(model, graph)
        asr = evaluate_backdoor(model, graph, result.generator, result.target_class)
        assert 0.0 <= cta <= 1.0
        assert 0.0 <= asr <= 1.0

    def test_randsmooth_defense_pipeline(self, scenario):
        graph = scenario["graph"]
        result = scenario["result"]
        smoothed = RandSmoothDefense(RandSmoothConfig(num_samples=3)).defend(
            result.condensed, scenario["backdoored_model"], graph,
            scenario["evaluation"], new_rng(12),
        )
        cta = evaluate_clean(smoothed, graph)
        asr = evaluate_backdoor(smoothed, graph, result.generator, result.target_class)
        assert 0.0 <= cta <= 1.0
        assert 0.0 <= asr <= 1.0
