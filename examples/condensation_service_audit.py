"""Auditing a graph-condensation service: is my condensed graph backdoored?

The paper's threat model is a malicious condensation-as-a-service provider.
This example plays the *customer's* side: given two condensed graphs — one
produced honestly, one produced by BGC — it shows which signals a customer
can (and cannot) use to tell them apart:

* structural statistics of the condensed graph (node count, edge density,
  feature norms) — essentially indistinguishable,
* downstream validation accuracy — essentially indistinguishable,
* behaviour under the Prune and Randsmooth defenses — the backdoor survives,
* probing with suspicious subgraph patterns (only possible if the customer
  somehow knows the trigger generator, which they do not).

Run with::

    python examples/condensation_service_audit.py
"""

from __future__ import annotations

import numpy as np

from repro import BGC, BGCConfig, CondensationConfig, EvaluationConfig, load_dataset, make_condenser
from repro.defenses import PruneConfig, PruneDefense, RandSmoothConfig, SmoothedModel
from repro.evaluation.pipeline import (
    evaluate_backdoor,
    evaluate_clean,
    train_model_on_condensed,
)
from repro.utils import new_rng


def describe_condensed(name: str, condensed) -> None:
    """Print the structural statistics a customer could inspect."""
    edges = int((condensed.adjacency > 0).sum() // 2)
    print(
        f"  {name:<12} nodes={condensed.num_nodes:<4} edges={edges:<5} "
        f"classes={condensed.num_classes:<3} "
        f"|X| mean={np.abs(condensed.features).mean():.4f} "
        f"|X| max={np.abs(condensed.features).max():.4f}"
    )


def main() -> None:
    graph = load_dataset("citeseer", seed=0)
    condensation = CondensationConfig(epochs=20, ratio=0.018)
    evaluation = EvaluationConfig(epochs=150)

    print("Producing an honest condensed graph and a BGC-backdoored one...")
    honest = make_condenser("gcond", condensation).condense(graph, new_rng(1))
    attack = BGC(BGCConfig(target_class=0, poison_ratio=0.1, epochs=20))
    result = attack.run(graph, make_condenser("gcond", condensation), new_rng(2))
    backdoored = result.condensed

    print("\n1. Structural inspection (what the customer sees):")
    describe_condensed("honest", honest)
    describe_condensed("backdoored", backdoored)

    print("\n2. Downstream utility (validation-style check):")
    honest_model = train_model_on_condensed(honest, graph, evaluation, new_rng(3))
    victim_model = train_model_on_condensed(backdoored, graph, evaluation, new_rng(4))
    print(f"  honest      CTA = {evaluate_clean(honest_model, graph):.1%}")
    print(f"  backdoored  CTA = {evaluate_clean(victim_model, graph):.1%}")

    print("\n3. Hidden behaviour (only the attacker can measure this):")
    asr = evaluate_backdoor(victim_model, graph, result.generator, result.target_class)
    honest_asr = evaluate_backdoor(honest_model, graph, result.generator, result.target_class)
    print(f"  honest      ASR = {honest_asr:.1%}")
    print(f"  backdoored  ASR = {asr:.1%}")

    print("\n4. Do standard defenses save the customer?")
    pruned = PruneDefense(PruneConfig(prune_fraction=0.2)).apply_to_condensed(backdoored)
    pruned_model = train_model_on_condensed(pruned, graph, evaluation, new_rng(5))
    print(
        "  Prune:      CTA = "
        f"{evaluate_clean(pruned_model, graph):.1%}, "
        f"ASR = {evaluate_backdoor(pruned_model, graph, result.generator, result.target_class):.1%}"
    )
    smoothed = SmoothedModel(victim_model, RandSmoothConfig(num_samples=5))
    print(
        "  Randsmooth: CTA = "
        f"{evaluate_clean(smoothed, graph):.1%}, "
        f"ASR = {evaluate_backdoor(smoothed, graph, result.generator, result.target_class):.1%}"
    )

    print(
        "\nConclusion: the backdoored condensed graph is statistically and "
        "functionally indistinguishable from the honest one for the customer, "
        "and the evaluated defenses trade utility for only a modest ASR drop — "
        "the paper's argument for treating condensation providers as part of "
        "the trusted computing base."
    )


if __name__ == "__main__":
    main()
