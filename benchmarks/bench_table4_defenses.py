"""Table IV — BGC against the Prune and Randsmooth defenses.

For GCond and GCond-X the benchmark reports the undefended CTA/ASR, the
defended values and the relative change, illustrating the utility-vs-defense
trade-off the paper observes.
"""

from __future__ import annotations

from repro.attack import BGC
from repro.condensation import make_condenser
from repro.datasets import load_dataset
from repro.defenses import PruneConfig, PruneDefense, RandSmoothConfig, SmoothedModel
from repro.evaluation.pipeline import evaluate_backdoor, evaluate_clean, train_model_on_condensed
from repro.utils.seed import spawn_rngs

from bench_common import DEFAULT_RATIOS, BenchSettings, print_header, print_rows

DATASET = "cora"
CONDENSERS = ["gcond", "gcond-x"]


def _relative_change(defended: float, undefended: float) -> float:
    if undefended == 0:
        return 0.0
    return (defended - undefended) / undefended


def run_table4():
    settings = BenchSettings()
    ratio = DEFAULT_RATIOS[DATASET]
    graph = load_dataset(DATASET, seed=settings.seed)
    evaluation = settings.evaluation()
    rows = []
    for condenser_name in CONDENSERS:
        attack_rng, eval_rng = spawn_rngs(settings.seed + 13, 2)
        attack = BGC(settings.attack(DATASET))
        result = attack.run(
            graph, make_condenser(condenser_name, settings.condensation(ratio)), attack_rng
        )

        backdoored = train_model_on_condensed(result.condensed, graph, evaluation, eval_rng)
        base_cta = evaluate_clean(backdoored, graph)
        base_asr = evaluate_backdoor(backdoored, graph, result.generator, result.target_class)

        # Prune: dataset-level defense applied to the condensed graph.
        pruned = PruneDefense(PruneConfig(prune_fraction=0.2)).apply_to_condensed(result.condensed)
        pruned_model = train_model_on_condensed(pruned, graph, evaluation, eval_rng)
        prune_cta = evaluate_clean(pruned_model, graph)
        prune_asr = evaluate_backdoor(pruned_model, graph, result.generator, result.target_class)

        # Randsmooth: model-level defense wrapping the backdoored model.
        smoothed = SmoothedModel(
            backdoored, RandSmoothConfig(num_samples=5, keep_probability=0.7)
        )
        smooth_cta = evaluate_clean(smoothed, graph)
        smooth_asr = evaluate_backdoor(smoothed, graph, result.generator, result.target_class)

        rows.append(
            {
                "condenser": condenser_name,
                "defense": "none",
                "CTA": base_cta,
                "ASR": base_asr,
                "dCTA": 0.0,
                "dASR": 0.0,
            }
        )
        rows.append(
            {
                "condenser": condenser_name,
                "defense": "Prune",
                "CTA": prune_cta,
                "ASR": prune_asr,
                "dCTA": _relative_change(prune_cta, base_cta),
                "dASR": _relative_change(prune_asr, base_asr),
            }
        )
        rows.append(
            {
                "condenser": condenser_name,
                "defense": "Randsmooth",
                "CTA": smooth_cta,
                "ASR": smooth_asr,
                "dCTA": _relative_change(smooth_cta, base_cta),
                "dASR": _relative_change(smooth_asr, base_asr),
            }
        )
    return rows


def test_table4_defenses(benchmark):
    rows = benchmark.pedantic(run_table4, rounds=1, iterations=1)
    print_header(f"Table IV: BGC against Prune and Randsmooth ({DATASET})")
    print_rows(rows, columns=["condenser", "defense", "CTA", "ASR", "dCTA", "dASR"])
    # Shape check: neither defense fully removes the backdoor (ASR stays high).
    for row in rows:
        if row["defense"] != "none":
            assert row["ASR"] > 0.5, f"defense unexpectedly eliminated the backdoor: {row}"
