"""Evaluation: metrics, the train-on-condensed pipeline and reporting."""

from repro.evaluation.metrics import attack_success_rate, clean_test_accuracy
from repro.evaluation.pipeline import (
    EvaluationConfig,
    train_model_on_condensed,
    evaluate_backdoor,
    evaluate_clean,
)
from repro.evaluation.reporting import (
    format_percent,
    format_table,
    format_transfer_matrix,
    transfer_matrix,
)

__all__ = [
    "attack_success_rate",
    "clean_test_accuracy",
    "EvaluationConfig",
    "train_model_on_condensed",
    "evaluate_backdoor",
    "evaluate_clean",
    "format_table",
    "format_percent",
    "format_transfer_matrix",
    "transfer_matrix",
]
