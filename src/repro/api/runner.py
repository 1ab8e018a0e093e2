"""Execute :class:`~repro.api.spec.ExperimentSpec` cells and sweeps.

:func:`run_experiment` resolves every component of a spec through the
registries, runs the full threat-model pipeline (clean condensation baseline,
optional attack, optional defense) and returns a structured
:class:`RunRecord`.  :func:`run_sweep` executes a grid: cells that name the
same dataset share one loaded :class:`~repro.graph.data.GraphData` (and with
it the process-wide :class:`~repro.graph.cache.PropagationCache`, so base
propagations are paid once per dataset, not once per cell), while every
random stream is derived from the cell's own seed — results are bit-identical
whether the grid runs in canonical or shuffled order.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro.api.spec import ExecutionSpec, ExperimentSpec, SweepSpec
from repro.attack.naive import NaivePoison
from repro.condensation.base import CondensedGraph, Condenser
from repro.datasets import load_dataset
from repro.defenses.detection import remove_flagged_nodes
from repro.evaluation.metrics import attack_success_rate
from repro.evaluation.pipeline import (
    EvaluationConfig,
    Predictor,
    evaluate_backdoor,
    evaluate_clean,
    predict_on_graph,
    train_model_on_condensed,
)
from repro.exceptions import ConfigurationError
from repro.graph.data import GraphData
from repro.registry import ATTACKS, CONDENSERS, DEFENSES, MODELS, bind_config
from repro.utils.logging import get_logger
from repro.utils.seed import spawn_rngs

logger = get_logger("api.runner")

AsrEvaluator = Callable[[Predictor], float]


@dataclass
class RunRecord:
    """Structured result of one experiment cell.

    ``clean_*`` metrics come from the clean-condensation baseline, ``attack_*``
    from the attacked condensation (NaN when the spec has no attack), and
    ``defense_*`` from re-evaluating the defended artefact, with deltas taken
    against the undefended reference (the attacked numbers when an attack ran,
    the clean ones otherwise).  ``spec`` echoes the fully resolved spec, so a
    record is self-describing in a ``results.jsonl`` stream.

    ``condensed_hash`` / ``attack_condensed_hash`` fingerprint the condensed
    artefacts (sha256 over their arrays), so bit-identity across execution
    backends can be asserted on the full condensed graphs, not just the
    scalar metrics.  ``status`` is ``"ok"`` for a completed cell; a cell that
    raised or timed out under ``on_error="record"`` is shipped as a
    ``"failed"`` record whose ``error`` mapping holds the exception type
    name, message and formatted traceback.
    """

    spec: ExperimentSpec
    cell_index: int | None = None
    clean_cta: float = float("nan")
    clean_asr: float = float("nan")
    attack_cta: float = float("nan")
    attack_asr: float = float("nan")
    defense_cta: float = float("nan")
    defense_asr: float = float("nan")
    defense_cta_delta: float = float("nan")
    defense_asr_delta: float = float("nan")
    poisoned_nodes: int = 0
    condensed_nodes: int = 0
    condensed_hash: str | None = None
    attack_condensed_hash: str | None = None
    status: str = "ok"
    error: Dict[str, str] | None = None
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the cell completed (``status == "ok"``)."""
        return self.status == "ok"

    @classmethod
    def from_failure(
        cls,
        spec: ExperimentSpec,
        cell_index: int | None,
        error: Mapping[str, str],
        elapsed: float = 0.0,
    ) -> "RunRecord":
        """A structured failed record for a cell that raised or timed out.

        ``error`` carries ``type`` (exception class name), ``message`` and
        ``traceback`` (formatted text — the only form that survives a process
        boundary); every metric stays NaN/default.
        """
        return cls(
            spec=spec,
            cell_index=cell_index,
            status="failed",
            error=dict(error),
            timings={"cell": float(elapsed)},
        )

    #: Metric fields serialised with NaN ↔ null conversion.
    _METRIC_FIELDS = (
        "clean_cta",
        "clean_asr",
        "attack_cta",
        "attack_asr",
        "defense_cta",
        "defense_asr",
        "defense_cta_delta",
        "defense_asr_delta",
    )

    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON flat representation (one line of results.jsonl).

        Unset metrics serialise as ``null`` rather than the non-standard
        ``NaN`` token, so the output stays parseable by ``jq`` /
        ``JSON.parse``; :meth:`from_dict` restores them to NaN.
        """
        payload: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "cell_index": self.cell_index,
        }
        for name in self._METRIC_FIELDS:
            value = getattr(self, name)
            payload[name] = None if math.isnan(value) else value
        payload["poisoned_nodes"] = self.poisoned_nodes
        payload["condensed_nodes"] = self.condensed_nodes
        payload["condensed_hash"] = self.condensed_hash
        payload["attack_condensed_hash"] = self.attack_condensed_hash
        payload["status"] = self.status
        payload["error"] = dict(self.error) if self.error is not None else None
        payload["timings"] = dict(self.timings)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        data = dict(payload)
        data["spec"] = ExperimentSpec.from_dict(data["spec"])
        for name in cls._METRIC_FIELDS:
            if data.get(name) is None:
                data[name] = float("nan")
        return cls(**data)


def condensed_fingerprint(condensed: CondensedGraph) -> str:
    """Sha256 over a condensed graph's arrays (features, labels, adjacency).

    Used to assert *bit*-identity of condensation results across execution
    backends and worker counts: two condensed graphs fingerprint equal only
    if every float in them is identical.
    """
    digest = hashlib.sha256()
    for array in (condensed.features, condensed.labels, condensed.adjacency):
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def error_info(error: BaseException) -> Dict[str, str]:
    """The picklable failure shape stored on a failed :class:`RunRecord`."""
    return {
        "type": type(error).__name__,
        "message": str(error),
        "traceback": "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        ),
    }


class _Stopwatch:
    """Accumulates named wall-clock timings."""

    def __init__(self) -> None:
        self.timings: Dict[str, float] = {}

    def measure(self, name: str, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = fn()
        self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start
        return result


# ------------------------------------------------------------------ #
# Component resolution
# ------------------------------------------------------------------ #
def _resolve_evaluation(spec: ExperimentSpec) -> EvaluationConfig:
    """Merge the model and evaluation components into one EvaluationConfig."""
    if spec.model.name is not None:
        MODELS.canonical(spec.model.name)  # fail fast with the registry's message
    overrides: Dict[str, Any] = {"architecture": spec.model.name}
    overrides.update(spec.model.overrides)
    overrides.update(spec.evaluation.overrides)
    return bind_config(EvaluationConfig, overrides)


def _resolve_condenser(spec: ExperimentSpec) -> Condenser:
    return CONDENSERS.build(spec.condenser.name, **spec.condenser.overrides)


def _resolve_attack(spec: ExperimentSpec):
    """Build the attack, folding the trigger component into its config."""
    entry = ATTACKS.get(spec.attack.name)
    overrides: Dict[str, Any] = {}
    trigger_overrides = dict(spec.trigger.overrides)
    if spec.trigger.name is not None:
        trigger_overrides.setdefault("encoder", spec.trigger.name)
    if trigger_overrides:
        config_fields = (
            {f.name for f in fields(entry.config_cls)}
            if entry.config_cls is not None
            else set()
        )
        if "trigger" in config_fields:
            for key, value in trigger_overrides.items():
                overrides[f"trigger.{key}"] = value
        else:
            logger.debug(
                "attack %s has no trigger config; ignoring trigger overrides %s",
                spec.attack.name,
                sorted(trigger_overrides),
            )
    overrides.update(spec.attack.overrides)
    return ATTACKS.build(spec.attack.name, **overrides)


def _dataset_seed(spec: ExperimentSpec) -> int:
    """Validate the dataset overrides (only ``seed``) and return the seed."""
    overrides = dict(spec.dataset.overrides)
    seed = overrides.pop("seed", 0)
    if overrides:
        raise ConfigurationError(
            f"dataset overrides support only 'seed', got {sorted(overrides)}"
        )
    return int(seed)


def _load_graph(spec: ExperimentSpec) -> GraphData:
    return load_dataset(spec.dataset.name, seed=_dataset_seed(spec))


def dataset_cache_key(spec: ExperimentSpec) -> Tuple[str, int]:
    """Key under which :func:`run_sweep` shares loaded datasets across cells."""
    return (spec.dataset.name.lower(), _dataset_seed(spec))


# ------------------------------------------------------------------ #
# Attack execution
# ------------------------------------------------------------------ #
def _execute_attack(
    attack, graph: GraphData, condenser: Condenser, rng: np.random.Generator
) -> Tuple[CondensedGraph, AsrEvaluator, int]:
    """Run any registered attack; normalise its result shape.

    BGC-style attacks return a :class:`~repro.attack.bgc.BGCResult` whose
    node-adaptive generator drives :func:`evaluate_backdoor`;
    :class:`NaivePoison` returns ``(condensed, universal_pattern)``, evaluated
    by blending the pattern into the test-node features.
    """
    result = attack.run(graph, condenser, rng)
    if isinstance(result, tuple):
        condensed, pattern = result
        target_class = int(getattr(attack.config, "target_class", 0))

        def universal_asr(model: Predictor) -> float:
            triggered = NaivePoison.attach_universal_trigger(
                graph, graph.split.test, pattern
            )
            predictions = predict_on_graph(model, triggered)
            return attack_success_rate(
                predictions, graph.labels, graph.split.test, target_class
            )

        poisoned = int(condensed.metadata.get("poisoned_nodes", 0))
        return condensed, universal_asr, poisoned

    generator = result.generator
    target_class = int(result.target_class)

    def generator_asr(model: Predictor) -> float:
        return evaluate_backdoor(model, graph, generator, target_class)

    return result.condensed, generator_asr, int(result.poisoned_nodes.size)


# ------------------------------------------------------------------ #
# Defense application
# ------------------------------------------------------------------ #
def _apply_defense(
    defense,
    condensed: CondensedGraph,
    model: Predictor,
    graph: GraphData,
    evaluation: EvaluationConfig,
    rng: np.random.Generator,
) -> Predictor:
    """Apply a registered defense and return the defended predictor.

    Four duck-typed protocols cover the registered families: dataset-level
    defenses expose ``apply_to_condensed`` (retrain on the sanitised graph),
    detectors expose ``detect`` (drop flagged nodes, retrain), robust-training
    defenses expose ``retrain`` (refit under training-time perturbation), and
    model-level defenses expose ``wrap`` (smooth the already-trained model).
    """
    if hasattr(defense, "retrain"):
        return defense.retrain(condensed, graph, evaluation, rng)
    if hasattr(defense, "apply_to_condensed"):
        defended = defense.apply_to_condensed(condensed)
        return train_model_on_condensed(defended, graph, evaluation, rng)
    if hasattr(defense, "detect"):
        report = defense.detect(condensed)
        defended = remove_flagged_nodes(condensed, report)
        return train_model_on_condensed(defended, graph, evaluation, rng)
    if hasattr(defense, "wrap"):
        return defense.wrap(model)
    raise ConfigurationError(
        f"defense {type(defense).__name__} implements none of "
        "retrain/apply_to_condensed/detect/wrap"
    )


# ------------------------------------------------------------------ #
# Entry points
# ------------------------------------------------------------------ #
def run_experiment(
    spec: ExperimentSpec,
    *,
    graph: GraphData | None = None,
    cell_index: int | None = None,
) -> RunRecord:
    """Execute one spec end-to-end and return its :class:`RunRecord`.

    ``graph`` lets a sweep share the loaded dataset across cells; when given
    it must be the dataset the spec names.  All five random streams (clean
    condensation, attack, victim training, clean training, defense) are
    spawned from ``spec.seed`` alone, so a cell's record never depends on
    what else ran in the process.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec.from_dict(spec)
    spec.validate_runnable()
    # Build every component before the (potentially expensive) dataset
    # generation: a bad name or override typo anywhere in the spec is
    # rejected at near-zero cost — and independently of whether a sweep
    # already shares the graph.  Construction is cheap (config binding only).
    evaluation = _resolve_evaluation(spec)
    _dataset_seed(spec)
    condenser = _resolve_condenser(spec)
    attack = _resolve_attack(spec) if spec.attack.is_set else None
    defense = (
        DEFENSES.build(spec.defense.name, **spec.defense.overrides)
        if spec.defense.is_set
        else None
    )
    watch = _Stopwatch()
    if graph is None:
        graph = watch.measure("load_dataset", lambda: _load_graph(spec))
    elif graph.name.lower() != spec.dataset.name.lower():
        raise ConfigurationError(
            f"shared graph {graph.name!r} does not match spec dataset {spec.dataset.name!r}"
        )
    clean_rng, attack_rng, victim_rng, eval_rng, defense_rng = spawn_rngs(spec.seed, 5)

    record = RunRecord(spec=spec, cell_index=cell_index)

    asr_evaluator: AsrEvaluator | None = None
    attacked_model: Predictor | None = None
    attacked_condensed: CondensedGraph | None = None
    if attack is not None:
        attacked_condensed, asr_evaluator, poisoned = watch.measure(
            "attack", lambda: _execute_attack(attack, graph, condenser, attack_rng)
        )
        record.poisoned_nodes = poisoned
        record.attack_condensed_hash = condensed_fingerprint(attacked_condensed)
        attacked_model = watch.measure(
            "train_victim",
            lambda: train_model_on_condensed(attacked_condensed, graph, evaluation, victim_rng),
        )
        record.attack_cta = watch.measure(
            "evaluate", lambda: evaluate_clean(attacked_model, graph)
        )
        record.attack_asr = watch.measure("evaluate", lambda: asr_evaluator(attacked_model))

    # The attack leg consumed `condenser` (condensers are stateful), so the
    # clean baseline gets a fresh instance with identical configuration.
    clean_condenser = _resolve_condenser(spec) if attack is not None else condenser
    clean_condensed = watch.measure(
        "condense", lambda: clean_condenser.condense(graph, clean_rng)
    )
    record.condensed_nodes = clean_condensed.num_nodes
    record.condensed_hash = condensed_fingerprint(clean_condensed)
    clean_model = watch.measure(
        "train_clean",
        lambda: train_model_on_condensed(clean_condensed, graph, evaluation, eval_rng),
    )
    record.clean_cta = watch.measure("evaluate", lambda: evaluate_clean(clean_model, graph))
    if asr_evaluator is not None:
        record.clean_asr = watch.measure("evaluate", lambda: asr_evaluator(clean_model))

    if defense is not None:
        target_condensed = attacked_condensed if attacked_condensed is not None else clean_condensed
        target_model = attacked_model if attacked_model is not None else clean_model
        defended_model = watch.measure(
            "defense",
            lambda: _apply_defense(
                defense, target_condensed, target_model, graph, evaluation, defense_rng
            ),
        )
        record.defense_cta = watch.measure(
            "evaluate", lambda: evaluate_clean(defended_model, graph)
        )
        reference_cta = record.attack_cta if spec.attack.is_set else record.clean_cta
        record.defense_cta_delta = record.defense_cta - reference_cta
        if asr_evaluator is not None:
            record.defense_asr = watch.measure(
                "evaluate", lambda: asr_evaluator(defended_model)
            )
            record.defense_asr_delta = record.defense_asr - record.attack_asr

    record.timings = watch.timings
    return record


#: PropagationCache counters that are summable across workers (the remaining
#: ``stats()`` keys — graphs / shards / raw_matrices — are gauges).
CACHE_COUNTER_KEYS = (
    "hits",
    "misses",
    "incremental_updates",
    "incremental_normalizations",
    "buffer_reuses",
)


def cache_counters(stats: Mapping[str, int]) -> Dict[str, int]:
    """Project a ``PropagationCache.stats()`` mapping onto its counters."""
    return {key: int(stats.get(key, 0)) for key in CACHE_COUNTER_KEYS}


def merge_cache_stats(stats_list: List[Mapping[str, int]]) -> Dict[str, int]:
    """Sum per-contributor cache counters into one sweep-level mapping.

    The pool backend feeds this the parent's handoff delta plus one
    counter delta per cell a worker reported; the serial backend feeds the
    single before/after delta of the shared cache.  ``contributors`` records how
    many deltas merged.
    """
    merged = {key: 0 for key in CACHE_COUNTER_KEYS}
    for stats in stats_list:
        for key in CACHE_COUNTER_KEYS:
            merged[key] += int(stats.get(key, 0))
    merged["contributors"] = len(stats_list)
    return merged


class SweepRecord(List[RunRecord]):
    """The result of one sweep: records in canonical grid order + aggregates.

    A ``SweepRecord`` *is* the list of :class:`RunRecord` (so existing
    list-shaped callers keep working), enriched with sweep-level state:
    ``cache_stats`` merges the :class:`~repro.graph.cache.PropagationCache`
    counters of every contributor (the parent's handoff delta plus each
    reported cell's worker delta under the pool backend; the serial backend
    contributes its single before/after delta).
    """

    def __init__(
        self,
        records: List[RunRecord] = (),
        *,
        cache_stats: Mapping[str, int] | None = None,
    ) -> None:
        super().__init__(records)
        self.cache_stats: Dict[str, int] = dict(cache_stats or {})

    @property
    def failed(self) -> List[RunRecord]:
        """The failed cells (empty unless ``on_error="record"`` saw errors)."""
        return [record for record in self if not record.ok]


def _validated_order(order: List[int] | None, num_cells: int) -> List[int]:
    """Canonical dispatch order, defaulting to grid order."""
    if order is None:
        return list(range(num_cells))
    if sorted(order) != list(range(num_cells)):
        raise ConfigurationError(
            f"order must be a permutation of range({num_cells}), got {order!r}"
        )
    return list(order)


def run_sweep(
    sweep: SweepSpec,
    *,
    order: List[int] | None = None,
    on_record: Callable[[RunRecord], None] | None = None,
    execution: ExecutionSpec | Mapping[str, Any] | None = None,
) -> SweepRecord:
    """Execute every cell of a sweep; records return in canonical grid order.

    ``order`` optionally permutes *dispatch* order (used by the determinism
    tests); it never changes the returned ordering or any cell's result,
    because per-cell seeds are fixed at expansion time.  ``on_record`` is
    invoked after each cell completes (in completion order — equal to
    dispatch order for the serial backend) and also receives failed records.
    ``execution`` overrides the sweep's own :class:`ExecutionSpec`: the
    ``pool`` backend (also spelled ``process``) fans cells out over a pool of
    worker processes with shard-aware cache handoff (see
    :mod:`repro.api.parallel`) and is bit-identical to serial execution for
    any worker count; ``on_error="record"`` turns cell failures into
    structured failed records instead of aborting the sweep.
    In the serial backend cells naming the same dataset (and dataset seed)
    share one loaded graph, and through it the shared
    :class:`~repro.graph.cache.PropagationCache`.  When
    ``execution.blocked_threshold`` is set, the blocked-propagation threshold
    override is installed for the duration of the sweep (and restored after),
    covering the serial loop, the pool's handoff and — via ``fork``
    inheritance or the task message — every worker process.
    ``execution.kernel_backend`` is installed the same way (see
    :func:`repro.kernels.set_kernel_backend`), so every cell, serial or
    pooled, dispatches its numerical primitives through the requested
    backend.
    """
    if not isinstance(sweep, SweepSpec):
        sweep = SweepSpec.from_dict(sweep)
    execution = (
        sweep.execution if execution is None else ExecutionSpec.coerce(execution)
    )
    specs = sweep.expand()
    order = _validated_order(order, len(specs))

    if execution.blocked_threshold is None and execution.kernel_backend is None:
        return _run_sweep_cells(sweep, specs, order, execution, on_record)
    from repro.graph.blocked import set_blocked_threshold
    from repro.kernels import set_kernel_backend

    previous_threshold = (
        set_blocked_threshold(execution.blocked_threshold)
        if execution.blocked_threshold is not None
        else None
    )
    previous_kernel = (
        set_kernel_backend(execution.kernel_backend)
        if execution.kernel_backend is not None
        else None
    )
    try:
        return _run_sweep_cells(sweep, specs, order, execution, on_record)
    finally:
        if execution.kernel_backend is not None:
            set_kernel_backend(previous_kernel)
        if execution.blocked_threshold is not None:
            set_blocked_threshold(previous_threshold)


def _run_sweep_cells(
    sweep: SweepSpec,
    specs: List[ExperimentSpec],
    order: List[int],
    execution: ExecutionSpec,
    on_record: Callable[[RunRecord], None] | None,
) -> SweepRecord:
    """Dispatch the expanded grid to the selected backend (see run_sweep)."""
    if execution.backend in ("process", "pool"):
        from repro.api.parallel import run_sweep_pool

        records, cache_stats = run_sweep_pool(sweep, specs, order, execution, on_record)
        return SweepRecord(records, cache_stats=cache_stats)

    from repro.graph.cache import get_default_cache

    stats_before = cache_counters(get_default_cache().stats())
    graphs: Dict[Tuple[str, int], GraphData] = {}
    unloadable: Dict[Tuple[str, int], Dict[str, str]] = {}
    records: List[RunRecord | None] = [None] * len(specs)
    for position, index in enumerate(order):
        spec = specs[index]
        logger.info(
            "sweep %s: cell %d/%d (grid index %d): %s/%s/%s",
            sweep.name,
            position + 1,
            len(specs),
            index,
            spec.dataset.name,
            spec.condenser.name,
            spec.attack.name or "clean",
        )
        start = time.perf_counter()
        try:
            key = dataset_cache_key(spec)
            if key in unloadable:
                # The dataset already failed to load for an earlier cell:
                # reuse its recorded failure instead of re-paying a
                # potentially expensive failed generation once per cell.
                record = RunRecord.from_failure(spec, index, unloadable[key], 0.0)
            else:
                if key not in graphs:
                    try:
                        graphs[key] = _load_graph(spec)
                    except Exception as error:
                        unloadable[key] = error_info(error)
                        raise
                record = run_experiment(spec, graph=graphs[key], cell_index=index)
        except Exception as error:
            if execution.on_error == "raise":
                raise
            record = RunRecord.from_failure(
                spec, index, error_info(error), time.perf_counter() - start
            )
            logger.warning(
                "sweep %s: cell %d failed (%s), recorded and continuing",
                sweep.name,
                index,
                type(error).__name__,
            )
        records[index] = record
        if on_record is not None:
            on_record(record)
    stats_after = cache_counters(get_default_cache().stats())
    delta = {key: stats_after[key] - stats_before[key] for key in CACHE_COUNTER_KEYS}
    return SweepRecord(records, cache_stats=merge_cache_stats([delta]))
