"""Execute :class:`~repro.api.spec.ExperimentSpec` cells and sweeps.

:func:`run_experiment` resolves every component of a spec through the
registries, runs the full threat-model pipeline (clean condensation baseline,
optional attack, optional defense) and returns a structured
:class:`RunRecord`.  :func:`run_sweep` executes a grid: cells that name the
same dataset share one loaded :class:`~repro.graph.data.GraphData` (and with
it the process-wide :class:`~repro.graph.cache.PropagationCache`, so base
propagations are paid once per dataset, not once per cell) and one
:class:`~repro.api.stages.StageMemo` (so a selection, leg, fit or defense
that several cells share is computed once), while every random stream is
derived from the cell's own seed — results are bit-identical whether the
grid runs in canonical or shuffled order, with or without the memo.
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
from repro.api.stages import MEMO_COUNTER_KEYS, StageMemo, component_key, stage
from repro.attack.naive import NaivePoison
from repro.condensation.base import CondensedGraph, Condenser
from repro.datasets import load_dataset
from repro.datasets.base import get_spec
from repro.defenses.base import Defense
from repro.evaluation.metrics import attack_success_rate
from repro.evaluation.pipeline import (
    EvaluationConfig,
    Predictor,
    evaluate_clean,
    predict_on_graph,
    project_triggers,
    train_model_on_condensed,
    triggered_test_graph,
)
from repro.exceptions import AttackError, ConfigurationError
from repro.graph.blocked import BLOCKED_THRESHOLD
from repro.graph.data import GraphData
from repro.graph.view import GraphView
from repro.registry import ATTACKS, CONDENSERS, DEFENSES, MODELS, bind_config
from repro.utils.logging import get_logger
from repro.utils.seed import spawn_rngs

logger = get_logger("api.runner")


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
    overrides: Dict[str, Any] = {"architecture": spec.model.name}
    overrides.update(spec.model.overrides)
    overrides.update(spec.evaluation.overrides)
    evaluation = bind_config(EvaluationConfig, overrides)
    MODELS.canonical(evaluation.architecture)  # fail fast with the registry's message
    return evaluation


def _resolve_condenser(spec: ExperimentSpec) -> Condenser:
    return CONDENSERS.build(spec.condenser.name, **spec.condenser.overrides)


def _resolve_attack(spec: ExperimentSpec):
    """Build the attack, folding the trigger component into its config.

    A ``target_class`` or ``source_class`` the dataset does not have is
    rejected here, before the load, from the dataset's declared class count.
    The attacks keep their own checks against the graph they are given (an
    inductive training view can hold fewer classes).
    """
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
    attack = ATTACKS.build(spec.attack.name, **overrides)
    config = getattr(attack, "config", None)
    num_classes = get_spec(spec.dataset.name).num_classes
    for name in ("target_class", "source_class"):
        value = getattr(config, name, None)
        if value is not None and value >= num_classes:
            owner = (entry.config_cls or type(config)).__name__
            raise AttackError(
                f"{owner}.{name} must be < {num_classes}, the class count of "
                f"dataset {spec.dataset.name!r}, got {value!r}"
            )
    return attack


def _resolve_defense(spec: ExperimentSpec) -> Defense:
    defense = DEFENSES.build(spec.defense.name, **spec.defense.overrides)
    if not isinstance(defense, Defense):
        raise ConfigurationError(
            f"defense {spec.defense.name!r} built a {type(defense).__name__}, "
            "not a repro.defenses.Defense with a defend(...) method"
        )
    return defense


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
# Stages (keys, memo and scope: repro.api.stages)
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class Selection:
    """The ``select`` stage's output: the poisoned nodes, plus the attack
    stream's bit-generator state right after selection (a memo hit restores
    it, so the attack's later draws match a recomputed run)."""

    nodes: np.ndarray
    rng_state: Dict[str, Any]


@dataclass(frozen=True)
class Leg:
    """A condensation leg: the condensed graph and its fingerprint.

    An attack leg also carries what the ``evaluate`` stage needs to trigger
    the test nodes: a BGC-style attack's node-adaptive ``generator``, or
    :class:`NaivePoison`'s universal feature ``pattern``, and the
    ``test_nodes`` the trigger targets (a directed attack's source-class
    test nodes, otherwise every test node).
    """

    condensed: CondensedGraph
    fingerprint: str
    poisoned_nodes: int = 0
    generator: Any = None
    pattern: np.ndarray | None = None
    target_class: int = 0
    test_nodes: np.ndarray | None = None

    def triggered_graph(self, graph: GraphData) -> GraphData | GraphView:
        """``graph`` with this leg's trigger attached to each of its ``test_nodes``."""
        if self.pattern is not None:
            return NaivePoison.attach_universal_trigger(graph, self.test_nodes, self.pattern)
        return triggered_test_graph(graph, self.generator, self.target_class, self.test_nodes)


def _stage_keys(spec: ExperimentSpec, attack) -> Dict[str, tuple]:
    """Each memoised stage's key: the dataset key, the seed and only the
    component specs that stage reads.  ``select`` exists only for attacks
    with a ``selection_key`` (the attack fields selection reads)."""
    data = (dataset_cache_key(spec), spec.seed)
    clean_leg = (*data, component_key(spec.condenser))
    attack_leg = (*clean_leg, component_key(spec.attack), component_key(spec.trigger))
    evaluation = (component_key(spec.model), component_key(spec.evaluation))
    keys = {
        "clean_leg": clean_leg,
        "attack_leg": attack_leg,
        "clean_fit": ("clean", clean_leg, evaluation),
        "victim_fit": ("victim", attack_leg, evaluation),
    }
    defended_fit = keys["victim_fit"] if attack is not None else keys["clean_fit"]
    keys["defend"] = (defended_fit, component_key(spec.defense))
    if hasattr(attack, "selection_key"):
        keys["select"] = (*data, type(attack).__qualname__, attack.selection_key())
    return keys


def _select_stage(memo: StageMemo | None, key: tuple, attack) -> Callable:
    """The ``select`` stage as the selection hook of a BGC-style attack."""

    def select(working: GraphData, rng: np.random.Generator) -> np.ndarray:
        def compute() -> Selection:
            nodes = attack.select_poisoned_nodes(working, rng)
            return Selection(nodes, rng.bit_generator.state)

        selection = stage(memo, "select", key, compute)
        rng.bit_generator.state = selection.rng_state
        return selection.nodes

    return select


def _attack_leg(
    attack,
    graph: GraphData,
    condenser: Condenser,
    rng: np.random.Generator,
    select: Callable | None,
) -> Leg:
    """Run any registered attack; normalise its result into a :class:`Leg`.

    BGC-style attacks return a :class:`~repro.attack.bgc.BGCResult` whose
    node-adaptive generator triggers the test nodes;
    :class:`NaivePoison` returns ``(condensed, universal_pattern)``, blended
    into the test-node features.  ``select`` is passed to attacks that take
    a selection hook (those with a ``selection_key``).  A directed attack
    (BGC with ``directed``) targets only its ``source_class`` test nodes,
    so only those are triggered and scored.
    """
    if select is not None:
        result = attack.run(graph, condenser, rng, select=select)
    else:
        result = attack.run(graph, condenser, rng)
    test = graph.split.test
    if getattr(attack.config, "directed", False):
        test = test[graph.labels[test] == attack.config.source_class]
    else:
        test = test.copy()  # a memo freezes the leg's arrays, never the graph's
    if isinstance(result, tuple):
        condensed, pattern = result
        return Leg(
            condensed,
            condensed_fingerprint(condensed),
            int(condensed.metadata.get("poisoned_nodes", 0)),
            pattern=pattern,
            target_class=int(getattr(attack.config, "target_class", 0)),
            test_nodes=test,
        )
    return Leg(
        result.condensed,
        condensed_fingerprint(result.condensed),
        int(result.poisoned_nodes.size),
        generator=result.generator,
        target_class=int(result.target_class),
        test_nodes=test,
    )


def _clean_leg(
    condenser: Condenser, graph: GraphData, rng: np.random.Generator
) -> Leg:
    condensed = condenser.condense(graph, rng)
    return Leg(condensed, condensed_fingerprint(condensed))


def _evaluate(
    record: RunRecord,
    graph: GraphData,
    attack_leg: Leg | None,
    victim: Predictor | None,
    clean: Predictor,
    defended: Predictor | None,
) -> None:
    """The ``evaluate`` stage: every model's CTA, then every ASR.

    The triggered test graph is built once for the cell's (up to three)
    ASRs and released when this frame returns; it is never memoised.  Its
    trigger rows are multiplied by all the models' first-layer weights in
    one pass before the first ASR forward (:func:`project_triggers`).
    """
    if victim is not None:
        record.attack_cta = evaluate_clean(victim, graph)
    record.clean_cta = evaluate_clean(clean, graph)
    if defended is not None:
        record.defense_cta = evaluate_clean(defended, graph)
        reference_cta = record.clean_cta if victim is None else record.attack_cta
        record.defense_cta_delta = record.defense_cta - reference_cta
    if attack_leg is None:
        return
    triggered = attack_leg.triggered_graph(graph)
    if isinstance(triggered, GraphView):
        project_triggers(triggered, (victim, clean, defended))

    def asr(model: Predictor) -> float:
        predictions = predict_on_graph(model, triggered)
        return attack_success_rate(
            predictions, graph.labels, attack_leg.test_nodes, attack_leg.target_class
        )

    record.attack_asr = asr(victim)
    record.clean_asr = asr(clean)
    if defended is not None:
        record.defense_asr = asr(defended)
        record.defense_asr_delta = record.defense_asr - record.attack_asr


# ------------------------------------------------------------------ #
# Entry points
# ------------------------------------------------------------------ #
def run_experiment(
    spec: ExperimentSpec,
    *,
    cell_index: int | None = None,
    memo: StageMemo | None = None,
) -> RunRecord:
    """Execute one spec end-to-end and return its :class:`RunRecord`.

    The dataset comes from the :func:`~repro.datasets.load_dataset` memo,
    so the cells of a sweep (and of a pool worker) share one loaded graph.
    The cell runs as the stages of :mod:`repro.api.stages`.  All five
    random streams (clean condensation, attack, victim training, clean
    training, defense) are spawned from ``spec.seed`` alone and each is read
    by one stage, so a cell's record never depends on what else ran in the
    process.  ``memo`` (a sweep's :class:`~repro.api.stages.StageMemo`)
    serves the stages an earlier cell already computed; without one every
    stage is computed here.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = ExperimentSpec.from_dict(spec)
    spec.validate_runnable()
    # Build every component before the (potentially expensive) dataset
    # generation: a bad name or override typo anywhere in the spec is
    # rejected at near-zero cost — and independently of whether the memo
    # already holds the graph.  Construction is cheap (config binding only).
    evaluation = _resolve_evaluation(spec)
    _dataset_seed(spec)
    condenser = _resolve_condenser(spec)
    attack = _resolve_attack(spec) if spec.attack.is_set else None
    defense = _resolve_defense(spec) if spec.defense.is_set else None
    watch = _Stopwatch()
    graph = watch.measure("load_dataset", lambda: _load_graph(spec))
    clean_rng, attack_rng, victim_rng, eval_rng, defense_rng = spawn_rngs(spec.seed, 5)
    keys = _stage_keys(spec, attack)

    def run_stage(phase: str, name: str, key: str, compute: Callable[[], Any]) -> Any:
        """Time stage ``name`` under ``phase``, served from ``memo`` if held."""
        return watch.measure(phase, lambda: stage(memo, name, keys[key], compute))

    record = RunRecord(spec=spec, cell_index=cell_index)
    attack_leg = victim = None
    if attack is not None:
        select = _select_stage(memo, keys["select"], attack) if "select" in keys else None
        attack_leg = run_stage(
            "attack",
            "attack_leg",
            "attack_leg",
            lambda: _attack_leg(attack, graph, condenser, attack_rng, select),
        )
        # The leg holds all that later stages read of the attack: dropping
        # the attack and the condenser it consumed frees their working state
        # (optimiser moments, synthetic parameters, the scaffold memo).
        attack = condenser = select = None
        record.poisoned_nodes = attack_leg.poisoned_nodes
        record.attack_condensed_hash = attack_leg.fingerprint
        victim = run_stage(
            "train_victim",
            "fit",
            "victim_fit",
            lambda: train_model_on_condensed(attack_leg.condensed, graph, evaluation, victim_rng),
        )

    # The attack leg consumed its condenser (condensers are stateful), so the
    # clean baseline gets a fresh instance with identical configuration.
    if condenser is None:
        condenser = _resolve_condenser(spec)
    clean_leg = run_stage(
        "condense",
        "clean_leg",
        "clean_leg",
        lambda: _clean_leg(condenser, graph, clean_rng),
    )
    condenser = None
    record.condensed_nodes = clean_leg.condensed.num_nodes
    record.condensed_hash = clean_leg.fingerprint
    clean = run_stage(
        "train_clean",
        "fit",
        "clean_fit",
        lambda: train_model_on_condensed(clean_leg.condensed, graph, evaluation, eval_rng),
    )

    defended = None
    if defense is not None:
        target_leg, target_model = (
            (clean_leg, clean) if attack_leg is None else (attack_leg, victim)
        )
        defended = run_stage(
            "defense",
            "defend",
            "defend",
            lambda: defense.defend(
                target_leg.condensed, target_model, graph, evaluation, defense_rng
            ),
        )
    watch.measure(
        "evaluate", lambda: _evaluate(record, graph, attack_leg, victim, clean, defended)
    )
    record.timings = watch.timings
    return record


#: PropagationCache counters that are summable across workers (the remaining
#: ``stats()`` keys — graphs / shards / raw_matrices — are gauges).
CACHE_COUNTER_KEYS = (
    "hits",
    "misses",
    "incremental_updates",
    "incremental_normalizations",
)


def cache_counters(stats: Mapping[str, int]) -> Dict[str, int]:
    """Project a ``PropagationCache.stats()`` mapping onto its counters."""
    return {key: int(stats.get(key, 0)) for key in CACHE_COUNTER_KEYS}


def merge_cache_stats(
    stats_list: List[Mapping[str, int]], keys: Tuple[str, ...] = CACHE_COUNTER_KEYS
) -> Dict[str, int]:
    """Sum per-contributor counters into one sweep-level mapping.

    The pool backend feeds this the parent's handoff delta plus one
    counter delta per cell a worker reported; the serial backend feeds the
    single before/after delta of the shared cache.  ``contributors`` records how
    many deltas merged.  ``keys`` picks the counters: the cache's by
    default, :data:`~repro.api.stages.MEMO_COUNTER_KEYS` for the stage memo.
    """
    merged = {key: 0 for key in keys}
    for stats in stats_list:
        for key in keys:
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
    contributes its single before/after delta).  ``memo_stats`` merges the
    stage memo's per-stage hit and miss counts the same way (one delta per
    reported cell under the pool, the sweep's one memo serially).
    """

    def __init__(
        self,
        records: List[RunRecord] = (),
        *,
        cache_stats: Mapping[str, int] | None = None,
        memo_stats: Mapping[str, int] | None = None,
    ) -> None:
        super().__init__(records)
        self.cache_stats: Dict[str, int] = dict(cache_stats or {})
        self.memo_stats: Dict[str, int] = dict(memo_stats or {})

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
    worker processes that inherit or receive each dataset once (see
    :mod:`repro.api.parallel`) and is bit-identical to serial execution for
    any worker count; ``on_error="record"`` turns cell failures into
    structured failed records instead of aborting the sweep.
    In the serial backend cells naming the same dataset (and dataset seed)
    share one loaded graph from the dataset memo, and through it the shared
    :class:`~repro.graph.cache.PropagationCache`.  Cells also share one
    bounded :class:`~repro.api.stages.StageMemo` for the call (the pool keeps
    one per worker), which serves every stage an earlier cell already
    computed; ``SweepRecord.memo_stats`` counts its hits and misses.  A set
    ``execution.blocked_threshold`` is installed as its knob's override for
    the duration of the sweep (and restored after), covering the serial
    loop, the pool's handoff and — via the task message — every worker
    process.
    """
    if not isinstance(sweep, SweepSpec):
        sweep = SweepSpec.from_dict(sweep)
    execution = (
        sweep.execution if execution is None else ExecutionSpec.coerce(execution)
    )
    specs = sweep.expand()
    order = _validated_order(order, len(specs))

    with BLOCKED_THRESHOLD.overridden(execution.blocked_threshold):
        return _run_sweep_cells(sweep, specs, order, execution, on_record)


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

        records, cache_stats, memo_stats = run_sweep_pool(
            sweep, specs, order, execution, on_record
        )
        return SweepRecord(records, cache_stats=cache_stats, memo_stats=memo_stats)

    from repro.graph.cache import get_default_cache

    stats_before = cache_counters(get_default_cache().stats())
    memo = StageMemo()
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
                try:
                    _load_graph(spec)
                except Exception as error:
                    unloadable[key] = error_info(error)
                    raise
                record = run_experiment(spec, cell_index=index, memo=memo)
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
    return SweepRecord(
        records,
        cache_stats=merge_cache_stats([delta]),
        memo_stats=merge_cache_stats([memo.counters], MEMO_COUNTER_KEYS),
    )
