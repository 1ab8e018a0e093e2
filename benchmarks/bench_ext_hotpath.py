"""Extension benchmark — the attack-loop hot path: seed vs cached vs incremental.

The BGC attack drives one condensation ``epoch_step`` per attack epoch against
a freshly-built poisoned graph.  This benchmark isolates exactly that step at
seed benchmark scale (Cora, GCond-X) and compares four regimes:

* **cold (seed)** — a faithful replica of the *seed repository's* per-epoch
  implementation: ``gcn_normalize`` plus K full sparse matmuls over the whole
  real graph every epoch (the seed's ``id()``-keyed memo never hit in the
  attack loop), autograd-based surrogate training, and C separate per-class
  softmax/gradient passes.  This is the baseline the PR's ≥3× target is
  measured against.
* **no-cache** — the *current* code with the cache cleared every epoch and no
  delta recorded: shows how much of the win comes from the vectorised epoch
  alone (informational).
* **cached** — the same poisoned graph version every epoch: pure memo hits.
* **incremental** — a *fresh* delta-recorded ``GraphData`` every epoch,
  built with the reference ``with_delta`` (``tests/reference/subgraph.py``)
  so only the trigger-attached K-hop neighbourhood is recomputed.  No
  production code builds such a graph: BGC's epochs condense a
  ``GraphView``, which is the **view** regime below.

On top of the condensation-epoch regimes, the benchmark times the other two
per-epoch costs of the attack loop and the **full attack epoch** in two
configurations:

* **generator update** — per-node ``local_trigger_loss`` loop (PR 1, now in
  ``tests/reference/trigger.py``) vs the batched block-diagonal loss
  (`batched_local_trigger_loss`);
* **trigger attachment** — COO rebuild (PR 1) vs CSR surgery;
* **attack epoch (PR 1)** — per-node update + COO attach + full
  ``gcn_normalize`` of every derived graph + incremental propagation, i.e.
  exactly what PR 1 shipped;
* **attack epoch (new)** — batched update + CSR surgery + incremental
  renormalisation + incremental propagation.

On top of *those*, the PR 4 section times the **complete BGC attack epoch**
(surrogate retrain on the condensed graph + generator update + trigger
attachment + condensation step — ``BGC.run``'s real per-epoch body, driven
through the attack's own internals) in two configurations:

* **materialised (PR 2)** — cold autograd surrogate retrain every epoch,
  poisoned graph materialised by ``MaterialisedBGC`` (``attach_trigger_subgraph``
  + ``with_delta``, paying the ``(N, F)`` feature vstack; both from
  ``tests/reference/subgraph.py``);
* **view (PR 4)** — warm-started closed-form surrogate refresh
  (``surrogate_warm_start`` on the attack *and* the condenser), poisoned
  graph as a zero-copy ``GraphView``, propagation read in difference form
  (no per-epoch ``(N, F)`` materialisation anywhere).

The PR 6 sections measure the **blocked out-of-core propagation engine** and
the **scaffold-cached generator update**:

* **blocked propagation** — one full condensation epoch on the Flickr
  stand-in's 50k-node training view (100k-node graph), routed through the
  memory-mapped block store.  The *additional* peak RSS of the epoch (over
  the resident graph) is asserted below a ceiling that the dense hop chain
  alone would necessarily exceed, the blocked product is checked against a
  dense ``sgc_precompute`` at ``atol=1e-10``, and a row/column tile-size
  sweep of the spmm kernel is timed (recorded in ``docs/benchmarks.md``);
* **generator update, scaffold cache** — the batched trigger-generator
  update with the per-node scaffold cache (local neighbourhood index, host
  adjacency block, host feature rows — reused across steps and epochs, as
  ``BGC._update_generator`` now runs) vs the same update rebuilding
  scaffolds every call.  Losses must be bit-identical; the cached path must
  not be slower.

On top of the per-epoch regimes, the PR 5 section measures **sweep
throughput**: an 8-cell tiny grid (2 condensers × 2 attacks × defense
on/off) run serially and through the process-pool execution backend with 4
workers and shard-aware cache handoff.  The two runs must be *bit-identical*
(metrics and condensed-graph hashes compare exactly); the wall-clock floor
is asserted only on hosts that can physically parallelise (≥ 4 usable
cores) — on fewer cores the numbers are reported but a speedup would be
meaningless.

Claims checked:

1. the incremental propagation path is **exact**: its propagated features
   match a full cold recompute to ``atol=1e-10``;
2. the incremental *normalisation* is **exact** to the same tolerance;
3. the cached and incremental attack-loop condensation epochs are **≥ 3×
   faster** than the seed epoch at seed scale;
4. the new full attack epoch is **≥ 1.5× faster** than the PR 1 attack epoch
   at Cora scale;
5. the view-path difference-form propagation is **exact** (``atol=1e-10``
   against a cold recompute of the final poisoned view);
6. the view+warm-start BGC attack epoch is **≥ 1.3× faster** than the PR 2
   materialised BGC attack epoch at Cora scale;
7. the parallel sweep's records are **bit-identical** to the serial run
   (always asserted), and its wall-clock beats serial by **≥ 2×** on hosts
   with at least 4 usable cores;
8. the blocked condensation epoch's additional peak RSS stays **under 0.6×
   the dense hop-chain footprint** (``num_hops × N × F × 8`` bytes — which
   the dense engine pins in full, before transients) while its propagated
   product matches the dense engine at ``atol=1e-10``;
9. the scaffold-cached generator update is bit-identical to the uncached
   one and **at least as fast** (≥ 1× — typically well above).

Run standalone (CI smoke uses tiny sizes and skips the speedup assertion,
which is meaningless for graphs that fit in cache lines)::

    PYTHONPATH=src python benchmarks/bench_ext_hotpath.py          # seed scale
    PYTHONPATH=src REPRO_BENCH_SMOKE=1 python benchmarks/bench_ext_hotpath.py

or via pytest: ``pytest benchmarks/bench_ext_hotpath.py -s``.
"""

from __future__ import annotations

import math
import os
import sys
import time
from statistics import median
from typing import Dict, List

import numpy as np

from repro.attack.trigger import (
    TriggerConfig,
    TriggerGenerator,
    batched_local_trigger_loss,
    generate_hard_triggers,
)
from repro.autograd import Adam, Tensor
from repro.autograd import functional as F
from repro.condensation import CondensationConfig
from repro.condensation.gcond import GCondX
from repro.condensation.gradient_matching import gradient_distance
from repro.datasets import load_dataset
from repro.graph.cache import PropagationCache
from repro.graph.data import GraphData
from repro.graph.generators import class_correlated_features, stochastic_block_model
from repro.graph.normalize import gcn_normalize, self_loop_degrees
from repro.graph.propagation import sgc_precompute
from repro.graph.splits import make_planetoid_split
from repro.utils.seed import new_rng, spawn_rngs

# The slow paths (materialised attachment, per-node trigger loss, per-class
# gradient) are pinned references kept with the tests.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from reference.gradient_matching import per_class_model_gradient  # noqa: E402
from reference.subgraph import (  # noqa: E402
    MaterialisedBGC,
    attach_trigger_subgraph,
    attach_trigger_subgraph_coo,
    with_delta,
)
from reference.trigger import local_trigger_loss  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

TRIGGER_SIZE = 4
NUM_HOPS = 2
#: Enough epochs for the cache to reach steady state (evictions begin once
#: the LRU fills), matching how the real 12-30 epoch attack loop runs.
TIMED_EPOCHS = 10
SPEEDUP_FLOOR = 3.0
#: Floor for the full attack epoch (generator update + attachment +
#: condensation step): new path vs the PR 1 path.
EPOCH_SPEEDUP_FLOOR = 1.5
#: Floor for the complete BGC attack epoch (incl. surrogate retrain):
#: zero-copy view + warm-start path vs the PR 2 materialised path.
VIEW_EPOCH_SPEEDUP_FLOOR = 1.3
#: Worker-process count of the sweep-throughput section.
SWEEP_WORKERS = 4
#: Floor for the 8-cell grid under the process backend vs serial wall-clock.
#: Only asserted when the host exposes at least SWEEP_WORKERS usable cores —
#: with fewer, a parallel speedup is physically impossible and only the
#: bit-identity claim is meaningful.
SWEEP_SPEEDUP_FLOOR = 2.0
GENERATOR_STEPS = 2
UPDATE_BATCH = 12
MAX_NEIGHBORS = 10
EQUIVALENCE_ATOL = 1e-10
#: Ceiling on the blocked condensation epoch's *additional* peak RSS, as a
#: fraction of the dense hop-chain footprint (num_hops dense (N, F) float64
#: products).  The dense engine pins the full chain resident for the cache's
#: lifetime (a fraction of exactly 1.0 before counting transients), so a
#: ceiling well below it is the claim that makes the blocked engine worth its
#: indirection.  Measured ~0.47 on the 50k-node Flickr training view; 0.6
#: leaves margin for allocator noise without weakening the claim.
BLOCKED_RSS_FRACTION = 0.6
#: Floor for the scaffold-cached generator update vs rebuilding scaffolds
#: every call.  The win is real but modest at Cora scale, so the assertion
#: only guards against the cache being a pessimisation.
SCAFFOLD_SPEEDUP_FLOOR = 1.0
#: Ceiling on one sampled PRBCD step's additional peak RSS at flickr scale.
#: The dense candidate space is ~5e9 pairs (~37 GiB of scores alone) and a
#: single (N, F) chain materialisation is ~191 MiB on the training view;
#: 320 MiB proves the step touches neither.
SAMPLED_RSS_CEILING_MB = 320.0


def _build_graph(smoke: bool) -> GraphData:
    if not smoke:
        return load_dataset("cora", seed=0)
    rng = new_rng(0)
    labels = np.repeat(np.arange(3), 40)
    adjacency = stochastic_block_model([40, 40, 40], p_in=0.2, p_out=0.01, rng=rng)
    features = class_correlated_features(
        labels, num_features=32, signal_words_per_class=4,
        signal_strength=0.5, density=0.05, rng=rng,
    )
    split = make_planetoid_split(labels, train_per_class=8, num_val=20, num_test=40, rng=rng)
    return GraphData(adjacency=adjacency, features=features, labels=labels,
                     split=split, name="smoke-sbm")


def _poisoned_graph(
    graph: GraphData,
    targets: np.ndarray,
    rng: np.random.Generator,
    record_delta: bool,
) -> GraphData:
    """One attack epoch's poisoned graph: fresh trigger blocks on ``targets``."""
    num_targets = targets.size
    trigger_features = rng.normal(
        scale=0.1, size=(num_targets, TRIGGER_SIZE, graph.num_features)
    )
    block = 1.0 - np.eye(TRIGGER_SIZE)
    trigger_adjacency = np.repeat(block[None, :, :], num_targets, axis=0)
    new_adjacency, new_features, _ = attach_trigger_subgraph(
        graph.adjacency, graph.features, targets, trigger_features, trigger_adjacency
    )
    num_new = new_features.shape[0] - graph.num_nodes
    labels = np.concatenate([graph.labels, np.zeros(num_new, dtype=np.int64)])
    poisoned = with_delta(
        graph,
        targets,
        adjacency=new_adjacency,
        features=new_features,
        labels=labels,
        name=f"{graph.name}-poisoned",
    )
    if not record_delta:
        poisoned = poisoned.with_(derivation=None)
    return poisoned


def _fresh_condenser(cache: PropagationCache, graph: GraphData, seed: int) -> GCondX:
    condenser = GCondX(CondensationConfig(epochs=1, ratio=0.05), cache=cache)
    condenser.initialize(graph, new_rng(seed))
    return condenser


def _seed_equivalent_epoch(condenser: GCondX, poisoned: GraphData) -> float:
    """Replica of the seed repository's ``epoch_step`` cost profile.

    Mirrors the pre-PR implementation line for line: autograd surrogate
    training, a full ``sgc_precompute`` of the poisoned graph (the seed's
    ``id(graph)``-keyed memo always missed in the attack loop because every
    epoch builds a new graph object), and one softmax/logits pass *per class*
    on both the real and the synthetic side.
    """
    state = condenser._state
    config = condenser.config
    condenser.reset_surrogate()

    # Seed train_surrogate: autograd graph + optimiser object per call.
    propagated_syn = condenser._synthetic_propagated(detach=True)
    optimizer = Adam([state.surrogate_weight], lr=config.surrogate_lr)
    for _ in range(config.surrogate_steps):
        optimizer.zero_grad()
        logits = propagated_syn.matmul(state.surrogate_weight)
        loss = F.cross_entropy(logits, state.labels)
        loss.backward()
        optimizer.step()

    # Seed outer_step: full propagation + per-class gradient passes.
    real_propagated = sgc_precompute(
        poisoned.adjacency, poisoned.features, config.num_hops
    )
    weight = state.surrogate_weight.data
    state.feature_optimizer.zero_grad()
    synthetic_propagated = condenser._synthetic_propagated(detach=False)
    weight_tensor = Tensor(weight)
    total_loss = None
    train_labels = poisoned.labels
    train_index = poisoned.split.train
    for cls, synthetic_index in state.class_index.items():
        real_index = train_index[train_labels[train_index] == cls]
        if real_index.size == 0 or synthetic_index.size == 0:
            continue
        real_grad = per_class_model_gradient(
            real_propagated, train_labels, weight, real_index, poisoned.num_classes
        )
        rows = synthetic_propagated.index_rows(synthetic_index)
        probs = F.softmax(rows.matmul(weight_tensor), axis=-1)
        targets = F.one_hot(state.labels[synthetic_index], poisoned.num_classes)
        synthetic_grad = rows.T.matmul(probs - Tensor(targets)) * (
            1.0 / synthetic_index.size
        )
        class_loss = gradient_distance(real_grad, synthetic_grad, config.distance)
        total_loss = class_loss if total_loss is None else total_loss + class_loss
    total_loss.backward()
    state.feature_optimizer.step()
    return float(total_loss.item())


class _PR1NormalizeCache(PropagationCache):
    """PR 1's cache behaviour: every derived graph pays a full gcn_normalize.

    Used to isolate this PR's win — the incremental normalise, batched
    generator update and CSR attachment — from PR 1's incremental
    propagation, which both attack-epoch regimes share.
    """

    def normalized(self, graph: GraphData):
        with self._lock:
            entry = self._lookup(graph)
            if entry is not None and entry.normalized is not None:
                self.hits += 1
                return entry.normalized
            self.misses += 1
            shard = self._shard(self._shard_key(graph))
            entry = self._entry(shard, self._key(graph))
            self._set_normalized(
                entry, gcn_normalize(graph.adjacency), self_loop_degrees(graph.adjacency)
            )
            # PR 1 also paid the |Â'| copy in every incremental propagation.
            entry.nonnegative = False
            return entry.normalized


def _fresh_generator(graph: GraphData):
    generator = TriggerGenerator(
        graph.num_features, new_rng(17), TriggerConfig(trigger_size=TRIGGER_SIZE)
    )
    generator.calibrate(graph.features)
    optimizer = Adam(generator.parameters(), lr=generator.config.learning_rate)
    encoder_inputs = generator.encode_inputs(graph.adjacency, graph.features)
    return generator, optimizer, encoder_inputs


def _generator_update(
    graph: GraphData,
    generator,
    optimizer,
    encoder_inputs,
    weight_tensor: Tensor,
    rng: np.random.Generator,
    batched: bool,
) -> float:
    """One generator update pass: GENERATOR_STEPS batches, per-node or batched."""
    loss_kwargs = dict(target_class=0, max_neighbors=MAX_NEIGHBORS, num_hops=NUM_HOPS)
    pool = np.arange(graph.num_nodes)
    last = float("nan")
    for _ in range(GENERATOR_STEPS):
        batch = rng.choice(pool, size=min(UPDATE_BATCH, pool.size), replace=False)
        optimizer.zero_grad()
        if batched:
            loss = batched_local_trigger_loss(
                batch, graph, encoder_inputs, generator, weight_tensor, **loss_kwargs
            )
        else:
            total = None
            for node in batch:
                node_loss = local_trigger_loss(
                    int(node), graph, encoder_inputs, generator, weight_tensor, **loss_kwargs
                )
                total = node_loss if total is None else total + node_loss
            loss = total * (1.0 / batch.size)
        loss.backward()
        optimizer.step()
        last = float(loss.item())
    return last


def run_attack_epoch_comparison(
    smoke: bool = SMOKE,
    timed_epochs: int = TIMED_EPOCHS,
    graph: GraphData = None,
) -> Dict[str, float]:
    """Time the full attack epoch and its two non-condensation components.

    The PR 1 regime runs the per-node generator update, the COO-rebuild
    attachment and a cache that fully renormalises every derived graph; the
    new regime runs the batched update, CSR surgery and incremental
    renormalisation.  Both share incremental K-hop propagation (PR 1's win),
    so the reported speedup is attributable to this PR alone.
    """
    if graph is None:
        graph = _build_graph(smoke)
    select_rng, trigger_seed_rng = spawn_rngs(2, 2)
    train = graph.split.train
    budget = max(3, train.size // 10)
    targets = np.sort(select_rng.choice(train, size=budget, replace=False))
    trigger_seed = int(trigger_seed_rng.integers(0, 2**31))
    num_classes = graph.num_classes
    weight_tensor = Tensor(new_rng(23).normal(size=(graph.num_features, num_classes)))

    def run_regime(batched: bool, attach, cache: PropagationCache) -> Dict[str, float]:
        condenser = _fresh_condenser(cache, graph, seed=0)
        generator, optimizer, encoder_inputs = _fresh_generator(graph)
        rng = new_rng(trigger_seed)
        epoch_times: List[float] = []
        update_times: List[float] = []
        attach_times: List[float] = []
        last_poisoned = None
        for index in range(timed_epochs + 1):
            epoch_start = time.perf_counter()
            start = time.perf_counter()
            _generator_update(
                graph, generator, optimizer, encoder_inputs, weight_tensor, rng, batched
            )
            update_elapsed = time.perf_counter() - start
            features, adjacency = generate_hard_triggers(
                generator, graph.adjacency, graph.features, targets
            )
            start = time.perf_counter()
            new_adjacency, new_features, _ = attach(
                graph.adjacency, graph.features, targets, features, adjacency
            )
            attach_elapsed = time.perf_counter() - start
            num_new = new_features.shape[0] - graph.num_nodes
            labels = np.concatenate([graph.labels, np.zeros(num_new, dtype=np.int64)])
            poisoned = with_delta(
                graph,
                targets,
                adjacency=new_adjacency,
                features=new_features,
                labels=labels,
                name=f"{graph.name}-poisoned",
            )
            condenser.epoch_step(poisoned)
            epoch_elapsed = time.perf_counter() - epoch_start
            if index > 0:  # first epoch is warm-up
                epoch_times.append(epoch_elapsed)
                update_times.append(update_elapsed)
                attach_times.append(attach_elapsed)
            last_poisoned = poisoned
        return {
            "epoch_ms": median(epoch_times) * 1e3,
            "update_ms": median(update_times) * 1e3,
            "attach_ms": median(attach_times) * 1e3,
            "poisoned": last_poisoned,
            "cache": cache,
        }

    pr1 = run_regime(
        batched=False, attach=attach_trigger_subgraph_coo, cache=_PR1NormalizeCache()
    )
    new = run_regime(
        batched=True, attach=attach_trigger_subgraph, cache=PropagationCache()
    )

    # Incremental-normalise exactness on the final poisoned graph of the new
    # regime (its cache really did take the incremental path every epoch).
    new_cache: PropagationCache = new["cache"]
    poisoned: GraphData = new["poisoned"]
    assert new_cache.stats()["incremental_normalizations"] >= timed_epochs
    normalize_diff = (new_cache.normalized(poisoned) - gcn_normalize(poisoned.adjacency)).tocsr()
    norm_max_abs_err = float(np.abs(normalize_diff.data).max()) if normalize_diff.nnz else 0.0

    return {
        "pr1_epoch_ms": pr1["epoch_ms"],
        "new_epoch_ms": new["epoch_ms"],
        "epoch_speedup": pr1["epoch_ms"] / new["epoch_ms"],
        "pernode_update_ms": pr1["update_ms"],
        "batched_update_ms": new["update_ms"],
        "update_speedup": pr1["update_ms"] / new["update_ms"],
        "attach_coo_ms": pr1["attach_ms"],
        "attach_csr_ms": new["attach_ms"],
        "attach_speedup": pr1["attach_ms"] / new["attach_ms"],
        "norm_max_abs_err": norm_max_abs_err,
    }


def run_view_epoch_comparison(
    smoke: bool = SMOKE,
    timed_epochs: int = TIMED_EPOCHS,
    graph: GraphData = None,
) -> Dict[str, float]:
    """Time the complete BGC attack epoch: materialised (PR 2) vs view (PR 4).

    Unlike :func:`run_attack_epoch_comparison` (which isolates the three
    non-surrogate components), this drives the attack's *own* per-epoch
    internals — ``BGC._train_surrogate`` → ``BGC._update_generator`` →
    ``BGC._build_poisoned_graph`` → ``condenser.epoch_step`` — so the
    cross-epoch surrogate batching is part of the measured epoch, exactly as
    it is in ``BGC.run``.  The two regimes differ in exactly two ways:

    * materialised: ``MaterialisedBGC``, full surrogate retrain per epoch
      (attack and condenser) — the pre-view configuration;
    * view: ``BGC`` (its poisoned graph is a ``GraphView``),
      ``surrogate_warm_start=True`` on both.
    """
    from repro.attack.bgc import BGC, BGCConfig
    from repro.graph.splits import SplitIndices

    if graph is None:
        graph = _build_graph(smoke)
    select_rng, trigger_seed_rng = spawn_rngs(3, 2)
    train = graph.split.train
    budget = max(3, train.size // 10)
    targets = np.sort(select_rng.choice(train, size=budget, replace=False))
    trigger_seed = int(trigger_seed_rng.integers(0, 2**31))

    # The poisoned-label scaffold BGC.run builds once per run.
    poisoned_labels = graph.labels.copy()
    poisoned_labels[targets] = 0
    base_poisoned = graph.with_(
        labels=poisoned_labels,
        split=SplitIndices(
            train=np.union1d(graph.split.train, targets),
            val=graph.split.val,
            test=graph.split.test,
        ),
    )

    def run_regime(use_view: bool) -> Dict[str, object]:
        cache = PropagationCache()
        condenser = GCondX(
            CondensationConfig(
                epochs=1,
                ratio=0.05,
                surrogate_warm_start=use_view,
                surrogate_refresh_steps=2 if use_view else None,
            ),
            cache=cache,
        )
        condenser.initialize(base_poisoned, new_rng(0))
        attack = (BGC if use_view else MaterialisedBGC)(
            BGCConfig(
                poison_number=budget,
                epochs=1,
                surrogate_warm_start=use_view,
                surrogate_refresh_steps=5,
                trigger=TriggerConfig(trigger_size=TRIGGER_SIZE),
            )
        )
        generator, optimizer, encoder_inputs = _fresh_generator(graph)
        rng = new_rng(trigger_seed)
        times = []
        poisoned = None
        for index in range(timed_epochs + 1):
            start = time.perf_counter()
            condensed = condenser.synthetic()
            surrogate_weight = attack._train_surrogate(condensed, rng)
            attack._update_generator(
                graph, encoder_inputs, generator, optimizer, surrogate_weight, rng
            )
            poisoned = attack._build_poisoned_graph(
                graph, base_poisoned, generator, targets
            )
            condenser.epoch_step(poisoned)
            elapsed = time.perf_counter() - start
            if index > 0:  # first epoch is warm-up
                times.append(elapsed)
        return {"epoch_ms": median(times) * 1e3, "poisoned": poisoned, "cache": cache}

    materialised = run_regime(use_view=False)
    view = run_regime(use_view=True)

    # Exactness of the final view epoch's difference-form propagation.
    view_cache: PropagationCache = view["cache"]
    last_view = view["poisoned"]
    lazy = view_cache.propagated_view(last_view, NUM_HOPS)
    reference = sgc_precompute(
        last_view.adjacency, last_view.features.materialize(), NUM_HOPS
    )
    view_max_abs_err = float(np.abs(lazy.materialize() - reference).max())

    return {
        "materialised_epoch_ms": materialised["epoch_ms"],
        "view_epoch_ms": view["epoch_ms"],
        "view_epoch_speedup": materialised["epoch_ms"] / view["epoch_ms"],
        "view_max_abs_err": view_max_abs_err,
    }


def _usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _sweep_throughput_spec(smoke: bool):
    """The 8-cell tiny grid: 2 condensers × 2 attacks × defense on/off.

    Cells are deliberately heavier than the CI smoke grid (more condensation
    and evaluation epochs) so per-cell compute dominates the process-pool
    overhead (fork + cache handoff + result pickling) the way a real sweep
    does; smoke mode shrinks them back down.
    """
    from repro.api import SweepSpec

    epochs = 2 if smoke else 6
    eval_epochs = 10 if smoke else 80
    return SweepSpec.from_dict(
        {
            "name": "throughput",
            "seed": 11,
            "base": {
                "dataset": "tiny",
                "condenser": {"overrides": {"epochs": epochs, "ratio": 0.2}},
                "trigger": {"overrides": {"trigger_size": 2}},
                "evaluation": {"overrides": {"epochs": eval_epochs}},
            },
            "axes": {
                "condenser": ["gcond", "gcond-x"],
                "attack": [
                    {"name": "bgc", "overrides": {"epochs": epochs, "poison_ratio": 0.2}},
                    {"name": "naive", "overrides": {"poison_fraction": 0.4}},
                ],
                "defense": ["prune", None],
            },
        }
    )


def run_sweep_throughput(smoke: bool = SMOKE) -> Dict[str, float]:
    """Serial vs process-pool execution of the 8-cell sweep grid.

    Both runs expand the identical spec; bit-identity is checked over every
    metric field *and* the condensed-graph sha256 fingerprints, so the
    comparison covers the full condensed artefacts rather than a summary.
    """
    from repro.api import ExecutionSpec, run_sweep
    from repro.api.runner import RunRecord

    sweep = _sweep_throughput_spec(smoke)

    start = time.perf_counter()
    serial = run_sweep(sweep)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_sweep(
        sweep, execution=ExecutionSpec(backend="process", workers=SWEEP_WORKERS)
    )
    parallel_s = time.perf_counter() - start

    def identity_key(record: RunRecord):
        payload = record.to_dict()
        payload.pop("timings")
        return payload

    records_match = [identity_key(r) for r in serial] == [
        identity_key(r) for r in parallel
    ]
    return {
        "sweep_cells": sweep.num_cells,
        "sweep_serial_s": serial_s,
        "sweep_parallel_s": parallel_s,
        "sweep_speedup": serial_s / parallel_s,
        "sweep_records_match": records_match,
        "sweep_workers": SWEEP_WORKERS,
        "sweep_cores": _usable_cores(),
        "sweep_cache_contributors": parallel.cache_stats.get("contributors", 0),
    }


def run_blocked_propagation(smoke: bool = SMOKE) -> Dict[str, object]:
    """One condensation epoch through the blocked out-of-core engine.

    Full mode condenses the Flickr stand-in's training view (~50k of 100k
    nodes, 500 features — 25M-element hop products, above the default
    blocked threshold); smoke mode shrinks to the SBM smoke graph with the
    threshold forced to 0 so the blocked machinery still runs end to end.
    Measured and asserted:

    * the *additional* peak RSS of the epoch (over the already-resident
      graph) stays below ``BLOCKED_RSS_FRACTION`` of the dense hop-chain
      footprint — the dense engine cannot go below 1.0 of it by definition;
    * the blocked hop product equals a dense ``sgc_precompute`` of the same
      graph at ``atol=1e-10``;
    * a tile-size sweep of the spmm kernel, reported for ``docs/benchmarks.md``.
    """
    from repro.graph.blocked import BlockedArray, blocked_spmm, set_blocked_threshold
    from repro.utils.memory import current_rss_bytes, peak_rss_bytes, reset_peak_rss

    if smoke:
        working = _build_graph(True)
        threshold = 0
        tile_rows = [32, 120]
        tile_cols = [16, 32]
        ratio = 0.1
    else:
        working = load_dataset("flickr", seed=0).training_view()
        threshold = None  # the default threshold already routes 50k x 500
        tile_rows = [2048, 8192, 32768]
        tile_cols = [64, 256, working.num_features]
        ratio = 0.005

    previous = set_blocked_threshold(threshold)
    try:
        cache = PropagationCache()
        condenser = GCondX(CondensationConfig(epochs=1, ratio=ratio), cache=cache)
        condenser.initialize(working, new_rng(0))

        reset_peak_rss()
        baseline = current_rss_bytes()
        start = time.perf_counter()
        condenser.epoch_step(working)
        epoch_s = time.perf_counter() - start
        peak_delta = peak_rss_bytes() - baseline

        product = cache.propagated(working, NUM_HOPS)
        assert isinstance(product, BlockedArray), (
            "condensation did not route through the blocked engine"
        )
        dense_chain_bytes = NUM_HOPS * working.num_nodes * working.num_features * 8
        rss_ceiling = BLOCKED_RSS_FRACTION * dense_chain_bytes

        # Exactness (outside the RSS window: the dense reference deliberately
        # allocates the very (N, F) arrays the blocked epoch avoided).
        reference = sgc_precompute(working.adjacency, working.features, NUM_HOPS)
        blocked_max_abs_err = float(np.abs(product.materialize() - reference).max())
        del reference

        # Tile sweep: one hop of the spmm kernel per (row, col) tile shape.
        normalized = cache.normalized(working)
        tile_sweep: List[Dict[str, float]] = []
        for row_block in tile_rows:
            for col_block in tile_cols:
                start = time.perf_counter()
                blocked_spmm(
                    normalized, working.features,
                    row_block=row_block, col_block=col_block,
                )
                tile_sweep.append({
                    "row_block": row_block,
                    "col_block": col_block,
                    "seconds": time.perf_counter() - start,
                })
    finally:
        set_blocked_threshold(previous)

    return {
        "blocked_graph": working.name,
        "blocked_nodes": working.num_nodes,
        "blocked_features": working.num_features,
        "blocked_epoch_s": epoch_s,
        "blocked_peak_delta_mb": peak_delta / 2**20,
        "blocked_rss_ceiling_mb": rss_ceiling / 2**20,
        "blocked_dense_chain_mb": dense_chain_bytes / 2**20,
        "blocked_max_abs_err": blocked_max_abs_err,
        "blocked_tile_sweep": tile_sweep,
    }


def run_generator_cache_comparison(
    smoke: bool = SMOKE,
    timed_epochs: int = TIMED_EPOCHS,
    graph: GraphData = None,
) -> Dict[str, float]:
    """Batched generator update with vs without the per-node scaffold cache.

    The pool is the (small) poison-target set, exactly the pool
    ``BGC._update_generator`` samples from — so after the warm-up epoch the
    cached regime serves every scaffold (local neighbourhood index, host
    adjacency block, host feature rows) from the dict instead of re-running
    ``_local_node_set`` + CSR slicing + feature gathers per node per step.
    Both regimes consume identical RNG streams, so their losses must be
    bit-identical — the cache only skips recomputing constants.
    """
    if graph is None:
        graph = _build_graph(smoke)
    select_rng, trigger_seed_rng = spawn_rngs(4, 2)
    train = graph.split.train
    budget = max(3, train.size // 10)
    pool = np.sort(select_rng.choice(train, size=budget, replace=False))
    trigger_seed = int(trigger_seed_rng.integers(0, 2**31))
    weight_tensor = Tensor(
        new_rng(29).normal(size=(graph.num_features, graph.num_classes))
    )
    loss_kwargs = dict(target_class=0, max_neighbors=MAX_NEIGHBORS, num_hops=NUM_HOPS)

    def run_regime(use_cache: bool):
        generator, optimizer, encoder_inputs = _fresh_generator(graph)
        rng = new_rng(trigger_seed)
        scaffold_cache = {} if use_cache else None
        times: List[float] = []
        last = float("nan")
        for index in range(timed_epochs + 1):
            start = time.perf_counter()
            for _ in range(GENERATOR_STEPS):
                batch = rng.choice(pool, size=min(UPDATE_BATCH, pool.size), replace=False)
                optimizer.zero_grad()
                loss = batched_local_trigger_loss(
                    batch, graph, encoder_inputs, generator, weight_tensor,
                    scaffold_cache=scaffold_cache, **loss_kwargs
                )
                loss.backward()
                optimizer.step()
                last = float(loss.item())
            elapsed = time.perf_counter() - start
            if index > 0:  # first epoch is warm-up (and fills the cache)
                times.append(elapsed)
        return median(times), last

    uncached_s, uncached_loss = run_regime(use_cache=False)
    cached_s, cached_loss = run_regime(use_cache=True)
    return {
        "scaffold_uncached_ms": uncached_s * 1e3,
        "scaffold_cached_ms": cached_s * 1e3,
        "scaffold_speedup": uncached_s / cached_s,
        "scaffold_losses_identical": uncached_loss == cached_loss,
    }


def run_hotpath(smoke: bool = SMOKE, timed_epochs: int = TIMED_EPOCHS) -> Dict[str, float]:
    graph = _build_graph(smoke)
    select_rng, trigger_seed_rng = spawn_rngs(1, 2)
    train = graph.split.train
    budget = max(3, train.size // 10)
    targets = np.sort(select_rng.choice(train, size=budget, replace=False))
    trigger_seed = int(trigger_seed_rng.integers(0, 2**31))

    timings: Dict[str, List[float]] = {}

    def run_mode(mode: str, cache: PropagationCache, record_delta: bool, fixed_graph: bool):
        """One mode: timed_epochs attack-loop condensation epochs (+1 warm-up).

        Poisoned graphs are built lazily (one alive at a time) so every mode
        sees the same allocator state — retaining a pile of ``(N, F)``
        matrices would slow all modes down via page-fault pressure.
        """
        condenser = _fresh_condenser(cache, graph, seed=0)
        rng = new_rng(trigger_seed)
        poisoned = None
        times = []
        for index in range(timed_epochs + 1):
            if poisoned is None or not fixed_graph:
                poisoned = _poisoned_graph(graph, targets, rng, record_delta)
            if mode == "no-cache":
                cache.invalidate()
            start = time.perf_counter()
            if mode == "cold (seed)":
                _seed_equivalent_epoch(condenser, poisoned)
            else:
                condenser.epoch_step(poisoned)
            elapsed = time.perf_counter() - start
            if index > 0:  # first epoch is warm-up (BLAS, allocator, base chain)
                times.append(elapsed)
        timings[mode] = times
        return poisoned

    # cold (seed): replica of the seed's per-epoch code — the ≥3× baseline.
    run_mode("cold (seed)", PropagationCache(), record_delta=False, fixed_graph=False)
    # no-cache: current code, memo cleared per epoch, no delta (informational).
    run_mode("no-cache", PropagationCache(), record_delta=False, fixed_graph=False)
    # cached: the same poisoned graph version every epoch — pure memo hits.
    run_mode("cached", PropagationCache(), record_delta=True, fixed_graph=True)
    # incremental: a fresh delta-recorded poisoned graph every epoch.
    shared = PropagationCache()
    last_poisoned = run_mode("incremental", shared, record_delta=True, fixed_graph=False)

    # --- exactness: incremental product vs a full cold recompute ----------- #
    incremental_product = shared.propagated(last_poisoned, NUM_HOPS)
    full_product = sgc_precompute(
        last_poisoned.adjacency, last_poisoned.features, NUM_HOPS
    )
    max_abs_err = float(np.abs(incremental_product - full_product).max())

    medians = {mode: median(times) for mode, times in timings.items()}
    cold = medians["cold (seed)"]
    results = {
        "graph": graph.name,
        "nodes": graph.num_nodes,
        "features": graph.num_features,
        "poisoned_nodes": int(budget),
        "cold_ms": cold * 1e3,
        "nocache_ms": medians["no-cache"] * 1e3,
        "cached_ms": medians["cached"] * 1e3,
        "incremental_ms": medians["incremental"] * 1e3,
        "speedup_nocache": cold / medians["no-cache"],
        "speedup_cached": cold / medians["cached"],
        "speedup_incremental": cold / medians["incremental"],
        "incremental_updates": shared.stats()["incremental_updates"],
        "max_abs_err": max_abs_err,
    }
    results.update(
        run_attack_epoch_comparison(smoke=smoke, timed_epochs=timed_epochs, graph=graph)
    )
    results.update(
        run_view_epoch_comparison(smoke=smoke, timed_epochs=timed_epochs, graph=graph)
    )
    results.update(
        run_generator_cache_comparison(smoke=smoke, timed_epochs=timed_epochs, graph=graph)
    )
    results.update(run_sweep_throughput(smoke=smoke))
    results.update(run_blocked_propagation(smoke=smoke))
    results.update(run_sampled_attack_step(smoke=smoke))
    return results


def run_sampled_attack_step(smoke: bool = SMOKE) -> Dict[str, object]:
    """One PRBCD-style sampled edge-attack step: latency, peak RSS, reference.

    Smoke mode runs on the SBM smoke graph (where the full pair space is
    enumerable) and additionally checks the covering-block == exhaustive
    contract; full mode times the step on the flickr training view — ~1.2e9
    candidate pairs — and measures the step's *additional* peak RSS, which
    must be bounded by the sampled block, never the candidate space or an
    ``(N, F)`` chain materialisation.
    """
    from repro.attack.sampled import (
        SampledEdgeAttack,
        SampledEdgeConfig,
        num_candidate_pairs,
    )
    from repro.utils.memory import current_rss_bytes, peak_rss_bytes, reset_peak_rss

    if smoke:
        working = _build_graph(True)
        block_size = 256
    else:
        working = load_dataset("flickr", seed=0).training_view()
        block_size = 2048
    config = SampledEdgeConfig(block_size=block_size, surrogate_steps=1)
    attack = SampledEdgeAttack(config)
    cache = PropagationCache()
    cache.propagated(working, config.surrogate_hops)
    cache.propagated(working, config.surrogate_hops - 1)
    weight = new_rng(2).normal(
        scale=0.1, size=(working.num_features, working.num_classes)
    )
    labels = working.labels
    train = working.split.train

    def one_step(seed: int, attacker=attack):
        return attacker.propose_flips(
            working, labels, train, weight, new_rng(seed), quota=8, cache=cache
        )

    one_step(0)  # warm allocator + chain handles before measuring
    reset_ok = reset_peak_rss()
    baseline = current_rss_bytes()
    start = time.perf_counter()
    chosen = one_step(9)
    step_s = time.perf_counter() - start
    peak = peak_rss_bytes()
    delta_mb = (
        (peak - baseline) / 2**20
        if reset_ok and peak is not None and baseline is not None
        else float("nan")
    )

    total = num_candidate_pairs(working.num_nodes)
    reference_match = True
    if total <= 2**20:  # the dense reference is only enumerable at smoke scale
        covering = SampledEdgeAttack(
            SampledEdgeConfig(block_size=total, surrogate_steps=1)
        )
        exhaustive = SampledEdgeAttack(
            SampledEdgeConfig(exhaustive=True, surrogate_steps=1)
        )
        reference_match = one_step(3, covering) == one_step(3, exhaustive)
    return {
        "sampled_graph": working.name,
        "sampled_nodes": working.num_nodes,
        "sampled_candidate_pairs": total,
        "sampled_block": block_size,
        "sampled_step_ms": step_s * 1e3,
        "sampled_flips": len(chosen),
        "sampled_peak_delta_mb": delta_mb,
        "sampled_reference_match": reference_match,
    }


def _report(results: Dict[str, float]) -> None:
    from bench_common import print_header

    print_header(
        "Hot path: attack-loop condensation epoch "
        f"({results['graph']}, N={results['nodes']}, F={results['features']}, "
        f"{results['poisoned_nodes']} poisoned nodes)"
    )
    print(f"{'path':<14}{'epoch (ms)':>12}{'speedup':>10}")
    for label, key in (
        ("cold (seed)", "cold_ms"),
        ("no-cache", "nocache_ms"),
        ("cached", "cached_ms"),
        ("incremental", "incremental_ms"),
    ):
        speedup = results["cold_ms"] / results[key]
        print(f"{label:<14}{results[key]:>12.2f}{speedup:>10.2f}")
    print(f"incremental updates: {results['incremental_updates']}")
    print(f"max |incremental - full recompute|: {results['max_abs_err']:.3e}")

    print_header("Attack epoch: PR 1 path vs loop-free path")
    print(f"{'component':<22}{'PR 1 (ms)':>12}{'new (ms)':>12}{'speedup':>10}")
    for label, old_key, new_key, ratio_key in (
        ("generator update", "pernode_update_ms", "batched_update_ms", "update_speedup"),
        ("trigger attachment", "attach_coo_ms", "attach_csr_ms", "attach_speedup"),
        ("full attack epoch", "pr1_epoch_ms", "new_epoch_ms", "epoch_speedup"),
    ):
        print(
            f"{label:<22}{results[old_key]:>12.2f}{results[new_key]:>12.2f}"
            f"{results[ratio_key]:>10.2f}"
        )
    print(f"max |incremental - full gcn_normalize|: {results['norm_max_abs_err']:.3e}")

    print_header("Complete BGC attack epoch: materialised (PR 2) vs view (PR 4)")
    print(f"{'path':<22}{'epoch (ms)':>12}{'speedup':>10}")
    print(f"{'materialised (PR 2)':<22}{results['materialised_epoch_ms']:>12.2f}{1.0:>10.2f}")
    print(
        f"{'view + warm start':<22}{results['view_epoch_ms']:>12.2f}"
        f"{results['view_epoch_speedup']:>10.2f}"
    )
    print(f"max |view propagation - full recompute|: {results['view_max_abs_err']:.3e}")

    print_header("Generator update: cold scaffolds vs scaffold cache")
    print(f"{'path':<22}{'update (ms)':>12}{'speedup':>10}")
    print(f"{'cold scaffolds':<22}{results['scaffold_uncached_ms']:>12.2f}{1.0:>10.2f}")
    print(
        f"{'scaffold cache':<22}{results['scaffold_cached_ms']:>12.2f}"
        f"{results['scaffold_speedup']:>10.2f}"
    )
    print(
        "losses bit-identical: "
        f"{'yes' if results['scaffold_losses_identical'] else 'NO'}"
    )

    print_header(
        f"Blocked propagation: {results['blocked_graph']} "
        f"(N={results['blocked_nodes']}, F={results['blocked_features']})"
    )
    print(f"condensation epoch through the blocked engine: {results['blocked_epoch_s']:.2f} s")
    print(
        f"additional peak RSS: {results['blocked_peak_delta_mb']:.1f} MiB "
        f"(ceiling {results['blocked_rss_ceiling_mb']:.1f} MiB = "
        f"{BLOCKED_RSS_FRACTION:.0%} of the "
        f"{results['blocked_dense_chain_mb']:.1f} MiB dense hop chain)"
    )
    print(f"max |blocked - dense sgc_precompute|: {results['blocked_max_abs_err']:.3e}")
    print(f"{'row tile':>10}{'col tile':>10}{'spmm (s)':>12}")
    for entry in results["blocked_tile_sweep"]:
        print(
            f"{entry['row_block']:>10}{entry['col_block']:>10}"
            f"{entry['seconds']:>12.3f}"
        )

    print_header(
        f"Sweep throughput: {results['sweep_cells']}-cell tiny grid, serial vs "
        f"process pool ({results['sweep_workers']} workers, "
        f"{results['sweep_cores']} usable cores)"
    )
    print(f"{'backend':<14}{'wall-clock (s)':>16}{'speedup':>10}")
    print(f"{'serial':<14}{results['sweep_serial_s']:>16.2f}{1.0:>10.2f}")
    print(
        f"{'process':<14}{results['sweep_parallel_s']:>16.2f}"
        f"{results['sweep_speedup']:>10.2f}"
    )
    print(
        "records bit-identical: "
        f"{'yes' if results['sweep_records_match'] else 'NO'}"
        f"  (cache stats merged from {results['sweep_cache_contributors']} "
        "contributors: parent handoff + one per cell)"
    )
    if results["sweep_cores"] < results["sweep_workers"]:
        print(
            f"note: only {results['sweep_cores']} usable core(s) — the "
            f"{SWEEP_SPEEDUP_FLOOR}x floor needs >= {results['sweep_workers']} "
            "and is not asserted on this host"
        )

    print_header(
        f"Sampled attack step: {results['sampled_graph']} "
        f"(N={results['sampled_nodes']}, "
        f"{results['sampled_candidate_pairs']:,} candidate pairs, "
        f"block {results['sampled_block']})"
    )
    print(
        f"one propose_flips step: {results['sampled_step_ms']:.1f} ms, "
        f"{results['sampled_flips']} positive-gain flips"
    )
    print(
        f"additional peak RSS: {results['sampled_peak_delta_mb']:.1f} MiB "
        f"(ceiling {SAMPLED_RSS_CEILING_MB:.0f} MiB at full scale; the dense "
        "candidate space would need "
        f"{results['sampled_candidate_pairs'] * 8 / 2**30:.1f} GiB of scores)"
    )
    print(
        "covering block == exhaustive reference: "
        f"{'yes' if results['sampled_reference_match'] else 'NO'}"
    )


def _sweep_floor_applies(results: Dict[str, float], smoke: bool) -> bool:
    """Whether the parallel wall-clock floor is meaningful on this host."""
    return not smoke and results["sweep_cores"] >= results["sweep_workers"]


def test_hotpath_cached_and_incremental_speedup():
    results = run_hotpath()
    _report(results)
    assert results["max_abs_err"] <= EQUIVALENCE_ATOL, (
        "incremental propagation diverged from the full recompute: "
        f"{results['max_abs_err']:.3e}"
    )
    assert results["norm_max_abs_err"] <= EQUIVALENCE_ATOL, (
        "incremental normalisation diverged from the full recompute: "
        f"{results['norm_max_abs_err']:.3e}"
    )
    assert results["view_max_abs_err"] <= EQUIVALENCE_ATOL, (
        "view-path difference-form propagation diverged from the full "
        f"recompute: {results['view_max_abs_err']:.3e}"
    )
    assert results["sweep_records_match"], (
        "parallel sweep records diverged from the serial run"
    )
    assert results["blocked_max_abs_err"] <= EQUIVALENCE_ATOL, (
        "blocked propagation diverged from the dense engine: "
        f"{results['blocked_max_abs_err']:.3e}"
    )
    assert results["scaffold_losses_identical"], (
        "scaffold cache changed the generator-update losses"
    )
    assert results["sampled_reference_match"], (
        "sampled attacker's covering block diverged from the exhaustive reference"
    )
    if not SMOKE:
        assert results["speedup_cached"] >= SPEEDUP_FLOOR, results
        assert results["speedup_incremental"] >= SPEEDUP_FLOOR, results
        assert results["epoch_speedup"] >= EPOCH_SPEEDUP_FLOOR, results
        assert results["view_epoch_speedup"] >= VIEW_EPOCH_SPEEDUP_FLOOR, results
        assert results["scaffold_speedup"] >= SCAFFOLD_SPEEDUP_FLOOR, results
        assert results["blocked_peak_delta_mb"] <= results["blocked_rss_ceiling_mb"], (
            "blocked condensation epoch exceeded its peak-RSS ceiling: "
            f"{results['blocked_peak_delta_mb']:.1f} MiB > "
            f"{results['blocked_rss_ceiling_mb']:.1f} MiB"
        )
        if not math.isnan(results["sampled_peak_delta_mb"]):
            assert results["sampled_peak_delta_mb"] <= SAMPLED_RSS_CEILING_MB, (
                "sampled attack step exceeded its peak-RSS ceiling: "
                f"{results['sampled_peak_delta_mb']:.1f} MiB > "
                f"{SAMPLED_RSS_CEILING_MB:.1f} MiB"
            )
    if _sweep_floor_applies(results, SMOKE):
        assert results["sweep_speedup"] >= SWEEP_SPEEDUP_FLOOR, results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny graph, equivalence check only (no speedup assertion)",
    )
    args = parser.parse_args()
    outcome = run_hotpath(smoke=args.smoke or SMOKE)
    _report(outcome)
    if outcome["max_abs_err"] > EQUIVALENCE_ATOL:
        raise SystemExit("propagation equivalence check FAILED")
    if outcome["norm_max_abs_err"] > EQUIVALENCE_ATOL:
        raise SystemExit("normalisation equivalence check FAILED")
    if outcome["view_max_abs_err"] > EQUIVALENCE_ATOL:
        raise SystemExit("view-path propagation equivalence check FAILED")
    if not outcome["sweep_records_match"]:
        raise SystemExit("parallel sweep bit-identity check FAILED")
    if outcome["blocked_max_abs_err"] > EQUIVALENCE_ATOL:
        raise SystemExit("blocked-vs-dense propagation equivalence check FAILED")
    if not outcome["scaffold_losses_identical"]:
        raise SystemExit("scaffold-cache loss bit-identity check FAILED")
    if not outcome["sampled_reference_match"]:
        raise SystemExit("sampled-vs-exhaustive attack equivalence check FAILED")
    if not (args.smoke or SMOKE):
        if min(outcome["speedup_cached"], outcome["speedup_incremental"]) < SPEEDUP_FLOOR:
            raise SystemExit(f"speedup below {SPEEDUP_FLOOR}x")
        if outcome["epoch_speedup"] < EPOCH_SPEEDUP_FLOOR:
            raise SystemExit(f"attack-epoch speedup below {EPOCH_SPEEDUP_FLOOR}x")
        if outcome["view_epoch_speedup"] < VIEW_EPOCH_SPEEDUP_FLOOR:
            raise SystemExit(
                f"view attack-epoch speedup below {VIEW_EPOCH_SPEEDUP_FLOOR}x"
            )
        if outcome["scaffold_speedup"] < SCAFFOLD_SPEEDUP_FLOOR:
            raise SystemExit(
                f"scaffold-cache update speedup below {SCAFFOLD_SPEEDUP_FLOOR}x"
            )
        if outcome["blocked_peak_delta_mb"] > outcome["blocked_rss_ceiling_mb"]:
            raise SystemExit("blocked propagation exceeded its peak-RSS ceiling")
        if (
            not math.isnan(outcome["sampled_peak_delta_mb"])
            and outcome["sampled_peak_delta_mb"] > SAMPLED_RSS_CEILING_MB
        ):
            raise SystemExit("sampled attack step exceeded its peak-RSS ceiling")
    if _sweep_floor_applies(outcome, args.smoke or SMOKE):
        if outcome["sweep_speedup"] < SWEEP_SPEEDUP_FLOOR:
            raise SystemExit(f"sweep-throughput speedup below {SWEEP_SPEEDUP_FLOOR}x")
    print("\nhot-path benchmark OK")
