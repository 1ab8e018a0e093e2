"""Command-line interface for the BGC reproduction.

The CLI is a thin shell over the declarative API (:mod:`repro.api`): every
subcommand builds an :class:`~repro.api.spec.ExperimentSpec` (or
:class:`~repro.api.spec.SweepSpec`) and hands it to
:func:`~repro.api.runner.run_experiment` / :func:`~repro.api.runner.run_sweep`.

Spec-driven workflows::

    python -m repro.cli run   --spec spec.json
    python -m repro.cli sweep --spec sweep.json --out results.jsonl
    python -m repro.cli sweep --spec sweep.json --workers 4 --on-error record
    python -m repro.cli transfer --dataset tiny --matrix-out matrix.json

Service workflows (persistent worker pool + content-addressed result store,
see :mod:`repro.service`)::

    python -m repro.cli serve  --socket /tmp/repro.sock --workers 4 --store runs/store
    python -m repro.cli submit --socket /tmp/repro.sock --spec sweep.json --out out.jsonl
    python -m repro.cli jobs   --socket /tmp/repro.sock

``sweep`` executes serially by default; ``--workers N`` (N > 1) switches to
the worker-pool backend — bit-identical results, cells fanned out over N
worker processes with shard-aware propagation-cache handoff.  ``--out``
streams one ``RunRecord`` JSON object per line in canonical grid order
whatever the backend, so for successful cells serial and parallel runs of
the same spec produce lines that differ only in their ``timings`` (a failed
cell's ``error`` traceback additionally carries backend-specific frames).

Legacy workflows (compatibility wrappers that construct specs internally)::

    python -m repro.cli datasets                      # list datasets + statistics
    python -m repro.cli condense --dataset cora --method gcond --ratio 0.026
    python -m repro.cli attack   --dataset cora --method gcond --ratio 0.026 \
        --poison-ratio 0.1 --epochs 20

``attack`` runs the full threat model (clean baseline + BGC) and prints a
Table-II-style row; ``condense`` runs a clean condensation and reports the
downstream accuracy only.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, TextIO

from repro.api import (
    ExecutionSpec,
    ExperimentSpec,
    RunRecord,
    SweepSpec,
    TransferSweepSpec,
    run_experiment,
    run_sweep,
)
from repro.api.spec import EXECUTION_BACKENDS, ON_ERROR_MODES
from repro.datasets import list_datasets, statistics_table
from repro.exceptions import ConfigurationError
from repro.registry import ATTACKS, CONDENSERS
from repro.service import CondensationService, ResultStore
from repro.evaluation.reporting import (
    format_percent,
    format_table,
    format_transfer_matrix,
    sweep_summary_line,
    transfer_matrix,
)
from repro.utils.knobs import KNOBS
from repro.utils.logging import enable_console_logging


_WORKERS_HELP = (
    "worker-process count; a value > 1 switches the backend to 'process' "
    "(the worker pool) unless --backend serial is given explicitly"
)
_CELL_TIMEOUT_HELP = (
    "per-cell timeout in seconds, counted from the cell's dispatch to a "
    "worker (the serial backend ignores it)"
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Backdoor Graph Condensation (BGC) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the available datasets and their statistics")

    run = subparsers.add_parser("run", help="run one experiment described by a JSON spec")
    run.add_argument("--spec", required=True, help="path to an ExperimentSpec JSON file ('-' for stdin)")
    run.add_argument("--json", action="store_true", help="print the RunRecord as JSON instead of a table")
    run.add_argument("--verbose", action="store_true", help="enable console logging")

    sweep = subparsers.add_parser("sweep", help="run a cartesian grid described by a JSON sweep spec")
    sweep.add_argument("--spec", required=True, help="path to a SweepSpec JSON file ('-' for stdin)")
    sweep.add_argument("--out", default=None,
                       help="write one RunRecord JSON object per line (canonical grid order) to this file")
    sweep.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    sweep.add_argument("--backend", choices=EXECUTION_BACKENDS, default=None,
                       help="execution backend (overrides the spec's execution block)")
    sweep.add_argument("--cell-timeout", type=float, default=None, help=_CELL_TIMEOUT_HELP)
    sweep.add_argument("--on-error", choices=ON_ERROR_MODES, default=None,
                       help="'record' turns a failing cell into a failed RunRecord and keeps "
                            "going (exit code 1 if any cell failed); 'raise' aborts the sweep")
    sweep.add_argument("--verbose", action="store_true", help="enable console logging")

    transfer = subparsers.add_parser(
        "transfer",
        help="run a transferability matrix: condense under one surrogate, "
             "evaluate across models x defenses",
    )
    transfer.add_argument("--spec", default=None,
                          help="path to a TransferSweepSpec JSON file ('-' for stdin); "
                               "omitted = build one from the flags below")
    transfer.add_argument("--dataset", default="tiny",
                          help="dataset of the quick form (default tiny; ignored with --spec)")
    transfer.add_argument("--condenser", default="gcond", choices=CONDENSERS.known(),
                          help="surrogate condenser of the quick form (default gcond)")
    transfer.add_argument("--attack", default="naive", choices=ATTACKS.known(),
                          help="attack of the quick form (default naive)")
    transfer.add_argument("--epochs", type=int, default=3,
                          help="condensation epochs of the quick form (default 3)")
    transfer.add_argument("--eval-epochs", type=int, default=30,
                          help="downstream training epochs of the quick form (default 30)")
    transfer.add_argument("--seed", type=int, default=0,
                          help="cell seed of the matrix unless --seeds is given (default 0)")
    transfer.add_argument("--seeds", default=None,
                          help="comma-separated cell seeds, one matrix each; every cell "
                               "of a seed shares its attack (default: --seed)")
    transfer.add_argument("--models", default=None,
                          help="comma-separated victim architectures "
                               "(default: every registered model)")
    transfer.add_argument("--defenses", default=None,
                          help="comma-separated defenses; 'none' is the undefended "
                               "column (default: none + every registered defense)")
    transfer.add_argument("--out", default=None,
                          help="write one RunRecord JSON object per line "
                               "(canonical grid order) to this file")
    transfer.add_argument("--matrix-out", default=None,
                          help="write the model x defense CTA/ASR matrix as JSON to this file")
    transfer.add_argument("--json", action="store_true",
                          help="print the matrix as JSON instead of a markdown table")
    transfer.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    transfer.add_argument("--backend", choices=EXECUTION_BACKENDS, default=None,
                          help="execution backend (overrides the spec's execution block)")
    transfer.add_argument("--cell-timeout", type=float, default=None, help=_CELL_TIMEOUT_HELP)
    transfer.add_argument("--on-error", choices=ON_ERROR_MODES, default=None,
                          help="'record' keeps going past failing cells; 'raise' aborts")
    transfer.add_argument("--verbose", action="store_true", help="enable console logging")

    serve = subparsers.add_parser(
        "serve", help="run the condensation service (worker pool + result store) on a unix socket"
    )
    serve.add_argument("--socket", required=True, help="unix socket path to listen on")
    serve.add_argument("--workers", type=int, default=2,
                       help="persistent worker processes (default 2)")
    serve.add_argument("--store", default=None,
                       help="result-store root directory (default: $REPRO_RESULT_STORE, "
                            "else in-memory only)")
    serve.add_argument("--max-pending", type=int, default=8,
                       help="bound on queued jobs before submissions are rejected (default 8)")
    serve.add_argument("--recycle-after", type=int, default=64,
                       help="cells a worker runs before it is recycled (default 64)")
    serve.add_argument("--cell-timeout", type=float, default=None,
                       help="per-cell timeout in seconds")
    serve.add_argument("--verbose", action="store_true", help="enable console logging")

    submit = subparsers.add_parser(
        "submit", help="submit a sweep spec to a running service and stream its records"
    )
    submit.add_argument("--socket", required=True, help="unix socket of a running `repro serve`")
    submit.add_argument("--spec", required=True,
                        help="path to a SweepSpec JSON file ('-' for stdin)")
    submit.add_argument("--out", default=None,
                        help="write one RunRecord JSON object per line (canonical grid order) "
                             "to this file")
    submit.add_argument("--json", action="store_true",
                        help="print the job summary as JSON instead of a table")
    submit.add_argument("--no-wait", action="store_true",
                        help="queue the job and print its id without waiting for records")
    submit.add_argument("--verbose", action="store_true", help="enable console logging")

    jobs = subparsers.add_parser("jobs", help="list the jobs of a running service")
    jobs.add_argument("--socket", required=True, help="unix socket of a running `repro serve`")
    jobs.add_argument("--json", action="store_true", help="print summaries as JSON")

    condense = subparsers.add_parser("condense", help="run a clean graph condensation")
    _add_common_arguments(condense)

    attack = subparsers.add_parser("attack", help="run the BGC attack and report CTA/ASR")
    _add_common_arguments(attack)
    attack.add_argument("--poison-ratio", type=float, default=0.1,
                        help="poisoned fraction of the training set (default 0.1)")
    attack.add_argument("--poison-number", type=int, default=None,
                        help="absolute poison budget (overrides --poison-ratio)")
    attack.add_argument("--target-class", type=int, default=0, help="attack target class")
    attack.add_argument("--trigger-size", type=int, default=4, help="trigger subgraph size")
    attack.add_argument("--random-selection", action="store_true",
                        help="use random instead of representative node selection")
    return parser


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="cora", choices=sorted(list_datasets()))
    # known() includes alias spellings (gcondx, dcgraph, gcsntk) so historical
    # invocations keep parsing; build() resolves them to the canonical entry.
    parser.add_argument("--method", default="gcond", choices=CONDENSERS.known())
    parser.add_argument("--ratio", type=float, default=0.026, help="condensation ratio")
    parser.add_argument("--epochs", type=int, default=20, help="condensation / attack epochs")
    parser.add_argument("--eval-epochs", type=int, default=150, help="downstream training epochs")
    parser.add_argument("--architecture", default="gcn", help="downstream GNN architecture")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--verbose", action="store_true", help="enable console logging")


# ------------------------------------------------------------------ #
# Spec construction (the single source of truth for legacy defaults)
# ------------------------------------------------------------------ #
def spec_from_legacy_args(args: argparse.Namespace, *, with_attack: bool) -> ExperimentSpec:
    """Build the ExperimentSpec equivalent of a legacy CLI invocation.

    Both ``condense`` and ``attack`` route through here, so condensation and
    evaluation defaults can never drift between the two subcommands again.
    """
    payload: Dict[str, Any] = {
        "dataset": {"name": args.dataset, "overrides": {"seed": args.seed}},
        "model": args.architecture,
        "condenser": {
            "name": args.method,
            "overrides": {"epochs": args.epochs, "ratio": args.ratio},
        },
        "evaluation": {"overrides": {"epochs": args.eval_epochs}},
        "seed": args.seed,
    }
    if with_attack:
        attack_overrides: Dict[str, Any] = {
            "target_class": args.target_class,
            "epochs": args.epochs,
            "use_random_selection": args.random_selection,
        }
        if args.poison_number is not None:
            attack_overrides["poison_number"] = args.poison_number
            attack_overrides["poison_ratio"] = None
        else:
            attack_overrides["poison_ratio"] = args.poison_ratio
        payload["attack"] = {"name": "bgc", "overrides": attack_overrides}
        payload["trigger"] = {"overrides": {"trigger_size": args.trigger_size}}
    return ExperimentSpec.from_dict(payload)


def _load_payload(path: str) -> Dict[str, Any]:
    if path == "-":
        return json.load(sys.stdin)
    return json.loads(Path(path).read_text())


# ------------------------------------------------------------------ #
# Subcommands
# ------------------------------------------------------------------ #
def run_datasets_command() -> int:
    rows = []
    for row in statistics_table(seed=0):
        rows.append(
            {
                "dataset": row["name"],
                "nodes": int(row["nodes"]),
                # The published size of the real graph this stand-in emulates
                # ("-" for the graphs generated at full size); `nodes` is
                # always the size actually generated.
                "reference": (
                    int(row["reference_nodes"]) if "reference_nodes" in row else "-"
                ),
                "edges": int(row["edges"]),
                "classes": int(row["classes"]),
                "features": int(row["features"]),
                "train/val/test": f"{int(row['train'])}/{int(row['val'])}/{int(row['test'])}",
                "homophily": round(float(row["homophily"]), 3),
            }
        )
    print(format_table(_align_rows(rows)))
    return 0


def _record_row(record: RunRecord) -> Dict[str, Any]:
    """Table-II-style row for one RunRecord (failed cells show their error)."""
    spec = record.spec
    row: Dict[str, Any] = {
        "dataset": spec.dataset.name,
        "method": spec.condenser.name,
        "ratio": spec.condenser.overrides.get("ratio", ""),
    }
    if not record.ok:
        error = record.error or {}
        row["status"] = f"failed: {error.get('type', 'Exception')}"
        return row
    if spec.attack.is_set:
        row.update(
            {
                "C-CTA %": format_percent(record.clean_cta),
                "CTA %": format_percent(record.attack_cta),
                "C-ASR %": format_percent(record.clean_asr),
                "ASR %": format_percent(record.attack_asr),
                "poisoned nodes": record.poisoned_nodes,
            }
        )
    else:
        row.update(
            {
                "condensed nodes": record.condensed_nodes,
                "C-CTA %": format_percent(record.clean_cta),
            }
        )
    if spec.defense.is_set:
        row["defense"] = spec.defense.name
        row["D-CTA %"] = format_percent(record.defense_cta)
        if spec.attack.is_set:
            row["D-ASR %"] = format_percent(record.defense_asr)
    return row


def run_run_command(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_dict(_load_payload(args.spec))
    record = run_experiment(spec)
    if args.json:
        print(json.dumps(record.to_dict()))
    else:
        print(format_table([_record_row(record)]))
    return 0


def execution_from_args(args: argparse.Namespace, base: ExecutionSpec) -> ExecutionSpec:
    """Overlay the sweep CLI flags onto the spec's own execution block.

    ``--workers N`` with N > 1 implies the ``process`` spelling of the pool
    backend (the spec stays serial only when ``--backend serial`` is passed
    explicitly); every other flag overrides its field alone.
    """
    execution = base
    if args.workers is not None:
        backend = args.backend or (
            "process" if args.workers > 1 else execution.backend
        )
        execution = replace(execution, workers=args.workers, backend=backend)
    elif args.backend is not None:
        execution = replace(execution, backend=args.backend)
    if args.cell_timeout is not None:
        execution = replace(execution, timeout=args.cell_timeout)
    if args.on_error is not None:
        execution = replace(execution, on_error=args.on_error)
    return execution


class _OrderedJsonlSink:
    """Stream RunRecords to a JSONL file in canonical grid order.

    The pool backend completes cells out of order; this reorder buffer
    flushes a record only once every lower grid index has been written, so
    serial and parallel runs of the same sweep produce byte-comparable files
    (modulo the wall-clock ``timings``).
    """

    def __init__(self, handle: TextIO) -> None:
        self._handle = handle
        self._buffered: Dict[int, str] = {}
        self._next_index = 0

    def __call__(self, record: RunRecord) -> None:
        index = record.cell_index if record.cell_index is not None else self._next_index
        self._buffered[index] = json.dumps(record.to_dict())
        while self._next_index in self._buffered:
            self._handle.write(self._buffered.pop(self._next_index) + "\n")
            self._handle.flush()
            self._next_index += 1

    def flush_remaining(self) -> None:
        """Write any still-buffered records, ascending by grid index.

        Called when the sweep aborts (``on_error="raise"``) before a
        lower-indexed cell completed: records that *did* complete must reach
        the file — with index gaps — rather than be dropped with the buffer.
        """
        for index in sorted(self._buffered):
            self._handle.write(self._buffered.pop(index) + "\n")
        self._handle.flush()


def run_sweep_command(args: argparse.Namespace) -> int:
    sweep = SweepSpec.from_dict(_load_payload(args.spec))
    execution = execution_from_args(args, sweep.execution)
    sink = open(args.out, "w") if args.out else None
    on_record = _OrderedJsonlSink(sink) if sink is not None else None
    try:
        records = run_sweep(sweep, on_record=on_record, execution=execution)
    finally:
        if sink is not None:
            on_record.flush_remaining()
            sink.close()
    print(format_table(_align_rows([_record_row(record) for record in records])))
    print(
        sweep_summary_line(
            len(records),
            len(records.failed),
            execution.backend,
            execution.workers,
            records.cache_stats,
        )
    )
    return 1 if records.failed else 0


def _align_rows(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Give every row the union of all columns (first-appearance order).

    Grids mixing clean and attacked cells produce rows with different keys;
    ``format_table`` renders the first row's columns, so without alignment
    the attack metrics of later cells would silently vanish.
    """
    columns: Dict[str, None] = {}
    for row in rows:
        for key in row:
            columns.setdefault(key, None)
    return [{key: row.get(key, "") for key in columns} for row in rows]


def _split_axis_flag(raw: str | None) -> List[Any] | None:
    """Parse a comma-separated axis flag; ``"none"`` means the undefended cell."""
    if raw is None:
        return None
    values: List[Any] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        values.append(None if token.lower() == "none" else token)
    if not values:
        raise ConfigurationError(f"axis flag {raw!r} names no components")
    return values


def transfer_spec_from_args(args: argparse.Namespace) -> TransferSweepSpec:
    """Build the TransferSweepSpec a ``repro transfer`` invocation describes."""
    if args.spec is not None:
        spec = TransferSweepSpec.from_dict(_load_payload(args.spec))
    else:
        base = ExperimentSpec.from_dict(
            {
                "dataset": args.dataset,
                "condenser": {"name": args.condenser, "overrides": {"epochs": args.epochs}},
                "attack": args.attack,
                "evaluation": {"overrides": {"epochs": args.eval_epochs}},
            }
        )
        spec = TransferSweepSpec(base=base, seed=args.seed)
    models = _split_axis_flag(args.models)
    defenses = _split_axis_flag(args.defenses)
    if models is not None:
        spec = replace(spec, models=models)
    if defenses is not None:
        spec = replace(spec, defenses=defenses)
    if args.seeds is not None:
        try:
            seeds = [int(token) for token in args.seeds.split(",") if token.strip()]
        except ValueError:
            raise ConfigurationError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}"
            ) from None
        spec = replace(spec, seeds=seeds)
    return spec


def run_transfer_command(args: argparse.Namespace) -> int:
    """Run the model × defense transferability matrix and print/emit it."""
    transfer = transfer_spec_from_args(args)
    sweep = transfer.to_sweep()
    execution = execution_from_args(args, sweep.execution)
    sink = open(args.out, "w") if args.out else None
    on_record = _OrderedJsonlSink(sink) if sink is not None else None
    try:
        records = run_sweep(sweep, on_record=on_record, execution=execution)
    finally:
        if sink is not None:
            on_record.flush_remaining()
            sink.close()
    matrix = transfer_matrix(records)
    if args.matrix_out:
        Path(args.matrix_out).write_text(json.dumps(matrix, indent=2) + "\n")
    if args.json:
        print(json.dumps(matrix))
    else:
        print(format_transfer_matrix(matrix))
        print(
            sweep_summary_line(
                len(records),
                len(records.failed),
                execution.backend,
                execution.workers,
                records.cache_stats,
            )
        )
    return 1 if records.failed else 0


def run_condense_command(args: argparse.Namespace) -> int:
    spec = spec_from_legacy_args(args, with_attack=False)
    record = run_experiment(spec)
    print(format_table([_record_row(record)]))
    return 0


def run_attack_command(args: argparse.Namespace) -> int:
    spec = spec_from_legacy_args(args, with_attack=True)
    record = run_experiment(spec)
    print(format_table([_record_row(record)]))
    return 0


def run_serve_command(args: argparse.Namespace) -> int:
    """Start the condensation service and serve the unix-socket protocol.

    Blocks until a client sends ``{"op": "shutdown"}`` or the process
    receives SIGINT; either way the worker pool and the result store are
    shut down cleanly before returning.
    """
    from repro.service.server import ServiceServer

    service = CondensationService(
        args.workers,
        store=ResultStore(args.store),
        max_pending=args.max_pending,
        recycle_after=args.recycle_after,
        timeout=args.cell_timeout,
    )
    service.start()
    server = ServiceServer(args.socket, service)
    store_root = service.store.root
    print(
        f"repro service: {args.workers} workers, "
        f"store={'in-memory' if store_root is None else store_root}, "
        f"listening on {args.socket}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return 0


def run_submit_command(args: argparse.Namespace) -> int:
    """Submit a sweep to a running service; stream, reorder, and report.

    Records stream back in completion order and pass through the same
    :class:`_OrderedJsonlSink` reorder buffer as the in-process ``sweep``
    command, so ``--out`` files are byte-comparable with serial runs of the
    same spec (modulo ``timings``).  Exit code 1 when any cell failed.
    """
    from repro.service.server import request, submit_and_stream

    payload = _load_payload(args.spec)
    if args.no_wait:
        response = request(
            args.socket, {"op": "submit", "sweep": payload, "wait": False, "block": True}
        )
        job = response["job"]
        if args.json:
            print(json.dumps(job))
        else:
            print(f"queued {job['job_id']} ({job['name']})")
        return 0
    sink = open(args.out, "w") if args.out else None
    on_record = _OrderedJsonlSink(sink) if sink is not None else None
    records: List[RunRecord] = []
    summary: Dict[str, Any] | None = None
    try:
        for event in submit_and_stream(args.socket, payload):
            if event.get("event") == "record":
                record = RunRecord.from_dict(event["record"])
                records.append(record)
                if on_record is not None:
                    on_record(record)
            elif event.get("event") == "done":
                summary = event["job"]
    finally:
        if sink is not None:
            on_record.flush_remaining()
            sink.close()
    records.sort(key=lambda record: record.cell_index)
    if args.json:
        print(json.dumps(summary))
    else:
        print(format_table(_align_rows([_record_row(record) for record in records])))
        if summary is not None:
            print(
                f"{summary['completed']} cells | {summary['failed']} failed | "
                f"{summary['store_hits']} served from store | "
                f"job {summary['job_id']} {summary['status']}"
            )
    return 1 if summary is None or summary["failed"] else 0


def run_jobs_command(args: argparse.Namespace) -> int:
    """List every job the running service has seen."""
    from repro.service.server import request

    jobs = request(args.socket, {"op": "jobs"})["jobs"]
    if args.json:
        print(json.dumps(jobs))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    rows = [
        {key: ("" if value is None else value) for key, value in job.items()}
        for job in jobs
    ]
    print(format_table(_align_rows(rows)))
    return 0


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        enable_console_logging()
    # Resolve every REPRO_* knob up front: a malformed variable is one
    # actionable usage error here, not a traceback deep inside a run.
    for knob in KNOBS.values():
        try:
            knob.get()
        except ConfigurationError as error:
            print(f"error: {error}\nhint: {knob.hint}", file=sys.stderr)
            return 2
    if args.command == "datasets":
        return run_datasets_command()
    if args.command == "run":
        return run_run_command(args)
    if args.command == "sweep":
        return run_sweep_command(args)
    if args.command == "transfer":
        return run_transfer_command(args)
    if args.command == "serve":
        return run_serve_command(args)
    if args.command in ("submit", "jobs"):
        runner = run_submit_command if args.command == "submit" else run_jobs_command
        try:
            return runner(args)
        except (ConnectionError, RuntimeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "condense":
        return run_condense_command(args)
    if args.command == "attack":
        return run_attack_command(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
