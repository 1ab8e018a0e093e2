"""Plain-text table formatting for benchmark and sweep output.

Benchmarks print the same rows/series as the paper's tables and figures; this
module renders lists of dictionaries as aligned text tables without any
third-party dependency, plus the one-line summaries the CLI prints after a
sweep (cell/failure counts and merged cache counters).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: Defense-axis label of the undefended column in a transfer matrix.
NO_DEFENSE_LABEL = "none"


def format_percent(value: float, decimals: int = 2) -> str:
    """Format a fraction in [0, 1] as a percentage string."""
    if value != value:  # NaN
        return "--"
    return f"{100.0 * value:.{decimals}f}"


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Iterable[str] | None = None,
    float_decimals: int = 3,
) -> str:
    """Render rows (dicts) as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    columns = list(columns)

    def render(value: object) -> str:
        if isinstance(value, float):
            if value != value:
                return "--"
            return f"{value:.{float_decimals}f}"
        return str(value)

    rendered: List[List[str]] = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered)) for i, col in enumerate(columns)
    ]
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered
    )
    return f"{header}\n{separator}\n{body}"


def format_cache_stats(stats: Mapping[str, int]) -> str:
    """Render merged :class:`~repro.graph.cache.PropagationCache` counters.

    One compact ``key=value`` line (insertion order preserved); an empty
    mapping renders as ``(no cache stats)``.
    """
    if not stats:
        return "(no cache stats)"
    return " ".join(f"{key}={value}" for key, value in stats.items())


def transfer_cell_metrics(record) -> Tuple[float, float]:
    """The ``(cta, asr)`` pair a transfer-matrix cell reports.

    Defended cells report the defended numbers; undefended cells report the
    attacked victim's numbers; and when the spec carries no attack at all the
    clean baseline stands in (ASR stays NaN there).
    """
    spec = record.spec
    if spec.defense.is_set:
        return record.defense_cta, record.defense_asr
    if spec.attack.is_set:
        return record.attack_cta, record.attack_asr
    return record.clean_cta, record.clean_asr


def _defense_label(spec) -> str:
    return spec.defense.name if spec.defense.is_set else NO_DEFENSE_LABEL


def transfer_matrix(records: Sequence[Any]) -> Dict[str, Any]:
    """Aggregate transfer-sweep records into a model × defense CTA/ASR grid.

    Returns a JSON-compatible mapping: ``models`` and ``defenses`` list the
    axis labels in first-appearance (grid) order, and ``cells`` holds one
    entry per record with its seed, metrics and status.  Failed cells appear with
    null metrics so the matrix always covers the full grid.
    """
    models: Dict[str, None] = {}
    defenses: Dict[str, None] = {}
    cells: List[Dict[str, Any]] = []
    context: Dict[str, Any] = {}
    for record in records:
        spec = record.spec
        model = spec.model.name or ""
        defense = _defense_label(spec)
        models.setdefault(model, None)
        defenses.setdefault(defense, None)
        if not context:
            context = {
                "dataset": spec.dataset.name,
                "condenser": spec.condenser.name,
                "attack": spec.attack.name,
            }
        cta, asr = transfer_cell_metrics(record)
        cells.append(
            {
                "seed": spec.seed,
                "model": model,
                "defense": defense,
                "cell_index": record.cell_index,
                "cta": None if cta != cta else cta,
                "asr": None if asr != asr else asr,
                "status": record.status,
            }
        )
    return {
        **context,
        "models": list(models),
        "defenses": list(defenses),
        "cells": cells,
    }


def format_transfer_matrix(matrix: Mapping[str, Any]) -> str:
    """Render a :func:`transfer_matrix` mapping as a markdown grid.

    One row per model, one column per defense; each cell shows
    ``CTA% / ASR%`` (``--`` for NaN metrics, ``failed`` for failed cells).
    A matrix over several seeds renders one grid per seed, each under a
    ``seed N`` line.
    """
    seeds = list(dict.fromkeys(cell.get("seed") for cell in matrix["cells"]))
    if len(seeds) > 1:
        return "\n\n".join(
            f"seed {seed}\n"
            + format_transfer_matrix(
                {**matrix, "cells": [c for c in matrix["cells"] if c.get("seed") == seed]}
            )
            for seed in seeds
        )
    defenses = list(matrix["defenses"])
    lookup: Dict[Tuple[str, str], Mapping[str, Any]] = {
        (cell["model"], cell["defense"]): cell for cell in matrix["cells"]
    }

    def render(cell: Mapping[str, Any] | None) -> str:
        if cell is None:
            return "--"
        if cell["status"] != "ok":
            return cell["status"]
        cta = float("nan") if cell["cta"] is None else cell["cta"]
        asr = float("nan") if cell["asr"] is None else cell["asr"]
        return f"{format_percent(cta)} / {format_percent(asr)}"

    header = "| model | " + " | ".join(defenses) + " |"
    separator = "|" + " --- |" * (len(defenses) + 1)
    lines = [header, separator]
    for model in matrix["models"]:
        row = [render(lookup.get((model, defense))) for defense in defenses]
        lines.append("| " + " | ".join([model, *row]) + " |")
    return "\n".join(lines)


def sweep_summary_line(
    num_cells: int,
    num_failed: int,
    backend: str,
    workers: int,
    cache_stats: Mapping[str, int] | None = None,
) -> str:
    """The one-line sweep summary the CLI prints under the results table."""
    parts = [
        f"{num_cells} cells",
        f"{num_failed} failed" if num_failed else "all ok",
        f"backend={backend}",
    ]
    if backend != "serial":
        parts.append(f"workers={workers}")
    line = f"sweep: {', '.join(parts)}"
    if cache_stats:
        line += f" | cache: {format_cache_stats(cache_stats)}"
    return line
