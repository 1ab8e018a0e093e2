"""Content-addressed result store: completed cells memoised by spec hash.

Heavy repeated traffic re-evaluates the *same* condenser/attack/defense
cells endlessly — identical sweeps resubmitted, crashed sweeps restarted,
overlapping grids sharing most of their cells.  Because every cell's entire
result is a pure function of its :class:`~repro.api.spec.ExperimentSpec`
(the seed is part of the spec, and same-seed runs are bit-identical across
backends and worker counts), a completed :class:`~repro.api.runner.RunRecord`
can be keyed by :meth:`ExperimentSpec.cache_key()
<repro.api.spec.ExperimentSpec.cache_key>` — a sha256 over the canonical
JSON round-trip form — and served verbatim to any later cell with the same
key.  A memoised record *is* the record a fresh run would produce, down to
the condensed-graph fingerprints; only ``cell_index`` (the requesting grid
position) and wall-clock ``timings`` can differ.

Persistence is one append-only JSONL file, ``store.jsonl``, under a
configurable root (constructor argument, else the ``REPRO_RESULT_STORE``
environment variable, else in-memory only).  Each line is
``{"key": <sha256>, "record": <RunRecord.to_dict()>}``; on open the file is
replayed into an in-memory index (later lines win, so a rewritten cell
supersedes its earlier entry).  Only ``status == "ok"`` records are stored —
a failed cell must be recomputed, not replayed, when its sweep is
resubmitted.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.api.runner import RunRecord
from repro.api.spec import ExperimentSpec
from repro.utils.knobs import Knob
from repro.utils.logging import get_logger

logger = get_logger("service.store")

#: Environment variable naming the default on-disk store root.
RESULT_STORE_ENV = "REPRO_RESULT_STORE"
#: File name of the append-only record log inside the store root.
STORE_FILENAME = "store.jsonl"

STORE_ROOT = Knob(RESULT_STORE_ENV, None, parse=str.strip)


def default_store_root() -> Optional[str]:
    """The store root named by ``REPRO_RESULT_STORE``, or ``None`` (in-memory)."""
    return STORE_ROOT.get() or None


class ResultStore:
    """Keyed, optionally persistent map from spec cache-key to RunRecord.

    ``root=None`` keeps the store in memory only (the default when the
    ``REPRO_RESULT_STORE`` environment variable is unset); a path makes it
    durable: every :meth:`put` appends one line to ``<root>/store.jsonl``
    and a fresh store opened on the same root replays the log, so a crashed
    or restarted service resumes with every previously completed cell
    already answered.  All methods are thread-safe — one store instance is
    shared by every job of a :class:`~repro.service.jobs.CondensationService`.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = default_store_root()
        self._root = Path(root) if root is not None else None
        self._lock = threading.Lock()
        self._index: Dict[str, Dict] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._handle = None
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)
            path = self._root / STORE_FILENAME
            if path.exists():
                self._replay(path)
            # Line-buffered append handle: one put = one durable line.
            self._handle = open(path, "a", encoding="utf-8", buffering=1)

    @property
    def root(self) -> Optional[Path]:
        """The on-disk root, or ``None`` for an in-memory store."""
        return self._root

    def _replay(self, path: Path) -> None:
        """Load the append-only log; later lines supersede earlier ones.

        A torn final line (a crash mid-append) is skipped rather than
        poisoning the whole store.
        """
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    self._index[entry["key"]] = entry["record"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    logger.warning(
                        "result store %s: skipping malformed line %d",
                        path,
                        line_number + 1,
                    )

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, spec_or_key) -> bool:
        with self._lock:
            return self._key_of(spec_or_key) in self._index

    @staticmethod
    def _key_of(spec_or_key) -> str:
        """Accept either an ExperimentSpec or an already-computed key."""
        if isinstance(spec_or_key, ExperimentSpec):
            return spec_or_key.cache_key()
        return str(spec_or_key)

    def get(
        self, spec: ExperimentSpec, *, cell_index: int | None = None
    ) -> Optional[RunRecord]:
        """The stored record for ``spec``, or ``None`` (counted as a miss).

        The returned record is rebuilt from the stored payload with
        ``cell_index`` rewritten to the requesting grid position, so a cell
        computed at index 3 of one sweep can answer index 0 of another; every
        other field — metrics, fingerprints, timings — is served verbatim.
        """
        key = self._key_of(spec)
        with self._lock:
            payload = self._index.get(key)
            if payload is None:
                self.misses += 1
                return None
            self.hits += 1
        record = RunRecord.from_dict(payload)
        if cell_index is not None:
            record.cell_index = cell_index
        return record

    def put(self, record: RunRecord) -> bool:
        """Store a completed record under its spec's cache key.

        Failed records are refused (returns ``False``): memoising a failure
        would make a resubmitted sweep replay the failure instead of
        recomputing the cell.  Re-putting an existing key overwrites it
        (the records are bit-identical by construction, so this only
        refreshes timings).
        """
        if not record.ok:
            return False
        key = record.spec.cache_key()
        payload = record.to_dict()
        with self._lock:
            self._index[key] = payload
            self.puts += 1
            if self._handle is not None:
                self._handle.write(
                    json.dumps({"key": key, "record": payload}) + "\n"
                )
        return True

    def keys(self) -> Iterator[str]:
        """Snapshot of the stored cache keys."""
        with self._lock:
            return iter(list(self._index))

    def stats(self) -> Dict[str, int]:
        """Counters: stored entries plus hit/miss/put totals since open."""
        with self._lock:
            return {
                "entries": len(self._index),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
            }

    def close(self) -> None:
        """Flush and close the append handle (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
