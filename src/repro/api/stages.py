"""Cell stages and the bounded stage memo.

:func:`~repro.api.runner.run_experiment` runs a cell as six named stages:

* ``select`` — BGC's poisoned-node selection (the attack stream's first
  draw), keyed by the dataset, the seed and the attack fields selection
  reads;
* ``attack_leg`` — the attacked condensation, keyed by the dataset, the
  seed, the condenser, the attack and the trigger;
* ``clean_leg`` — the clean condensation, keyed by the dataset, the seed
  and the condenser;
* ``fit`` — the victim or clean model trained on a leg, keyed by that leg's
  key plus the model and evaluation components;
* ``defend`` — the defended predictor, keyed by the fit it defends plus the
  defense component;
* ``evaluate`` — CTA and ASR of every model, building the triggered test
  graph once per cell.

Each stage draws from its own ``spawn_rngs(spec.seed, 5)`` stream, so its
output is a function of its key alone.  A :class:`StageMemo` can therefore
serve a stage an earlier cell of the same sweep already computed without
changing a record byte.  ``evaluate`` is never memoised: its triggered graph
is large (a dense copy of the features plus the triggers) and is released as
soon as the cell's last ASR is taken.

The memo is bounded (:data:`MEMO_MAX_ENTRIES` entries and
:data:`MEMO_MAX_BYTES` bytes of arrays, least recently used first out) and
scoped: :func:`~repro.api.runner.run_sweep` builds one per call, and a pool
worker holds one per sweep or service job.  Every array a memoised value
reaches is made read-only, so a cell that tried to mutate a shared output
raises instead of corrupting its neighbours.
"""

from __future__ import annotations

import json
import types
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Mapping

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor
from repro.graph.cache import PropagationCache
from repro.graph.data import GraphData

#: Stages whose outputs the memo serves (``evaluate`` runs in every cell).
MEMO_STAGES = ("select", "attack_leg", "clean_leg", "fit", "defend")
#: Summable memo counters, one hit and one miss count per memoised stage.
MEMO_COUNTER_KEYS = tuple(
    f"{stage}_{kind}" for stage in MEMO_STAGES for kind in ("hits", "misses")
)
#: Most entries one memo holds (0 disables memoisation).
MEMO_MAX_ENTRIES = 64
#: Most bytes of arrays one memo holds.
MEMO_MAX_BYTES = 256 * 2**20


def component_key(component) -> str:
    """Canonical JSON of one spec component: its name and overrides."""
    return json.dumps(component.to_dict(), sort_keys=True, separators=(",", ":"))


#: What a memoised value may reference but never owns: freezing stops here.
_NOT_OWNED = (
    GraphData,
    PropagationCache,
    sp.spmatrix,
    sp.sparray,
    type,
    types.ModuleType,
    types.FunctionType,
)


def freeze(value: Any) -> int:
    """Make every array reachable from ``value`` read-only, in place.

    Walks containers, tensors and object attributes, but never into a
    shared :class:`~repro.graph.data.GraphData`, a sparse matrix, the
    propagation cache, a class, a module or a function: those belong to
    the sweep or the program, not to the memo.  Returns the bytes of the
    arrays it froze (already read-only arrays count zero).
    """
    frozen = 0
    seen = set()
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            if item.flags.writeable:
                item.flags.writeable = False
                frozen += item.nbytes
            continue
        if item is None or isinstance(item, (str, bytes, int, float, complex)):
            continue
        if id(item) in seen or isinstance(item, _NOT_OWNED):
            continue
        seen.add(id(item))
        if isinstance(item, Tensor):
            stack.extend((item.data, item.grad))
        elif isinstance(item, Mapping):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return frozen


class StageMemo:
    """A bounded LRU of stage outputs keyed by ``(stage, key)``.

    Built with the module's current :data:`MEMO_MAX_ENTRIES` and
    :data:`MEMO_MAX_BYTES`; a value larger than the byte cap is computed
    and returned but not kept.
    """

    def __init__(self) -> None:
        self.max_entries = MEMO_MAX_ENTRIES
        self.max_bytes = MEMO_MAX_BYTES
        self._entries: "OrderedDict[tuple, tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self.counters: Dict[str, int] = {key: 0 for key in MEMO_COUNTER_KEYS}

    def get_or_compute(self, name: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Serve stage ``name`` at ``key`` if held, else compute, freeze and keep it."""
        entry_key = (name, key)
        entry = self._entries.get(entry_key)
        if entry is not None:
            self._entries.move_to_end(entry_key)
            self.counters[f"{name}_hits"] += 1
            return entry[0]
        self.counters[f"{name}_misses"] += 1
        value = compute()
        if self.max_entries < 1:
            return value
        size = freeze(value)
        if size > self.max_bytes:
            return value
        self._entries[entry_key] = (value, size)
        self._bytes += size
        while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._bytes -= evicted
        return value


def stage(memo: StageMemo | None, name: str, key: Hashable, compute: Callable[[], Any]) -> Any:
    """Run one stage through ``memo``, or compute it directly without one."""
    return compute() if memo is None else memo.get_or_compute(name, key, compute)
