"""Dataset registry and specification objects.

Datasets live in the shared :data:`repro.registry.DATASETS` registry; the
helpers here keep the historical function API (:func:`load_dataset`,
:func:`list_datasets`, :func:`register_dataset`) and the
:class:`DatasetSpec` metadata attached to every entry.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.exceptions import DatasetError, ReproError
from repro.graph.data import GraphData
from repro.registry import DATASETS

LoaderFn = Callable[["DatasetSpec", int], GraphData]

#: Memoised ``load_dataset`` results keyed by (lowercase name, seed).
_DATASET_CACHE: Dict[Tuple[str, int], GraphData] = {}


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a synthetic benchmark dataset.

    Attributes mirror the real dataset they emulate; ``num_nodes`` may be a
    scaled-down value for the large inductive graphs (see ``DESIGN.md``).
    """

    name: str
    num_nodes: int
    num_classes: int
    num_features: int
    inductive: bool
    avg_degree: float
    homophily: float
    train_per_class: int = 20
    num_val: int = 500
    num_test: int = 1000
    train_fraction: float = 0.5
    val_fraction: float = 0.25
    reference_nodes: int = 0
    extras: Dict[str, float] = field(default_factory=dict)


def _dataset_seed(name: str, seed: int) -> int:
    """Mix the dataset name into the seed so datasets differ at equal seeds.

    Uses crc32 (not ``hash``) so the value is stable across interpreter runs.
    """
    return (zlib.crc32(name.lower().encode("utf-8")) + 1_000_003 * int(seed)) % (2**31)


def register_dataset(spec: DatasetSpec, loader: LoaderFn) -> None:
    """Register a dataset loader under ``spec.name`` (case-insensitive).

    The registry factory shares the :func:`load_dataset` memo, so building a
    dataset through :data:`~repro.registry.DATASETS` and through
    :func:`load_dataset` pays generation once per ``(name, seed)`` either
    way — regenerating a six-figure inductive graph per caller is the cost
    this avoids.
    """
    if spec.name.lower() in DATASETS:
        raise DatasetError(f"dataset {spec.name!r} is already registered")

    def build(seed: int = 0, _spec: DatasetSpec = spec, _loader: LoaderFn = loader) -> GraphData:
        key = (_spec.name.lower(), int(seed))
        cached = _DATASET_CACHE.get(key)
        if cached is None:
            cached = _DATASET_CACHE[key] = _loader(_spec, seed)
        return cached

    DATASETS.register(
        spec.name, factory=build, metadata={"spec": spec, "loader": loader}
    )


def list_datasets() -> List[str]:
    """Return the names of all registered datasets."""
    return DATASETS.available()


def get_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` registered under ``name``."""
    try:
        return DATASETS.get(name).metadata["spec"]
    except ReproError as error:
        raise DatasetError(str(error)) from None


def load_dataset(name: str, seed: int = 0) -> GraphData:
    """Generate the synthetic dataset registered under ``name``.

    Results are memoised per ``(name, seed)``: generation is deterministic,
    so repeated loads return the *same* :class:`~repro.graph.data.GraphData`
    object — at the six-figure Flickr/Reddit scale regenerating (and
    re-holding) a graph per caller would dominate both time and memory.
    Callers must treat the returned graph as read-only (they already do:
    sweeps share one loaded graph across cells, and attacks operate on
    views).  :func:`clear_dataset_cache` drops the memo.

    Parameters
    ----------
    name:
        Dataset name, e.g. ``"cora"`` (case-insensitive).
    seed:
        Seed controlling graph topology, features and splits.  The same seed
        always yields exactly the same graph.
    """
    key = (name.lower(), int(seed))
    cached = _DATASET_CACHE.get(key)
    if cached is not None:
        return cached
    try:
        graph = DATASETS.build(name, seed=seed)
    except ReproError as error:
        if name.lower() in DATASETS:
            raise
        raise DatasetError(str(error)) from None
    _DATASET_CACHE[key] = graph
    return graph


def clear_dataset_cache(name: str | None = None) -> None:
    """Drop memoised :func:`load_dataset` results (all, or one dataset's).

    Tests that re-register or monkeypatch dataset loaders (or that need two
    independently generated copies of the same graph) call this to force
    regeneration; normal runs never need it.  Passing ``name`` drops only
    that dataset's entries — useful when evicting everything would force an
    expensive six-figure graph to regenerate in unrelated later tests.
    """
    if name is None:
        _DATASET_CACHE.clear()
        return
    lowered = name.lower()
    for key in [key for key in _DATASET_CACHE if key[0] == lowered]:
        del _DATASET_CACHE[key]
