"""Pluggable numerical kernels: one registry, one active backend.

Every hot primitive in :mod:`repro.autograd` and :mod:`repro.graph`
dispatches through :func:`active_backend`, an instance of a registered
:class:`~repro.kernels.base.KernelBackend`.  ``numpy`` is the pinned
reference implementation (bit-identical to the pre-extraction inline
code); ``threaded`` chunks spmm and batched matmul across a thread pool.

Selection is the :class:`~repro.utils.knobs.Knob` ``KERNEL_BACKEND``:
:func:`set_kernel_backend` (what ``ExecutionSpec.kernel_backend`` installs
for a sweep), then the ``REPRO_KERNEL_BACKEND`` environment variable, then
``numpy``.  Unknown names raise :class:`~repro.exceptions.ConfigurationError`
listing the registered backends; the CLI surfaces that as an exit-2 usage
error.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.exceptions import ConfigurationError
from repro.kernels.base import KernelBackend
from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.threaded import ThreadedBackend
from repro.utils.knobs import Knob

__all__ = [
    "DEFAULT_KERNEL_BACKEND",
    "KERNEL_BACKEND",
    "KERNEL_BACKEND_ENV",
    "KernelBackend",
    "NumpyBackend",
    "ThreadedBackend",
    "active_backend",
    "available_kernel_backends",
    "kernel_backend_name",
    "register_kernel_backend",
    "set_kernel_backend",
]

#: Name resolved when neither the override nor the environment selects one.
DEFAULT_KERNEL_BACKEND = "numpy"

#: Environment variable naming the backend to dispatch through.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

_REGISTRY: Dict[str, Type[KernelBackend]] = {}

#: One lazily-built instance per backend name (backends are stateless or
#: internally synchronised, so a singleton per process is safe to share).
_INSTANCES: Dict[str, KernelBackend] = {}


def register_kernel_backend(cls: Type[KernelBackend]) -> Type[KernelBackend]:
    """Register a backend class under ``cls.name`` (decorator-friendly)."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ConfigurationError(
            f"kernel backend {cls!r} must define a non-abstract 'name'"
        )
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    return cls


def available_kernel_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def _registered(name: object) -> str:
    if name not in _REGISTRY:
        raise ValueError(
            f"names an unknown kernel backend {name!r}; "
            f"registered backends: {', '.join(available_kernel_backends())}"
        )
    return name


KERNEL_BACKEND = Knob(
    KERNEL_BACKEND_ENV,
    DEFAULT_KERNEL_BACKEND,
    parse=str.strip,
    check=_registered,
    hint="REPRO_KERNEL_BACKEND selects the numerical kernel backend every "
    "primitive dispatches through — set it to a registered backend, or unset "
    "it to use the numpy reference.",
)

#: The name of the backend primitives dispatch through right now.
kernel_backend_name = KERNEL_BACKEND.get
#: Install (or with ``None`` clear) the backend override; returns the previous.
set_kernel_backend = KERNEL_BACKEND.set


def active_backend() -> KernelBackend:
    """The live backend instance for the currently-resolved name."""
    name = KERNEL_BACKEND.get()
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _REGISTRY[name]()
        _INSTANCES[name] = instance
    return instance


register_kernel_backend(NumpyBackend)
register_kernel_backend(ThreadedBackend)
