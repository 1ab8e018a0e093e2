"""The numerical kernels under every hot primitive.

Every hot primitive in :mod:`repro.autograd` and :mod:`repro.graph`
dispatches through :func:`active_backend`, which returns the one
:class:`~repro.kernels.numpy_backend.NumpyBackend` instance.  The seam keeps
each primitive's pinned expression in one place, and it lets a tracer that
wraps ``NumpyBackend`` methods see every dispatched call.
"""

from __future__ import annotations

from repro.kernels.numpy_backend import NumpyBackend

__all__ = ["NumpyBackend", "active_backend", "kernel_backend_name"]

_BACKEND = NumpyBackend()


def active_backend() -> NumpyBackend:
    """The process-wide kernel backend every primitive dispatches through."""
    return _BACKEND


def kernel_backend_name() -> str:
    """The name of the kernel backend (``"numpy"``), reported with host facts."""
    return _BACKEND.name
