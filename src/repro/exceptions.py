"""Exception hierarchy for the BGC reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class when driving experiments programmatically.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphValidationError(ReproError):
    """Raised when a graph container fails structural validation."""


class ConfigurationError(ReproError):
    """Raised when a configuration object holds inconsistent values."""


class CondensationError(ReproError):
    """Raised when a condensation run cannot proceed."""


class AttackError(ReproError):
    """Raised when an attack is configured or executed incorrectly."""


class DefenseError(ReproError):
    """Raised when a defense is configured or executed incorrectly."""


class AutogradError(ReproError):
    """Raised by the autograd engine for invalid tensor operations."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated or validated."""


class SweepExecutionError(ReproError):
    """Raised when a sweep cell fails under ``on_error="raise"``.

    The pool execution backend cannot re-raise the worker's original
    exception object (only its formatted traceback crosses the process
    boundary), so failures surface as this type instead.  ``record`` holds
    the failed :class:`~repro.api.runner.RunRecord`, whose ``error`` mapping
    carries the original exception type name, message and traceback text.
    """

    def __init__(self, message: str, record=None) -> None:
        super().__init__(message)
        self.record = record


class JobQueueFull(ReproError):
    """Raised when the service's bounded job queue rejects a submission.

    The :class:`~repro.service.jobs.CondensationService` applies
    backpressure instead of buffering unboundedly: a non-blocking
    ``submit`` on a queue that already holds ``max_pending`` jobs raises
    this error so the caller can retry, block, or shed load.
    """


class JobCancelled(ReproError):
    """Raised when waiting on a job that was cancelled before completion."""
