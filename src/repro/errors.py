"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single handler while still
letting programming errors (``TypeError`` and friends) propagate unchanged.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SchedulerError",
    "StorageError",
    "TileError",
    "ArffFormatError",
    "WorkflowError",
    "PlannerError",
    "OperatorError",
    "CacheError",
    "TaskTimeoutError",
    "PhaseTimeoutError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class SchedulerError(ReproError):
    """The simulated scheduler was driven into an invalid state."""


class StorageError(ReproError):
    """A simulated or real storage operation failed (missing file, etc.)."""


class TileError(StorageError):
    """A binary spill tile is malformed, truncated, or fails its checksum."""


class ArffFormatError(ReproError):
    """An ARFF document could not be parsed or generated."""


class WorkflowError(ReproError):
    """A workflow graph is malformed or was executed incorrectly."""


class PlannerError(ReproError):
    """The cost-based planner could not produce a valid plan."""


class OperatorError(ReproError):
    """An analytics operator was misused or received invalid input."""


class CacheError(ReproError):
    """The result cache was misused (corrupt *entries* are never raised —
    they are deleted and treated as misses; this covers caller errors)."""


class TaskTimeoutError(ReproError):
    """A task exceeded its per-task deadline (and its retry budget)."""


class PhaseTimeoutError(TaskTimeoutError):
    """A pipeline phase exceeded its per-phase deadline."""
