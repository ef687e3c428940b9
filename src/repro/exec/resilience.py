"""Fault-tolerance policy layer for the real execution backends.

The paper's intra-node operators assume every Cilk task completes; the
real backends inherited that assumption, so one poisoned document, hung
worker, or killed process used to abort the entire pipeline. This module
holds the *policy* objects the backends' one task lifecycle asks (the
lifecycle is :class:`repro.exec.inline.ExecutionBackend`'s gather loop;
its per-backend hooks live in :mod:`repro.exec.inline` and
:mod:`repro.exec.process`):

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  **deterministic** jitter: the jitter for ``(task, attempt)`` comes from
  a seeded hash, never from global randomness, so a retried run sleeps
  the same schedule every time. :meth:`RetryPolicy.retry_delay` is the
  one retry decision every retry loop asks.
* :class:`ResilienceConfig` — one bundle per backend: the retry policy,
  per-task and per-phase deadlines, the poison-handling mode
  (``"raise"``, the default, fails on the first error; ``"quarantine"``
  isolates poisoned items and completes the rest), and the pool-restart
  circuit breaker.
* :class:`QuarantineReport` / :class:`QuarantinedItem` — the record of
  every item that exhausted its retries in a quarantine run, surfaced on
  :class:`~repro.core.pipeline.RealRunResult`.
* :class:`DowngradeEvent` — one backend downgrade (process → thread →
  inline) performed by ``run_pipeline(degrade=True)`` after a circuit
  breaker tripped.
* :func:`run_attempts` / :func:`bisect_chunk` — the small shared
  mechanisms: a retry loop for work outside the task loop (the parallel
  reader's file reads) and the recursive bisection that narrows a
  poisoned item down to the offending document(s).

Nothing here touches task *data*: retries re-run the same pure kernel on
the same item, so whenever recovery succeeds the output is bit-identical
to a fault-free run.
"""

from __future__ import annotations

import time
import zlib
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, TaskTimeoutError
from repro.sparse.blocks import TermBlock

__all__ = [
    "RetryPolicy",
    "ResilienceConfig",
    "QuarantinedItem",
    "QuarantineReport",
    "DowngradeEvent",
    "POISON_MODES",
    "run_attempts",
    "bisect_chunk",
]

#: Accepted ``on_poison`` modes: fail fast (the default — preserves the
#: bit-identical-output guarantee trivially) or isolate-and-continue.
POISON_MODES = ("raise", "quarantine")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry budget with deterministic, seeded backoff jitter.

    ``max_attempts`` counts executions, not re-executions: the default of
    1 means "no retries". Backoff before attempt ``n+1`` is
    ``backoff_base_s * backoff_factor**(n-1)`` (capped at
    ``max_backoff_s``), scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]`` drawn from a CRC of
    ``(jitter_seed, task key, attempt)`` — the same task retried in the
    same run sleeps the same schedule, every run, on every host.
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    jitter: float = 0.1
    jitter_seed: int = 0
    #: Exception classes worth re-running the task for. ``BaseException``
    #: escapees (KeyboardInterrupt, SystemExit) are never retried.
    retryable_exceptions: tuple = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.backoff_base_s < 0 or self.max_backoff_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """No retries — every failure is final (the default)."""
        return cls(max_attempts=1)

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 1

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, self.retryable_exceptions)

    def gives_up_after(self, attempt: int) -> bool:
        """True when ``attempt`` (1-based) was the last allowed execution."""
        return attempt >= self.max_attempts

    def retry_delay(
        self, exc: BaseException, task_key: str, attempt: int
    ) -> float | None:
        """The retry decision: seconds to back off before running
        ``task_key`` again after its ``attempt`` (1-based) failed with
        ``exc``, or ``None`` when that failure is final — not retryable,
        or the budget is spent. A final error records how many runs it
        took as ``exc.attempts``."""
        if self.is_retryable(exc) and not self.gives_up_after(attempt):
            return self.backoff_s(task_key, attempt)
        exc.attempts = attempt  # type: ignore[attr-defined]
        return None

    def backoff_s(self, task_key: str, attempt: int) -> float:
        """Deterministic sleep before re-running ``task_key``.

        ``attempt`` is the 1-based attempt that just failed. The jitter
        is a pure function of ``(jitter_seed, task_key, attempt)``, so
        retried runs are reproducible.
        """
        if self.backoff_base_s <= 0.0:
            return 0.0
        base = min(
            self.max_backoff_s,
            self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.jitter == 0.0:
            return base
        token = f"{self.jitter_seed}|{task_key}|{attempt}".encode("utf-8")
        unit = zlib.crc32(token) / 0xFFFFFFFF  # deterministic in [0, 1]
        return base * (1.0 - self.jitter + 2.0 * self.jitter * unit)


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance settings one backend (and the pipeline) runs under."""

    retry: RetryPolicy = field(default_factory=RetryPolicy.none)
    #: Max seconds the gather loop waits on one task before declaring the
    #: worker hung (process backend: kill + respawn + replay; thread
    #: backend: fail the map — threads cannot be killed). ``None`` waits
    #: forever (the default).
    task_timeout_s: float | None = None
    #: Max seconds a whole phase may run (measured from ``begin_phase``).
    phase_timeout_s: float | None = None
    #: ``"raise"`` (default) or ``"quarantine"`` — what happens to a task
    #: that exhausts its retries.
    on_poison: str = "raise"
    #: Worker-pool deaths tolerated *per phase* (under the default policy
    #: too) before the circuit breaker gives up with the diagnostic
    #: ``BrokenProcessPool``.
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        if self.on_poison not in POISON_MODES:
            raise ConfigurationError(
                f"on_poison must be one of {POISON_MODES}, got {self.on_poison!r}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigurationError("task_timeout_s must be positive")
        if self.phase_timeout_s is not None and self.phase_timeout_s <= 0:
            raise ConfigurationError("phase_timeout_s must be positive")
        if self.max_pool_restarts < 0:
            raise ConfigurationError("max_pool_restarts must be >= 0")

    @property
    def quarantining(self) -> bool:
        return self.on_poison == "quarantine"


# -- quarantine accounting ---------------------------------------------------------


@dataclass(frozen=True)
class QuarantinedItem:
    """One map item (or isolated slice of one) that exhausted its retries.

    ``item_index`` is the item's position in the ``map``/``imap``
    input; for sequence items that were bisected internally,
    ``sub_start``/``n_units`` locate the poisoned slice inside the item
    (units are the item's own elements — documents, for the chunked text
    kernels). Operators translate these coordinates into document ids.
    """

    phase: str
    task_key: str
    item_index: int
    sub_start: int
    n_units: int
    attempts: int
    error: str
    error_type: str

    def as_dict(self) -> dict:
        return {
            "phase": self.phase,
            "task_key": self.task_key,
            "item_index": self.item_index,
            "sub_start": self.sub_start,
            "n_units": self.n_units,
            "attempts": self.attempts,
            "error": self.error,
            "error_type": self.error_type,
        }


class QuarantineReport:
    """Every quarantined item of one run, in isolation order.

    Lives on the run's bill (``backend.bill.quarantine``) so all phases
    of a run accumulate into one report, which ``run_pipeline`` attaches
    to the result. ``doc_ids`` holds the document ids
    :meth:`~repro.exec.inline.ExecutionBackend.map_documents` resolved
    from the raw item coordinates.
    """

    def __init__(self) -> None:
        self.items: list[QuarantinedItem] = []
        self.doc_ids: list[int] = []

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def add(self, item: QuarantinedItem) -> None:
        self.items.append(item)

    def phase_items(self, phase: str) -> list[QuarantinedItem]:
        return [item for item in self.items if item.phase == phase]

    def as_dict(self) -> dict:
        return {
            "n_items": len(self.items),
            "doc_ids": list(self.doc_ids),
            "items": [item.as_dict() for item in self.items],
        }


@dataclass(frozen=True)
class DowngradeEvent:
    """One graceful backend downgrade performed by the pipeline."""

    phase: str
    from_backend: str
    to_backend: str
    reason: str

    def as_dict(self) -> dict:
        return {
            "phase": self.phase,
            "from_backend": self.from_backend,
            "to_backend": self.to_backend,
            "reason": self.reason,
        }


# -- shared mechanisms -------------------------------------------------------------


def run_attempts(
    policy: RetryPolicy,
    task_key: str,
    thunk,
    *,
    on_retry=None,
    sleep=time.sleep,
):
    """Run ``thunk(attempt)`` under ``policy``; returns its value.

    The retry loop for work outside the backends' task loop (the
    parallel reader's file reads): a failure the policy retries sleeps
    its deterministic backoff and re-runs; a final one propagates with
    ``exc.attempts`` set. ``on_retry(attempt, exc, delay_s)`` observes
    each retry.
    """
    attempt = 1
    while True:
        try:
            return thunk(attempt)
        except Exception as exc:
            delay = policy.retry_delay(exc, task_key, attempt)
            if delay is None:
                raise
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            if delay > 0:
                sleep(delay)
            attempt += 1


#: Map-item types that are runs of documents: ``len()`` counts them and
#: a slice is again a valid item, so bisection may cut inside one.
_DOCUMENT_RUNS = (list, tuple, TermBlock)

#: Errors that end a map whatever the poison mode: a deadline overrun,
#: or a worker pool that died more often than its breaker allows. Only
#: a task's own error is poison.
_NOT_POISON = (TaskTimeoutError, BrokenExecutor)


def _splittable(item) -> bool:
    return isinstance(item, _DOCUMENT_RUNS) and len(item) > 1


def bisect_chunk(
    item,
    run_item,
    quarantine,
    *,
    item_index: int,
    sub_start: int = 0,
    bisect_items: bool = False,
    failed_exc: Exception | None = None,
) -> list:
    """Recursively isolate the poisoned document(s) of a failed task.

    ``item`` is what the task carried. ``run_item(sub)`` runs part of it
    (under the caller's own retry policy) and returns its result;
    raising means the part is still poisoned. With ``bisect_items``, an
    item that is itself a run of documents (the chunk kernels' text
    lists and term blocks) splits in half until a single poisoned
    document stands alone; otherwise the item is the leaf. A failing
    leaf is handed to ``quarantine(item_index, sub_start, n_units, exc)``
    and contributes no result; the results of everything else are
    returned in input order. An error that is not poison propagates.

    Callers that already watched ``item`` fail pass the exception as
    ``failed_exc`` to skip the redundant first execution.
    """
    if failed_exc is None:
        try:
            return [run_item(item)]
        except Exception as caught:
            failed_exc = caught
    if isinstance(failed_exc, _NOT_POISON):
        raise failed_exc
    if bisect_items and _splittable(item):
        mid = len(item) // 2
        return bisect_chunk(
            item[:mid], run_item, quarantine,
            item_index=item_index, sub_start=sub_start,
            bisect_items=bisect_items,
        ) + bisect_chunk(
            item[mid:], run_item, quarantine,
            item_index=item_index, sub_start=sub_start + mid,
            bisect_items=bisect_items,
        )
    if bisect_items and isinstance(item, _DOCUMENT_RUNS):
        n_units = len(item)
    else:
        n_units = 1
    quarantine(item_index, sub_start, n_units, failed_exc)
    return []
