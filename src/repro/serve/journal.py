"""Durable job journal: the service's single source of truth.

Every lifecycle transition of every job — ``submitted`` → ``admitted``
(or ``shed``) → ``running`` → ``done``/``failed``, plus ``requeued`` for
recovered work — is one JSONL record appended to
``<state dir>/journal.jsonl`` through :class:`repro.io.jsonl_log.JsonlLog`,
the run ledger's durability discipline: concurrent writers never
interleave mid-record, and a torn final line is skipped *loudly* by
:func:`read_journal` without failing replay.

The ``done`` append is the commit point for exactly-once completion: a
restarted daemon re-runs only jobs without a terminal record, and
because pipeline runs are deterministic, a re-run after a crash between
"result written" and "done appended" reproduces the result bit for bit.
:func:`replay` folds the records into per-job current state; the strict
CI stance (every transition legal, exactly one terminal record) lives in
``tools/validate.py journal``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.io.jsonl_log import NUMBER, JsonlLog, LogSchema, StrictClock, WallAnchor

__all__ = [
    "JOURNAL_SCHEMA",
    "JOURNAL_FILE",
    "JOURNAL_LOG",
    "JOB_EVENTS",
    "DAEMON_EVENTS",
    "TERMINAL_EVENTS",
    "LEGAL_TRANSITIONS",
    "JournalCorruptionWarning",
    "JobJournal",
    "JobView",
    "read_journal",
    "replay",
]

#: Version stamped on every record; readers skip newer schemas loudly.
JOURNAL_SCHEMA = 1

#: The append-only journal file inside a serve state directory.
JOURNAL_FILE = "journal.jsonl"

#: Job lifecycle events (``kind: "job"`` records).
JOB_EVENTS = (
    "submitted",   # accepted from the inbox; spec recorded
    "admitted",    # passed admission control into the bounded queue
    "shed",        # rejected by admission control (terminal), with reason
    "running",     # an executor picked the job up (attempt recorded)
    "requeued",    # recovered orphan / pool loss sent back to the queue
    "done",        # completed; digest + timings recorded (terminal)
    "failed",      # raised / timed out / orphan budget spent (terminal)
)

#: Daemon lifecycle events (``kind: "daemon"`` records) — bookkeeping
#: for operators; replay ignores them.
DAEMON_EVENTS = ("start", "recovered", "breaker-open", "drain", "shutdown")

#: Events after which a job must never run again.
TERMINAL_EVENTS = frozenset({"shed", "done", "failed"})

#: state -> events legally appendable from it (``None`` = no prior
#: record). ``tools/validate.py journal`` enforces this; ``replay``
#: tolerates damage because the reader must never die on a torn journal.
LEGAL_TRANSITIONS: dict[str | None, frozenset] = {
    None: frozenset({"submitted"}),
    "submitted": frozenset({"admitted", "shed"}),
    "admitted": frozenset({"running", "requeued", "failed"}),
    "running": frozenset({"done", "failed", "requeued"}),
    "requeued": frozenset({"running", "requeued", "failed"}),
}


class JournalCorruptionWarning(UserWarning):
    """A journal line was skipped (truncated write or foreign content)."""


#: What :func:`read_journal` requires of a record to replay it.
JOURNAL_LOG = LogSchema(
    name="journal",
    files=JOURNAL_FILE,
    version=JOURNAL_SCHEMA,
    required={"schema": int, "kind": str, "event": str, "ts": NUMBER, "pid": int},
    warning=JournalCorruptionWarning,
    remedy="delete the damaged tail or restore the journal from a backup of "
    "the state directory",
    sort_key=lambda record: record["ts"],
)


class JobJournal(JsonlLog):
    """Writer for one journal file (created on first append).

    Append methods are thread-safe (executor threads and the admission
    loop share one journal) and each is one durable append. Timestamps
    are wall-anchored and strictly increasing across the writer's
    lifetime, and stamped under the append lock, so file order is
    timestamp order — the ordering replay sorts by.
    """

    def __init__(self, root: str) -> None:
        super().__init__(root, JOURNAL_FILE)
        self.anchor = WallAnchor.capture()
        self._clock = StrictClock()

    def _append(self, record: dict) -> dict:
        with self.lock:
            record = {**record, "schema": JOURNAL_SCHEMA, "pid": os.getpid(),
                      "ts": self._clock.stamp(self.anchor.now())}
            self.append([record])
        return record

    def job_event(self, job_id: str, event: str, **fields) -> dict:
        """Append one job transition; returns the record as written."""
        if event not in JOB_EVENTS:
            raise ConfigurationError(
                f"unknown job event {event!r}; expected one of {JOB_EVENTS}"
            )
        if not job_id:
            raise ConfigurationError("job_id must be a non-empty string")
        return self._append({"kind": "job", "job_id": job_id, "event": event,
                             **fields})

    def daemon_event(self, event: str, **fields) -> dict:
        """Append one daemon lifecycle record (start/recovered/…)."""
        if event not in DAEMON_EVENTS:
            raise ConfigurationError(
                f"unknown daemon event {event!r}; expected one of {DAEMON_EVENTS}"
            )
        return self._append({"kind": "daemon", "event": event, **fields})


# -- reading ---------------------------------------------------------------------


@dataclass
class JobView:
    """Current state of one job, folded from its journal records."""

    job_id: str
    state: str = "submitted"
    spec: dict = field(default_factory=dict)
    attempt: int = 0
    submitted_ts: float = 0.0
    updated_ts: float = 0.0
    error: str | None = None
    reason: str | None = None
    digest: str | None = None
    total_s: float | None = None
    events: list[str] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_EVENTS


def read_journal(root: str) -> tuple[list[dict], list[str]]:
    """Load every journal record under a state directory.

    Returns ``(records, problems)``: records sorted by ``ts``; problems
    describing every line skipped *loudly* — corrupt/truncated (a torn
    final append), newer-schema, or missing or mistyping a required key.
    A missing directory or file is an empty history.
    """
    return JOURNAL_LOG.read(root)


def replay(records: list[dict]) -> dict[str, JobView]:
    """Fold journal records into per-job current state.

    Tolerant by design (the strict stance lives in ``tools/validate.py
    journal``): an out-of-order or repeated event still moves the job to
    that event's state — after a crash the journal is the only truth,
    and the daemon must be able to recover from whatever survived.
    Optional fields of the wrong type are ignored, never raised on. A
    terminal state is sticky: once ``done``, ``failed``, or ``shed`` is
    seen, later records cannot resurrect the job, which is what makes
    replay the exactly-once gate.
    """
    jobs: dict[str, JobView] = {}
    for record in records:
        if record.get("kind") != "job":
            continue
        event = record.get("event")
        job_id = record.get("job_id")
        if event not in JOB_EVENTS or not isinstance(job_id, str) or not job_id:
            continue
        view = jobs.get(job_id)
        if view is None:
            view = jobs[job_id] = JobView(
                job_id=job_id, submitted_ts=record["ts"]
            )
        view.events.append(event)
        if view.terminal:
            continue  # terminal is forever
        view.state = event
        view.updated_ts = record["ts"]
        attempt = record.get("attempt")
        if isinstance(attempt, int):
            view.attempt = max(view.attempt, attempt)
        if event == "submitted" and isinstance(record.get("spec"), dict):
            view.spec = record["spec"]
            view.submitted_ts = record["ts"]
        if event == "failed":
            view.error = str(record.get("error", ""))
        if event in ("shed", "requeued"):
            view.reason = str(record.get("reason", ""))
        if event == "done":
            view.digest = record.get("digest")
            total = record.get("total_s")
            view.total_s = float(total) if isinstance(total, NUMBER) else None
    return jobs
