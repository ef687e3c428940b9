"""Append-only, schema-versioned execution ledger for real runs.

One run of the fused pipeline produces one JSONL record **per workflow
step** (phase), written to ``<ledger dir>/ledger.jsonl`` in a single
append (:class:`repro.io.jsonl_log.JsonlLog`): a reader sees either none
or all of a run's records, and a torn final line is skipped *loudly* by
:func:`read_ledger` without ever failing aggregation.

Timestamps are **wall-anchored**: each run captures one
:class:`WallAnchor` and every step timestamp is ``wall + monotonic
offset``, strictly increasing within the run. Durations keep
monotonic-clock precision while records from different processes and
different days stay comparable on one real-time axis.

The ledger is the persistence layer under ``repro analytics`` (the
Workflow-DNA heatmap, regression detection, exports) and under
``repro analytics recalibrate``, which replays span/IPC totals from the
history into :class:`~repro.plan.CalibrationStore`. See
``docs/ledger.md`` for the record schema and retention story.
"""

from __future__ import annotations

import itertools
import os
import platform
import time

from repro.errors import ConfigurationError
from repro.io.jsonl_log import NUMBER, JsonlLog, LogSchema, StrictClock, WallAnchor

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_FILE",
    "LEDGER_LOG",
    "LedgerCorruptionWarning",
    "WallAnchor",
    "RunLedger",
    "read_ledger",
]

#: Version stamped on every record. Readers process records up to their
#: own schema and skip newer ones loudly instead of misreading them.
LEDGER_SCHEMA = 1

#: The append-only log file inside a ledger directory. Readers scan
#: every ``*.jsonl`` in the directory, so rotated/archived files sit
#: next to the live one and stay aggregatable.
LEDGER_FILE = "ledger.jsonl"


class LedgerCorruptionWarning(UserWarning):
    """A ledger line was skipped (truncated write or foreign content)."""


def _run_order(record: dict) -> tuple:
    started = record["run"].get("started")
    return (started if isinstance(started, NUMBER) else 0.0, record["ts"])


#: What :func:`read_ledger` requires of a step record to aggregate it.
LEDGER_LOG = LogSchema(
    name="ledger",
    files="*.jsonl",
    version=LEDGER_SCHEMA,
    required={
        "schema": int, "run_id": str, "ts": NUMBER, "step": str,
        "status": str, "duration_s": NUMBER, "run": dict,
    },
    warning=LedgerCorruptionWarning,
    remedy="delete the damaged ledger file or its torn tail (the history "
    "in other *.jsonl files survives)",
    sort_key=_run_order,
)


def _host() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


class RunLedger(JsonlLog):
    """Writer for one ledger directory (created on first use).

    ``record_run``/``record_failed_run`` append all of a run's step
    records in one durable append, so records of concurrent runs never
    interleave. ``last_append_s`` holds the seconds the most recent
    append cost (the run's entire ledger overhead), so surfaces can bill
    it honestly.
    """

    def __init__(self, root: str) -> None:
        super().__init__(root, LEDGER_FILE)
        self._runs = itertools.count(1)

    @classmethod
    def ensure(cls, value: "RunLedger | str | None") -> "RunLedger | None":
        """Coerce ``run_pipeline``'s ``ledger=`` argument (dir path or
        instance; ``None`` = ledgering off)."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        raise ConfigurationError(
            f"ledger must be a directory path or a RunLedger, got {value!r}"
        )

    def _append_run(self, anchor: WallAnchor, steps: list, *, kind: str,
                    config: dict | None, **run) -> dict:
        """Append one run's step records; ``steps`` holds ``(step, end
        offset from the anchor, fields)`` in execution order."""
        run_id = f"{int(anchor.wall * 1e3):013d}-{os.getpid()}-{next(self._runs)}"
        run = {"started": anchor.wall, "kind": kind, **run, "config": config or {}}
        clock, host = StrictClock(anchor.wall), _host()
        records = [
            {
                "schema": LEDGER_SCHEMA, "run_id": run_id,
                "ts": clock.stamp(anchor.at(end)), "step": step,
                "status": "ok", "run": run, "span": None, "span_totals": None,
                "ipc": None, "cache": None, "tiles": None, "host": host,
                **fields,
            }
            for step, end, fields in steps
        ]
        return {"run_id": run_id, "dir": self.root, "records": len(records),
                "append_s": self.append(records)}

    def record_run(
        self,
        result,
        *,
        anchor: WallAnchor,
        kind: str = "pipeline",
        config: dict | None = None,
    ) -> dict:
        """Ledger a completed run from its ``RealRunResult``.

        Returns ``{"run_id", "dir", "records", "append_s"}`` (what
        ``result.ledger`` carries). Step timestamps are the anchor plus
        the cumulative phase durations — phase wall times are disjoint
        by construction (streamed reads bill only *blocked* time), so
        the cumulative sum is each phase's end on the wall axis.
        """
        record = result.to_record()
        ipc_phases = (record["ipc"] or {}).get("phases", {})
        cache_phases = (record["cache"] or {}).get("phases", {})
        trace_stats = record["trace"] or {}
        trace_totals = record["trace_totals"] or {}
        steps = []
        end = record["plan_seconds"]
        for step, duration in record["phases"].items():
            end += duration
            steps.append((step, end, {
                "duration_s": duration,
                "span": trace_stats.get(step),
                "span_totals": trace_totals.get(step),
                "ipc": ipc_phases.get(step),
                "cache": cache_phases.get(step),
                "tiles": record["tiles"] if step == "transform" else None,
            }))
        return self._append_run(
            anchor, steps, kind=kind, config=config,
            backend=record["backend"], n_docs=result.tfidf.matrix.n_rows,
            kmeans_passes=result.kmeans.n_iters,
            total_s=record["total_s"], plan_seconds=record["plan_seconds"],
            plan=record["plan"], downgrades=record["downgrades"],
            quarantine=record["quarantine"],
        )

    def record_failed_run(
        self,
        *,
        anchor: WallAnchor,
        phase_seconds: dict,
        failed_step: str,
        error: BaseException | str,
        backend: str,
        kind: str = "pipeline",
        n_docs: int = 0,
        config: dict | None = None,
    ) -> dict:
        """Ledger a run that raised: completed steps as ``ok``, then one
        ``failed`` record for the step that was executing.

        The failed step's duration is the run's elapsed time minus the
        seconds already billed to completed phases — an upper bound that
        includes session overhead, which is the honest attribution when
        the phase died mid-flight.
        """
        elapsed_total = time.perf_counter() - anchor.mono
        steps = []
        end = 0.0
        for step, duration in phase_seconds.items():
            if step != failed_step:
                end += duration
                steps.append((step, end, {"duration_s": duration}))
        steps.append((failed_step, elapsed_total, {
            "status": "failed",
            "duration_s": max(0.0, elapsed_total - end),
            "error": str(error),
        }))
        return self._append_run(
            anchor, steps, kind=kind, config=config, backend=backend,
            n_docs=n_docs, total_s=elapsed_total, plan_seconds=0.0, plan=None,
            downgrades=[], quarantine=None,
        )


def read_ledger(root: str) -> tuple[list[dict], list[str]]:
    """Load every aggregatable record under a ledger directory.

    Returns ``(records, problems)``: records sorted by ``(run start,
    ts)``; problems describing every line that was *skipped loudly* — a
    corrupt/truncated line (interrupted append), a record from a newer
    schema than this reader understands, or a record missing or
    mistyping a required key. Skipping never fails aggregation: the
    remaining history stays usable, which is the whole point of an
    append-forever log. A missing or empty directory is simply an empty
    history (no runs yet).
    """
    return LEDGER_LOG.read(root)
