"""Validate a run artefact strictly: a span trace, a run ledger or a job journal.

Usage::

    python tools/validate.py trace t.json [--phases read,input+wc,transform,kmeans]
    python tools/validate.py ledger LEDGER_DIR_OR_FILE
    python tools/validate.py journal STATE_DIR_OR_FILE [--expect-done N]

The runtime readers (``read_ledger``, ``read_journal``) skip damage
loudly so aggregation and recovery never die. CI wants the opposite
stance, so here every problem is an error naming file, line and remedy.
The ledger and journal checks scan with the writers' own schemas and
vocabularies (imported from ``src/``), then add the strict-only rules:
nested ``run``/``host`` keys, per-event fields, per-run and per-job
timestamp order, the lifecycle state machine and exactly-once
terminality. Records of a newer schema than this checkout writes pass
unchecked. Exit code 0 when the artefact passes, 1 with one ``error:``
line per problem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.io.jsonl_log import NUMBER, LogSchema  # noqa: E402
from repro.obs.ledger import LEDGER_LOG  # noqa: E402
from repro.serve.journal import (  # noqa: E402
    DAEMON_EVENTS,
    JOB_EVENTS,
    JOURNAL_LOG,
    LEGAL_TRANSITIONS,
    TERMINAL_EVENTS,
)

_TRACE_REMEDY = "re-run the pipeline with --trace to regenerate it"

#: Event types ``RunTrace.to_chrome_trace`` emits.
_ALLOWED_PH = {"M", "X"}

#: Tolerance for lane-overlap checks, in microseconds. Timestamps are
#: rounded to 3 decimals on export, so back-to-back tasks may touch.
_OVERLAP_SLACK_US = 0.002

_RUN_KEYS = ("started", "kind", "backend", "n_docs", "total_s")
_HOST_KEYS = ("platform", "python", "cpu_count")


def _empty(path: str, remedy: str) -> str:
    return f"{path} is empty — the file was truncated (interrupted write?); {remedy}"


# -- trace ---------------------------------------------------------------------


def check_trace(trace: object, required_phases: list[str]) -> list[str]:
    """Problems with a parsed trace document (empty = valid)."""
    problems: list[str] = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["top level must be an object with a 'traceEvents' key"]
    events = trace["traceEvents"]
    if not isinstance(events, list) or not events:
        return ["'traceEvents' must be a non-empty list"]

    lanes: dict[object, list[tuple[float, float, str]]] = {}
    seen_phases: set[str] = set()
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in event:
                problems.append(f"event {index} lacks required key {key!r}")
        ph = event.get("ph")
        if ph not in _ALLOWED_PH:
            problems.append(f"event {index} has unexpected ph {ph!r}")
            continue
        if ph != "X":
            continue
        ts, dur = event.get("ts"), event.get("dur")
        if not isinstance(ts, NUMBER) or not isinstance(dur, NUMBER):
            problems.append(f"event {index} ({event.get('name')}) has "
                            f"non-numeric ts/dur")
            continue
        if ts < 0 or dur < 0:
            problems.append(f"event {index} ({event.get('name')}) has "
                            f"negative ts/dur ({ts}, {dur})")
        lanes.setdefault(event.get("tid"), []).append(
            (float(ts), float(ts) + float(dur), str(event.get("name")))
        )
        cat = event.get("cat")
        if isinstance(cat, str):
            seen_phases.add(cat)

    if not any(lane for lane in lanes.values()):
        problems.append("no complete ('X') span events found")

    for tid, spans in lanes.items():
        spans.sort()
        for (s0, e0, n0), (s1, _, n1) in zip(spans, spans[1:]):
            if s1 < e0 - _OVERLAP_SLACK_US:
                problems.append(
                    f"lane tid={tid}: spans overlap ({n0} ends at {e0:.3f}us, "
                    f"{n1} starts at {s1:.3f}us)"
                )

    for phase in required_phases:
        if phase not in seen_phases:
            problems.append(f"phase {phase!r} contributed no spans "
                            f"(saw: {sorted(seen_phases)})")
    return problems


# -- JSONL logs -----------------------------------------------------------------


def _check_log(schema: LogSchema, path: str, strict) -> tuple[list[dict], list[str]]:
    """The reader's own scan of a log directory (or one file) with every
    skip turned into an error, plus the ``strict`` per-record checks;
    returns ``(clean records, problems)``."""
    if os.path.isdir(path):
        paths = schema.paths(path)
        if not paths:
            return [], [f"{path} contains no {schema.files} {schema.name} file"]
    elif os.path.isfile(path):
        paths = [path]
    else:
        return [], [f"{path} is not a directory or a {schema.name} file"]
    records: list[dict] = []
    problems: list[str] = []
    for path in paths:
        lines = 0
        for label, record, issues in schema.scan(path):
            lines += 1
            version = schema.version_of(record)
            if version is not None and version > schema.version:
                continue  # a newer writer's record cannot be checked here
            found = issues + (strict(record) if version is not None else [])
            problems.extend(f"{label}: {issue}" for issue in found)
            if not found:
                records.append(record)
        if not lines:
            problems.append(_empty(path, schema.remedy))
    return records, problems


def _increasing(records: list[dict], key: str) -> list[str]:
    """Timestamps must strictly increase within each ``key`` group."""
    last: dict[str, float] = {}
    problems: list[str] = []
    for record in records:
        group, ts = record[key], record["ts"]
        if group in last and ts <= last[group]:
            problems.append(f"{key} {group}: timestamps not strictly "
                            f"increasing ({ts} after {last[group]})")
        last[group] = ts
    return problems


def _non_negative(record: dict, keys: tuple) -> list[str]:
    return [f"{key!r} must be a non-negative number" for key in keys
            if isinstance(record.get(key), NUMBER) and record[key] < 0]


def _ledger_record(record: dict) -> list[str]:
    problems = [f"{key!r} must be a non-empty string" for key in ("run_id", "step")
                if record.get(key) == ""]
    problems += _non_negative(record, ("ts", "duration_s"))
    status = record.get("status")
    if status not in ("ok", "failed"):
        problems.append(f"'status' must be 'ok' or 'failed', got {status!r}")
    elif status == "failed" and not isinstance(record.get("error"), str):
        problems.append("failed record lacks its 'error' string")
    for name, keys in (("run", _RUN_KEYS), ("host", _HOST_KEYS)):
        value = record.get(name)
        if not isinstance(value, dict):
            problems.append(f"{name!r} must be an object")
        else:
            problems += [f"{name} lacks {key!r}" for key in keys if key not in value]
    return problems


def check_ledger(path: str) -> tuple[list[dict], list[str]]:
    """Validate a ledger directory (every ``*.jsonl`` in it) or one file."""
    records, problems = _check_log(LEDGER_LOG, path, _ledger_record)
    return records, problems + _increasing(records, "run_id")


def _journal_record(record: dict) -> list[str]:
    problems = _non_negative(record, ("ts",))
    kind, event = record.get("kind"), record.get("event")
    if kind == "daemon":
        if event not in DAEMON_EVENTS:
            problems.append(f"unknown daemon event {event!r} "
                            f"(expected one of {sorted(DAEMON_EVENTS)})")
        return problems
    if kind != "job":
        return problems + [f"'kind' must be 'job' or 'daemon', got {kind!r}"]
    if not isinstance(record.get("job_id"), str) or not record["job_id"]:
        problems.append("job record lacks a non-empty 'job_id'")
    if event not in JOB_EVENTS:
        problems.append(f"unknown job event {event!r} "
                        f"(expected one of {sorted(JOB_EVENTS)})")
    if event == "done":
        if not isinstance(record.get("digest"), str) or not record["digest"]:
            problems.append("done record lacks its 'digest' string")
        if not isinstance(record.get("total_s"), NUMBER):
            problems.append("done record lacks numeric 'total_s'")
    required = {"failed": "error", "shed": "reason"}.get(event)
    if required and not isinstance(record.get(required), str):
        problems.append(f"{event} record lacks its {required!r} string")
    return problems


def _lifecycles(records: list[dict]) -> list[str]:
    """Per-job state machine, timestamp order, exactly-once terminality."""
    jobs = [record for record in records if record["kind"] == "job"]
    problems = _increasing(jobs, "job_id")
    states: dict[str, str | None] = {}
    terminal_counts: dict[str, int] = {}
    for record in jobs:
        job_id, event = record["job_id"], record["event"]
        state = states.get(job_id)
        legal = LEGAL_TRANSITIONS.get(state, frozenset())
        if state in TERMINAL_EVENTS:
            problems.append(
                f"job {job_id}: event {event!r} after terminal "
                f"state {state!r} — the job was resurrected"
            )
        elif event not in legal:
            problems.append(
                f"job {job_id}: illegal transition {state!r} -> {event!r} "
                f"(legal: {sorted(legal)})"
            )
        states[job_id] = event
        if event in TERMINAL_EVENTS:
            terminal_counts[job_id] = terminal_counts.get(job_id, 0) + 1
    for job_id, count in terminal_counts.items():
        if count > 1:
            problems.append(
                f"job {job_id}: {count} terminal events — completion is "
                f"not exactly-once"
            )
    return problems


def check_journal(path: str) -> tuple[list[dict], list[str]]:
    """Validate the journal of a serve state directory (or a journal file)."""
    records, problems = _check_log(JOURNAL_LOG, path, _journal_record)
    return records, problems + _lifecycles(records)


# -- command line ---------------------------------------------------------------


def _trace_main(args) -> tuple[list[str], str]:
    path = args.path
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        return [f"cannot read {path}: {exc}"], ""
    if not raw.strip():
        return [_empty(path, _TRACE_REMEDY)], ""
    try:
        trace = json.loads(raw)
    except ValueError as exc:
        return [f"{path} is not valid JSON (truncated or corrupt); "
                f"{_TRACE_REMEDY}: {exc}"], ""
    problems = check_trace(trace, [p for p in args.phases.split(",") if p])
    if problems:
        return problems, ""
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    return [], (f"valid trace-event JSON ({len(spans)} spans across "
                f"{len({e.get('tid') for e in spans})} worker lane(s))")


def _ledger_main(args) -> tuple[list[str], str]:
    records, problems = check_ledger(args.path)
    runs = {record["run_id"] for record in records}
    steps = sorted({record["step"] for record in records})
    return problems, (f"{len(records)} valid step record(s) across "
                      f"{len(runs)} run(s) (steps: {', '.join(steps)})")


def _journal_main(args) -> tuple[list[str], str]:
    records, problems = check_journal(args.path)
    jobs = [record for record in records if record["kind"] == "job"]
    done = {record["job_id"] for record in jobs if record["event"] == "done"}
    if args.expect_done is not None and len(done) != args.expect_done:
        problems.append(f"expected exactly {args.expect_done} completed "
                        f"job(s), found {len(done)}")
    return problems, (f"{len(records)} valid journal record(s), "
                      f"{len(done)} job(s) completed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    kinds = parser.add_subparsers(dest="kind", required=True)
    trace = kinds.add_parser("trace", help="trace-event JSON from --trace")
    trace.add_argument("path")
    trace.add_argument("--phases", default="", help="comma-separated phases "
                       "that must each have at least one span")
    ledger = kinds.add_parser("ledger", help="run ledger directory (or one "
                              ".jsonl file)")
    ledger.add_argument("path")
    journal = kinds.add_parser("journal", help="serve state directory (or a "
                               "journal .jsonl file)")
    journal.add_argument("path")
    journal.add_argument("--expect-done", type=int, default=None, metavar="N",
                         help="fail unless exactly N jobs reached 'done'")
    args = parser.parse_args(argv)

    run = {"trace": _trace_main, "ledger": _ledger_main, "journal": _journal_main}
    problems, summary = run[args.kind](args)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{args.path}: {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
