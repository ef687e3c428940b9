"""Workflow-DNA analytics over the persistent run ledger.

Aggregates the step records :mod:`repro.obs.ledger` accumulates into:

* the **heatmap** — per-step p50/p95 duration, failure rate, bytes
  moved, cache hit rate, mean utilization and straggler ratio across
  every recorded run (the per-step "DNA" of the workflow);
* **regression detection** — a step is flagged when its latest good
  duration exceeds the median of its trailing history by a relative
  tolerance plus an absolute slack (generous by default: small corpora
  on loaded hosts are noisy);
* **exports** — plain JSON, Prometheus text exposition (for a future
  serving layer to scrape), Chrome trace-event JSON (the whole history
  on one wall-clock timeline, one lane per run), and a self-contained
  HTML heatmap;
* **recalibration** — replaying span/IPC totals from the history into
  :class:`~repro.plan.CalibrationStore`, so the planner's cost model
  sharpens from every ledgered run instead of only the one it just
  executed.

Everything here consumes the ``(records, problems)`` pair from
:func:`~repro.obs.ledger.read_ledger`; corrupt history never crashes
aggregation, it is skipped loudly upstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.exec.spans import _percentile
from repro.obs.ledger import LEDGER_SCHEMA

__all__ = [
    "StepStats",
    "heatmap",
    "step_history",
    "detect_regressions",
    "export_json",
    "export_prom",
    "export_chrome",
    "export_html",
    "recalibrate",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MIN_RUNS",
    "DEFAULT_SLACK_S",
]

#: Relative headroom the latest duration gets over the trailing median
#: before it counts as a regression (0.5 = 50% slower). Deliberately
#: generous — single uncontrolled runs on a loaded host can differ by
#: far more than a paired benchmark comparison allows.
DEFAULT_TOLERANCE = 0.5

#: Minimum good samples of a step (including the latest) before the
#: regression detector speaks at all. Two clean runs can differ by pure
#: scheduler noise; with fewer than this many samples the baseline is
#: not a baseline.
DEFAULT_MIN_RUNS = 3

#: Absolute slack (seconds) added on top of the relative tolerance, so
#: micro-steps (milliseconds) never flag on jitter.
DEFAULT_SLACK_S = 0.05


@dataclass
class StepStats:
    """Aggregated DNA of one workflow step across the ledger history."""

    step: str
    n_records: int = 0
    n_failed: int = 0
    durations: list[float] = field(default_factory=list)
    bytes_moved: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    seconds_saved: float = 0.0
    utilizations: list[float] = field(default_factory=list)
    straggler_ratios: list[float] = field(default_factory=list)
    queue_wait_s: float = 0.0

    @property
    def failure_rate(self) -> float:
        return self.n_failed / self.n_records if self.n_records else 0.0

    @property
    def p50_s(self) -> float:
        return _percentile(sorted(self.durations), 0.5)

    @property
    def p95_s(self) -> float:
        return _percentile(sorted(self.durations), 0.95)

    @property
    def cache_hit_rate(self) -> float | None:
        seen = self.cache_hits + self.cache_misses
        return self.cache_hits / seen if seen else None

    @property
    def mean_utilization(self) -> float | None:
        if not self.utilizations:
            return None
        return sum(self.utilizations) / len(self.utilizations)

    @property
    def mean_straggler_ratio(self) -> float | None:
        if not self.straggler_ratios:
            return None
        return sum(self.straggler_ratios) / len(self.straggler_ratios)

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "runs": self.n_records,
            "failures": self.n_failed,
            "failure_rate": self.failure_rate,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "bytes_moved": self.bytes_moved,
            "cache_hit_rate": self.cache_hit_rate,
            "seconds_saved": self.seconds_saved,
            "utilization": self.mean_utilization,
            "straggler_ratio": self.mean_straggler_ratio,
            "queue_wait_s": self.queue_wait_s,
        }


def heatmap(records: list[dict]) -> dict[str, StepStats]:
    """Per-step aggregates, keyed in order of first appearance."""
    stats: dict[str, StepStats] = {}
    for record in records:
        step = record["step"]
        entry = stats.get(step)
        if entry is None:
            entry = stats[step] = StepStats(step=step)
        entry.n_records += 1
        if record.get("status") == "failed":
            entry.n_failed += 1
        else:
            entry.durations.append(float(record.get("duration_s", 0.0)))
        ipc = record.get("ipc")
        if isinstance(ipc, dict):
            entry.bytes_moved += int(ipc.get("task_pickle_bytes", 0))
            entry.bytes_moved += int(ipc.get("result_pickle_bytes", 0))
        cache = record.get("cache")
        if isinstance(cache, dict):
            entry.cache_hits += int(cache.get("hits", 0))
            entry.cache_misses += int(cache.get("misses", 0))
            entry.seconds_saved += float(cache.get("seconds_saved", 0.0))
        span = record.get("span")
        if isinstance(span, dict):
            if isinstance(span.get("utilization"), (int, float)):
                entry.utilizations.append(float(span["utilization"]))
            if isinstance(span.get("straggler_ratio"), (int, float)):
                entry.straggler_ratios.append(float(span["straggler_ratio"]))
            entry.queue_wait_s += float(span.get("queue_wait_s", 0.0))
    return stats


def step_history(records: list[dict], step: str | None = None) -> list[dict]:
    """Per-run rows for one step (or all), in wall-clock order."""
    rows = []
    for record in records:
        if step is not None and record["step"] != step:
            continue
        rows.append(
            {
                "run_id": record["run_id"],
                "ts": record["ts"],
                "step": record["step"],
                "status": record.get("status", "ok"),
                "duration_s": record.get("duration_s", 0.0),
                "backend": record["run"].get("backend"),
                "n_docs": record["run"].get("n_docs"),
            }
        )
    return rows


def detect_regressions(
    records: list[dict],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    min_runs: int = DEFAULT_MIN_RUNS,
    slack_s: float = DEFAULT_SLACK_S,
) -> list[dict]:
    """Flag steps whose latest good duration left their trailing baseline.

    For each step, the baseline is the *median* of every good duration
    before the latest one; the latest regresses when it exceeds
    ``baseline * (1 + tolerance) + slack_s``. Steps with fewer than
    ``min_runs`` good samples are never flagged — a baseline of one run
    is noise, and the detector's contract is zero spurious flags on a
    freshly seeded ledger.
    """
    series: dict[str, list[float]] = {}
    for record in records:
        if record.get("status") == "failed":
            continue
        series.setdefault(record["step"], []).append(
            float(record.get("duration_s", 0.0))
        )
    flagged: list[dict] = []
    for step, durations in series.items():
        if len(durations) < max(2, min_runs):
            continue
        latest = durations[-1]
        baseline = _percentile(sorted(durations[:-1]), 0.5)
        threshold = baseline * (1.0 + tolerance) + slack_s
        if latest > threshold:
            flagged.append(
                {
                    "step": step,
                    "latest_s": latest,
                    "baseline_p50_s": baseline,
                    "threshold_s": threshold,
                    "ratio": (latest / baseline) if baseline > 0 else float("inf"),
                    "samples": len(durations),
                }
            )
    return flagged


# -- exports -----------------------------------------------------------------------


def export_json(records: list[dict], **kwargs) -> dict:
    """The heatmap + regression flags as one JSON document."""
    return {
        "schema": LEDGER_SCHEMA,
        "runs": len({record["run_id"] for record in records}),
        "records": len(records),
        "steps": [stats.as_dict() for stats in heatmap(records).values()],
        "regressions": detect_regressions(records, **kwargs),
    }


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def export_prom(records: list[dict]) -> str:
    """Prometheus text exposition of the heatmap (gauges, one sample per
    step) — the scrape surface for a future serving layer."""
    lines: list[str] = []

    def gauge(name: str, help_text: str, samples: list[tuple[dict, float]]):
        if not samples:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} gauge")
        for labels, value in samples:
            rendered = ",".join(
                f'{key}="{_prom_escape(str(val))}"' for key, val in labels.items()
            )
            lines.append(f"{name}{{{rendered}}} {value:.9g}")

    stats = list(heatmap(records).values())
    gauge(
        "repro_step_runs_total",
        "Ledger records per workflow step.",
        [({"step": s.step}, float(s.n_records)) for s in stats],
    )
    gauge(
        "repro_step_failures_total",
        "Failed records per workflow step.",
        [({"step": s.step}, float(s.n_failed)) for s in stats],
    )
    gauge(
        "repro_step_duration_seconds",
        "Step duration percentiles across the ledger history.",
        [
            sample
            for s in stats
            for sample in (
                ({"step": s.step, "quantile": "0.5"}, s.p50_s),
                ({"step": s.step, "quantile": "0.95"}, s.p95_s),
            )
        ],
    )
    gauge(
        "repro_step_bytes_moved_total",
        "Task + result pickle bytes the step shipped, summed over runs.",
        [({"step": s.step}, float(s.bytes_moved)) for s in stats],
    )
    gauge(
        "repro_step_cache_hit_ratio",
        "Result-cache hits / lookups for the step (cached runs only).",
        [
            ({"step": s.step}, s.cache_hit_rate)
            for s in stats
            if s.cache_hit_rate is not None
        ],
    )
    gauge(
        "repro_step_utilization_ratio",
        "Mean traced worker utilization for the step.",
        [
            ({"step": s.step}, s.mean_utilization)
            for s in stats
            if s.mean_utilization is not None
        ],
    )
    return "\n".join(lines) + ("\n" if lines else "")


def export_chrome(records: list[dict]) -> dict:
    """The whole ledger history as Chrome trace-event JSON.

    One ``tid`` lane per run, one complete event per step, timestamps
    relative to the earliest run's start — wall-anchored records make
    runs from different processes line up on one timeline. Load in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro run ledger"},
        }
    ]
    run_lanes: dict[str, int] = {}
    t0 = min((record["run"].get("started", record["ts"]) for record in records),
             default=0.0)
    for record in records:
        run_id = record["run_id"]
        lane = run_lanes.get(run_id)
        if lane is None:
            lane = run_lanes[run_id] = len(run_lanes)
            events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": lane,
                    "name": "thread_name",
                    "args": {"name": f"run {run_id}"},
                }
            )
        duration = float(record.get("duration_s", 0.0))
        end = float(record["ts"]) - t0
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": lane,
                "name": record["step"],
                "cat": record["step"],
                "ts": round(max(0.0, end - duration) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "args": {
                    "status": record.get("status", "ok"),
                    "backend": record["run"].get("backend"),
                    "run_id": run_id,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _heat_color(fraction: float) -> str:
    """Green → red on a 0..1 scale (inline CSS for the HTML export)."""
    fraction = max(0.0, min(1.0, fraction))
    red = int(220 * fraction + 35 * (1 - fraction))
    green = int(200 * (1 - fraction) + 60 * fraction)
    return f"rgb({red},{green},60)"


def export_html(records: list[dict], **kwargs) -> str:
    """Self-contained HTML heatmap (no external assets)."""
    stats = list(heatmap(records).values())
    flagged = {f["step"] for f in detect_regressions(records, **kwargs)}
    max_p50 = max((s.p50_s for s in stats), default=0.0) or 1.0
    rows = []
    for s in stats:
        heat = _heat_color(s.p50_s / max_p50)
        fail_heat = _heat_color(min(1.0, s.failure_rate * 2))
        hit = s.cache_hit_rate
        util = s.mean_utilization
        badge = " &#9888; regression" if s.step in flagged else ""
        rows.append(
            "<tr>"
            f"<td>{s.step}{badge}</td>"
            f"<td>{s.n_records}</td>"
            f'<td style="background:{heat}">{s.p50_s:.3f}</td>'
            f"<td>{s.p95_s:.3f}</td>"
            f'<td style="background:{fail_heat}">{s.failure_rate:.0%}</td>'
            f"<td>{s.bytes_moved / 1e6:.2f}</td>"
            f"<td>{'-' if hit is None else f'{hit:.0%}'}</td>"
            f"<td>{'-' if util is None else f'{util:.0%}'}</td>"
            "</tr>"
        )
    n_runs = len({record["run_id"] for record in records})
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>repro workflow DNA</title>"
        "<style>body{font-family:monospace;background:#111;color:#eee}"
        "table{border-collapse:collapse}td,th{border:1px solid #444;"
        "padding:4px 10px;text-align:right}td:first-child,th:first-child"
        "{text-align:left}</style></head><body>"
        f"<h1>Workflow DNA — {n_runs} run(s), {len(records)} step record(s)</h1>"
        "<table><tr><th>step</th><th>runs</th><th>p50 s</th><th>p95 s</th>"
        "<th>fail</th><th>MB moved</th><th>cache hit</th><th>util</th></tr>"
        + "".join(rows)
        + "</table></body></html>\n"
    )


# -- calibration replay ------------------------------------------------------------


def recalibrate(records: list[dict], store) -> dict:
    """Replay ledgered runs into a :class:`~repro.plan.CalibrationStore`.

    Each successful run contributes what it actually measured: span
    totals (``busy_s``/``n_items`` per step, traced runs) refine compute
    constants exactly as live :meth:`observe_run` feedback does; IPC
    byte counters refine the pickle-byte constants. Untraced runs on the
    ``sequential`` backend contribute their wall durations as compute
    (sequential wall time *is* compute — no pool, no queueing); untraced
    parallel runs without IPC data carry no usable signal and are
    skipped. The k-means constants move only for runs whose record
    carries ``kmeans_passes`` (they are per document per pass). A run
    counts as applied only when a measurement of it reached a constant. Returns
    ``{"runs_applied", "runs_skipped"}``.
    """
    by_run: dict[str, list[dict]] = {}
    for record in records:
        by_run.setdefault(record["run_id"], []).append(record)
    applied = skipped = 0
    for run_records in by_run.values():
        if any(record.get("status") == "failed" for record in run_records):
            skipped += 1
            continue
        run = run_records[0]["run"]
        n_docs = int(run.get("n_docs") or 0)
        passes = int(run.get("kmeans_passes") or 0)
        backend = run.get("backend")
        totals: dict[str, dict] = {}
        ipc_phases: dict[str, dict] = {}
        for record in run_records:
            step = record["step"]
            span_totals = record.get("span_totals")
            if isinstance(span_totals, dict):
                totals[step] = span_totals
            # Older records name a run without a backend "inline".
            elif backend in ("sequential", "inline"):
                totals[step] = {
                    "busy_s": float(record.get("duration_s", 0.0)),
                    "n_items": n_docs,
                }
            ipc = record.get("ipc")
            if isinstance(ipc, dict):
                ipc_phases[step] = ipc
        if store.observe_totals(
            totals, ipc_phases, n_docs, kmeans_passes=passes
        ):
            applied += 1
        else:
            skipped += 1
    return {"runs_applied": applied, "runs_skipped": skipped}


def to_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
