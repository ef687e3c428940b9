"""Per-task span tracing for the real execution path.

The simulator has always been able to *show* its schedules — every
``PhaseTiming`` carries per-core spans that ``render_phase_trace`` turns
into a Gantt chart. The real backends, until this module, reported only
coarse per-phase wall totals: a phase that stopped scaling was a black
box. This module gives real runs the same eyes:

* :class:`TaskSpan` — one record per executed task: ``(phase, task_id,
  worker, t_start, t_end, n_items, in_bytes, out_bytes, queue_s)``,
  timestamps in seconds relative to the run's epoch.
* :class:`SpanRecorder` — the run's capture buffer (``backend.bill.spans``,
  a sibling of ``backend.bill.ipc``). In-process backends record directly;
  :class:`~repro.exec.process.ProcessBackend` workers record locally —
  monotonic clocks re-based against the epoch shipped to every worker at
  ``configure()`` time — and piggy-back the span on the existing
  single-pickle task trampoline, so tracing adds **zero extra IPC round
  trips** (the span payload is counted separately by ``IpcStats`` so
  benchmark byte counters stay honest).
* :class:`RunTrace` — the aggregated trace attached to
  :class:`~repro.core.pipeline.RealRunResult`: per-phase worker
  utilization, queue wait, straggler ratio (p100/p50 task time) and
  serial-tail seconds, plus a Chrome trace-event JSON export (loadable
  in ``chrome://tracing`` / Perfetto). The simulator's
  :func:`~repro.sim.trace.phase_timings` adapts it to ``PhaseTiming``,
  so real schedules draw with the same ASCII Gantt as simulated ones.

Tracing is off by default and has no effect on operator output: spans
observe task boundaries, never touch task data, and the traced process
trampoline serializes results with the very same ``pickle.dumps`` call
as the untraced one — output is bit-identical with tracing on or off.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "TaskSpan",
    "SpanRecorder",
    "PhaseTraceStats",
    "RunTrace",
    "install_worker_epoch",
    "worker_now",
]


@dataclass(frozen=True)
class TaskSpan:
    """One executed task, on any backend.

    ``t_start``/``t_end`` are seconds since the run epoch (the parent's
    monotonic clock reading when tracing began). ``worker`` is a dense
    lane index assigned parent-side in order of first appearance — a
    process worker's pid and a reader thread's ident map to distinct
    lanes. ``queue_s`` is the time the task spent between submission and
    its first instruction (0 for inline execution).
    """

    phase: str
    task_id: int
    worker: int
    t_start: float
    t_end: float
    n_items: int = 0
    in_bytes: int = 0
    out_bytes: int = 0
    queue_s: float = 0.0
    #: 1-based execution attempt; > 1 marks a retry (or a replay after a
    #: worker-pool respawn), so recoveries are visible in the trace.
    attempt: int = 1

    @property
    def duration_s(self) -> float:
        return max(0.0, self.t_end - self.t_start)


# -- worker-side clock re-basing ---------------------------------------------------

#: Epoch installed into every pool worker at configure() time. Spans are
#: recorded as ``perf_counter() - _WORKER_EPOCH`` so worker timestamps
#: land on the parent's timeline (``perf_counter`` is system-wide
#: monotonic on Linux/macOS/Windows; the exchanged epoch makes the
#: re-basing explicit rather than an accident of the platform clock).
_WORKER_EPOCH = 0.0


def install_worker_epoch(epoch: float) -> None:
    """Re-base this process's span clock onto the parent's timeline."""
    global _WORKER_EPOCH
    _WORKER_EPOCH = epoch


def worker_now() -> float:
    """Seconds since the installed epoch (0.0 epoch = raw clock)."""
    return time.perf_counter() - _WORKER_EPOCH


class SpanRecorder:
    """Span capture buffer of one run's bill
    (:class:`~repro.exec.inline.RunBill`).

    Disabled by default — ``record()`` is a no-op until ``begin_run()``
    arms it, so untraced runs pay a single boolean check per task.
    Recording is thread-safe (reader threads and the gather loop append
    concurrently); worker *keys* — ``("proc", pid)`` or
    ``("thread", ident)`` tuples — are mapped to dense lane indices in
    order of first appearance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[TaskSpan] = []
        self._lanes: dict[tuple, int] = {}
        self.enabled = False
        self.epoch = 0.0
        self.epoch_wall = 0.0

    # -- lifecycle ---------------------------------------------------------------

    def begin_run(self) -> float:
        """Arm the recorder for one run; returns the new epoch.

        The epoch is a *pair*: the monotonic reading every span offset
        is measured against, and the wall-clock reading taken at the
        same instant (``epoch_wall``). Span math stays monotonic-only —
        immune to NTP steps — while ``epoch_wall + offset`` anchors any
        span on the real-time axis, so traces and ledger records from
        different processes and different runs are comparable.
        """
        with self._lock:
            self._spans = []
            self._lanes = {}
            self.epoch_wall = time.time()
            self.epoch = time.perf_counter()
            self.enabled = True
        return self.epoch

    def end_run(self) -> None:
        """Disarm; captured spans stay readable until the next begin_run."""
        self.enabled = False

    def now(self) -> float:
        """Seconds since this run's epoch, on the parent's clock."""
        return time.perf_counter() - self.epoch

    # -- recording ---------------------------------------------------------------

    def _lane(self, worker_key: tuple) -> int:
        lane = self._lanes.get(worker_key)
        if lane is None:
            lane = self._lanes[worker_key] = len(self._lanes)
        return lane

    def record(
        self,
        t_start: float,
        t_end: float,
        *,
        worker_key: tuple | None = None,
        task_id: int = 0,
        phase: str = "misc",
        n_items: int = 0,
        in_bytes: int = 0,
        out_bytes: int = 0,
        queue_s: float = 0.0,
        attempt: int = 1,
    ) -> None:
        """Append one span (no-op while disarmed).

        ``worker_key`` defaults to the calling thread — the right
        identity for in-process backends and reader threads.
        """
        if not self.enabled:
            return
        if worker_key is None:
            worker_key = ("thread", threading.get_ident())
        with self._lock:
            self._spans.append(
                TaskSpan(
                    phase=phase,
                    task_id=task_id,
                    worker=self._lane(worker_key),
                    t_start=t_start,
                    t_end=t_end,
                    n_items=n_items,
                    in_bytes=in_bytes,
                    out_bytes=out_bytes,
                    queue_s=max(0.0, queue_s),
                    attempt=max(1, attempt),
                )
            )

    def record_worker_span(self, raw: tuple) -> None:
        """Ingest a span tuple a pool worker piggy-backed on its result.

        ``raw`` is ``(phase, task_id, pid, t_start, t_end, n_items,
        in_bytes, out_bytes, queue_s[, attempt])`` with times already on
        the parent's timeline (the worker re-based them against the
        exchanged epoch); the trailing attempt defaults to 1 for
        first-execution spans.
        """
        phase, task_id, pid, t_start, t_end, n_items, in_b, out_b, queue_s = raw[:9]
        attempt = raw[9] if len(raw) > 9 else 1
        self.record(
            t_start,
            t_end,
            worker_key=("proc", pid),
            task_id=task_id,
            phase=phase,
            n_items=n_items,
            in_bytes=in_b,
            out_bytes=out_b,
            queue_s=queue_s,
            attempt=attempt,
        )

    # -- reading -----------------------------------------------------------------

    @property
    def spans(self) -> list[TaskSpan]:
        with self._lock:
            return list(self._spans)

    @property
    def n_lanes(self) -> int:
        with self._lock:
            return len(self._lanes)


# -- aggregation -------------------------------------------------------------------


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted values (ceil(f*n) - 1)."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(fraction * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


@dataclass(frozen=True)
class PhaseTraceStats:
    """Derived accounting for one phase of a traced real run.

    ``window_s`` is the observed span window (first task start → last
    task end); ``wall_s`` is the wall-clock seconds the pipeline billed
    to the phase (for the ``read`` phase that is consumer-*blocked*
    time, so utilization and tails are computed against the window).
    """

    phase: str
    wall_s: float
    window_s: float
    n_tasks: int
    n_workers: int
    busy_s: float
    #: busy core-seconds / (workers × window): 1.0 = no worker ever idle.
    utilization: float
    #: Total seconds tasks sat between submission and first instruction.
    queue_wait_s: float
    #: Slowest task / median task duration (p100/p50); 1.0 = perfectly even.
    straggler_ratio: float
    #: Seconds at the end of the phase when only one worker was still busy.
    serial_tail_s: float

    def as_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "window_s": self.window_s,
            "n_tasks": self.n_tasks,
            "n_workers": self.n_workers,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "queue_wait_s": self.queue_wait_s,
            "straggler_ratio": self.straggler_ratio,
            "serial_tail_s": self.serial_tail_s,
        }


def _phase_stats(
    phase: str, spans: list[TaskSpan], wall_s: float
) -> PhaseTraceStats:
    starts = [span.t_start for span in spans]
    ends = [span.t_end for span in spans]
    window = max(ends) - min(starts) if spans else 0.0
    busy = sum(span.duration_s for span in spans)
    lanes = {span.worker for span in spans}
    durations = sorted(span.duration_s for span in spans)
    p50 = _percentile(durations, 0.5)
    straggler = (durations[-1] / p50) if durations and p50 > 0 else 1.0
    # Serial tail: once every worker but the slowest has retired its last
    # task, the phase is effectively single-threaded until the end.
    last_end_per_lane = {}
    for span in spans:
        last_end_per_lane[span.worker] = max(
            last_end_per_lane.get(span.worker, 0.0), span.t_end
        )
    lane_ends = sorted(last_end_per_lane.values())
    serial_tail = lane_ends[-1] - lane_ends[-2] if len(lane_ends) > 1 else 0.0
    denominator = len(lanes) * window
    return PhaseTraceStats(
        phase=phase,
        wall_s=wall_s,
        window_s=window,
        n_tasks=len(spans),
        n_workers=len(lanes),
        busy_s=busy,
        utilization=(busy / denominator) if denominator > 0 else 0.0,
        queue_wait_s=sum(span.queue_s for span in spans),
        straggler_ratio=straggler,
        serial_tail_s=serial_tail,
    )


@dataclass
class RunTrace:
    """Every span of one traced real run, plus derived accounting."""

    spans: list[TaskSpan]
    #: Wall seconds the pipeline billed per phase (``phase_seconds``).
    phase_wall_s: dict[str, float] = field(default_factory=dict)
    backend_name: str = "sequential"
    workers: int = 1
    #: Wall-clock time (Unix epoch seconds) of the run's span epoch —
    #: ``epoch_wall_s + span.t_start`` puts any span on the real-time
    #: axis shared with the run ledger.
    epoch_wall_s: float = 0.0

    @classmethod
    def from_recorder(
        cls,
        recorder: SpanRecorder,
        phase_wall_s: dict[str, float] | None = None,
        backend_name: str = "sequential",
        workers: int = 1,
    ) -> "RunTrace":
        return cls(
            spans=recorder.spans,
            phase_wall_s=dict(phase_wall_s or {}),
            backend_name=backend_name,
            workers=workers,
            epoch_wall_s=recorder.epoch_wall,
        )

    @property
    def phases(self) -> list[str]:
        """Phase names in order of first span appearance."""
        seen: list[str] = []
        for span in self.spans:
            if span.phase not in seen:
                seen.append(span.phase)
        return seen

    def phase_spans(self, phase: str) -> list[TaskSpan]:
        return [span for span in self.spans if span.phase == phase]

    def phase_summary(self) -> dict[str, PhaseTraceStats]:
        """Per-phase utilization / queue-wait / straggler / tail stats."""
        return {
            phase: _phase_stats(
                phase, self.phase_spans(phase), self.phase_wall_s.get(phase, 0.0)
            )
            for phase in self.phases
        }

    def phase_totals(self) -> dict[str, dict]:
        """Per-phase sums of busy seconds, items, tasks and bytes.

        The calibration inputs: ``busy_s / n_items`` is the measured
        worker-side compute cost per item (unpolluted by queueing or the
        parent's gather loop), which
        :meth:`repro.plan.calibration.CalibrationStore.observe_run` feeds
        back into the cost constants.
        """
        totals: dict[str, dict] = {}
        for phase in self.phases:
            spans = self.phase_spans(phase)
            totals[phase] = {
                "busy_s": sum(span.duration_s for span in spans),
                "n_items": sum(span.n_items for span in spans),
                "in_bytes": sum(span.in_bytes for span in spans),
                "out_bytes": sum(span.out_bytes for span in spans),
                "n_tasks": len(spans),
            }
        return totals

    def top_stragglers(self, n: int = 3) -> list[TaskSpan]:
        """The ``n`` longest tasks of the run, slowest first."""
        return sorted(self.spans, key=lambda span: span.duration_s, reverse=True)[:n]

    def summary_dict(self) -> dict:
        """JSON-able per-phase summary (benchmark records embed this)."""
        return {
            phase: stats.as_dict() for phase, stats in self.phase_summary().items()
        }

    # -- Chrome trace-event export ------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The run as Chrome trace-event JSON (trace-event format).

        One complete (``"ph": "X"``) event per task span, one ``tid``
        lane per worker; load the file in ``chrome://tracing`` or
        https://ui.perfetto.dev. Timestamps are microseconds since the
        run epoch, as the format requires; the epoch's wall-clock time
        rides along under ``otherData`` so separate traces can be lined
        up on one real-time axis.
        """
        events: list[dict] = [
            {
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"repro pipeline ({self.backend_name})"},
            }
        ]
        for lane in sorted({span.worker for span in self.spans}):
            events.append(
                {
                    "ph": "M",
                    "pid": 0,
                    "tid": lane,
                    "name": "thread_name",
                    "args": {"name": f"worker {lane}"},
                }
            )
        for span in self.spans:
            events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": span.worker,
                    "name": f"{span.phase}#{span.task_id}",
                    "cat": span.phase,
                    "ts": round(span.t_start * 1e6, 3),
                    "dur": round(span.duration_s * 1e6, 3),
                    "args": {
                        "n_items": span.n_items,
                        "in_bytes": span.in_bytes,
                        "out_bytes": span.out_bytes,
                        "queue_ms": round(span.queue_s * 1e3, 3),
                        "attempt": span.attempt,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"epoch_wall_s": self.epoch_wall_s},
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")
