"""ASCII execution traces of simulated schedules.

Renders the per-core placement recorded by the scheduler as a Gantt-style
text chart — the quickest way to *see* why a phase stopped scaling (three
fat chunks on a 16-core machine, a serial ARFF tail, a memory-bandwidth
plateau). Used by examples and by humans debugging calibrations; the
benchmark reports stay tabular. :func:`phase_timings` adapts a real
run's span trace (:class:`~repro.exec.spans.RunTrace`) so its measured
schedule draws the same way.
"""

from __future__ import annotations

from repro.exec.spans import RunTrace
from repro.exec.task import TaskCost
from repro.sim.metrics import Timeline
from repro.sim.scheduler import PhaseTiming

__all__ = ["render_phase_trace", "render_timeline_trace", "phase_timings"]

_FULL = "█"
_PART = "▒"


def render_phase_trace(timing: PhaseTiming, width: int = 64) -> str:
    """Gantt chart of one phase: a row per core, time left to right.

    Cells covered by a task for their whole duration render solid; cells
    partially covered render hatched. A trailing annotation names the
    phase's bottleneck when the device rooflines (not the schedule)
    bound it.
    """
    if width < 8:
        raise ValueError(f"width must be >= 8, got {width}")
    if not timing.spans or timing.elapsed_s <= 0:
        return f"{timing.name}: empty phase"

    horizon = max(end for _, _, end in timing.spans)
    scale = width / horizon if horizon > 0 else 0.0
    lines = [
        f"{timing.name}: {timing.elapsed_s:.3f}s on {timing.workers} core(s), "
        f"{timing.n_tasks} task(s), bottleneck={timing.bottleneck}, "
        f"utilization={timing.utilization:.0%}"
    ]
    cores = sorted({core for core, _, _ in timing.spans})
    for core in cores:
        cells = [" "] * width
        for span_core, start, end in timing.spans:
            if span_core != core:
                continue
            first = int(start * scale)
            last = max(first, min(width - 1, int(end * scale) - (1 if end * scale == int(end * scale) else 0)))
            for cell in range(first, last + 1):
                cell_start, cell_end = cell / scale, (cell + 1) / scale
                covered = min(end, cell_end) - max(start, cell_start)
                if covered >= 0.999 * (cell_end - cell_start):
                    cells[cell] = _FULL
                elif covered > 0 and cells[cell] != _FULL:
                    cells[cell] = _PART
        lines.append(f"  core {core:>3} |{''.join(cells)}|")
    if timing.bottleneck != "schedule":
        lines.append(
            f"  (device-bound: {timing.bottleneck} roofline extends the phase "
            f"to {timing.elapsed_s:.3f}s beyond the schedule's "
            f"{timing.bounds['schedule']:.3f}s)"
        )
    return "\n".join(lines)


def render_timeline_trace(
    timeline: Timeline, width: int = 64, max_phases: int | None = None
) -> str:
    """Concatenated phase traces for a whole run, in execution order."""
    phases = timeline.phases
    if max_phases is not None:
        phases = phases[:max_phases]
    if not phases:
        return "(empty timeline)"
    blocks = [render_phase_trace(phase, width=width) for phase in phases]
    if max_phases is not None and len(timeline.phases) > max_phases:
        blocks.append(f"... {len(timeline.phases) - max_phases} more phase(s)")
    return "\n\n".join(blocks)


def phase_timings(trace: RunTrace) -> list[PhaseTiming]:
    """Adapt each phase of a real run's trace to a :class:`PhaseTiming`.

    Span times are re-based to the phase's first task start, so each
    chart starts at its left edge; :func:`render_phase_trace` then draws
    real schedules exactly as it draws simulated ones.
    """
    timings: list[PhaseTiming] = []
    for phase in trace.phases:
        spans = trace.phase_spans(phase)
        t0 = min(span.t_start for span in spans)
        window = max(span.t_end for span in spans) - t0
        placements = [
            (span.worker, span.t_start - t0, span.t_end - t0) for span in spans
        ]
        timings.append(
            PhaseTiming(
                name=phase,
                elapsed_s=window,
                workers=len({span.worker for span in spans}),
                n_tasks=len(spans),
                totals=TaskCost(),
                bounds={"schedule": window},
                bottleneck="schedule",
                busy_s=sum(span.duration_s for span in spans),
                spans=placements,
            )
        )
    return timings
