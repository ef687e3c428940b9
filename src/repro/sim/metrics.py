"""Timelines, work/span analysis and speedup helpers.

A workflow run is a sequence of :class:`PhaseTiming` records; this module
aggregates them into the quantities the paper plots: total execution time,
stacked per-phase breakdowns (Figures 3 and 4) and self-relative speedup
curves (Figures 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.exec.task import TaskCost
from repro.sim.machine import MachineSpec
from repro.sim.scheduler import PhaseTiming, duration_on

__all__ = ["Timeline", "WorkSpan", "work_span", "self_relative_speedups"]


@dataclass
class Timeline:
    """Ordered record of the phases of one simulated run."""

    phases: list[PhaseTiming] = field(default_factory=list)

    def add(self, timing: PhaseTiming) -> PhaseTiming:
        """Append a phase and return it (for chaining)."""
        self.phases.append(timing)
        return timing

    def extend(self, other: "Timeline") -> None:
        """Append all phases of another timeline."""
        self.phases.extend(other.phases)

    @property
    def total_s(self) -> float:
        """Total virtual execution time (phases run back-to-back)."""
        return sum(phase.elapsed_s for phase in self.phases)

    def breakdown(self) -> dict[str, float]:
        """Elapsed seconds per phase name, merging repeated names.

        K-means iterations, for instance, produce one phase record each;
        the stacked bars in the paper's figures show them as one segment.
        """
        merged: dict[str, float] = {}
        for phase in self.phases:
            merged[phase.name] = merged.get(phase.name, 0.0) + phase.elapsed_s
        return merged

    def phase_seconds(self, name: str) -> float:
        """Total elapsed seconds of all phases with the given name."""
        return sum(p.elapsed_s for p in self.phases if p.name == name)

    def totals(self) -> TaskCost:
        """Aggregate resource consumption across all phases."""
        return TaskCost.total([phase.totals for phase in self.phases])

    def bottlenecks(self) -> dict[str, str]:
        """Binding resource per phase name (last occurrence wins)."""
        return {phase.name: phase.bottleneck for phase in self.phases}


@dataclass(frozen=True)
class WorkSpan:
    """Work/span summary of a set of independent tasks."""

    #: Total core-seconds across all tasks (T_1).
    work_s: float
    #: Longest single task (T_inf for a flat loop).
    span_s: float

    @property
    def max_parallelism(self) -> float:
        """Upper bound on achievable speedup (work / span)."""
        if self.span_s == 0.0:
            return float("inf")
        return self.work_s / self.span_s


def work_span(costs: Sequence[TaskCost], machine: MachineSpec) -> WorkSpan:
    """Compute work and span of independent tasks on the given machine."""
    durations = [duration_on(cost, machine) for cost in costs]
    return WorkSpan(work_s=sum(durations), span_s=max(durations, default=0.0))


def self_relative_speedups(times_by_threads: dict[int, float]) -> dict[int, float]:
    """Convert a thread→time map into the paper's self-relative speedups.

    Speedup at T threads is ``time(1 thread) / time(T threads)``; the
    1-thread entry must be present.
    """
    if 1 not in times_by_threads:
        raise ValueError("self-relative speedup requires a 1-thread measurement")
    base = times_by_threads[1]
    return {
        threads: (base / elapsed if elapsed > 0 else float("inf"))
        for threads, elapsed in sorted(times_by_threads.items())
    }
