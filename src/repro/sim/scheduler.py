"""Greedy virtual-time scheduler for parallel phases.

Models a Cilkplus-style ``cilk_for``: ready chunks are handed to the
earliest-available core (dynamic self-scheduling, the behaviour a
work-stealing runtime converges to for independent loop iterations), and
the phase additionally cannot complete faster than any shared device allows
(memory bandwidth, disk bandwidth, I/O channel latency).

The output of a simulation is a :class:`PhaseTiming`: elapsed virtual
seconds plus a per-resource lower-bound breakdown that names the phase's
bottleneck. Workflow reports (Figures 3 and 4) are stacks of these.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SchedulerError
from repro.exec.task import TaskCost
from repro.sim.machine import MachineSpec

__all__ = [
    "PhaseTiming",
    "SimScheduler",
    "compute_time",
    "io_time",
    "duration_on",
]


def compute_time(cost: TaskCost, machine: MachineSpec) -> float:
    """Single-core compute time: CPU overlapped with its own DRAM traffic.

    A core executes instructions and its memory accesses concurrently up
    to its private streaming limit, hence the ``max``.
    """
    return max(cost.cpu_s, cost.mem_bytes / machine.core_mem_bw)


def io_time(cost: TaskCost, machine: MachineSpec) -> float:
    """Synchronous storage time paid inside the task."""
    return (
        cost.disk_read_bytes / machine.disk_read_bw
        + cost.disk_write_bytes / machine.disk_write_bw
        + cost.disk_opens * machine.disk_latency_s
    )


def duration_on(cost: TaskCost, machine: MachineSpec) -> float:
    """Total occupancy of one core by the task (compute + blocking I/O)."""
    return compute_time(cost, machine) + io_time(cost, machine)


@dataclass
class PhaseTiming:
    """Outcome of simulating one phase on the machine model."""

    #: Phase label (e.g. ``"input+wc"``, ``"kmeans"``, ``"tfidf-output"``).
    name: str
    #: Virtual seconds the phase occupies on the machine.
    elapsed_s: float
    #: Number of workers the schedule used.
    workers: int
    #: Number of scheduled chunks.
    n_tasks: int
    #: Aggregate resources consumed by the phase.
    totals: TaskCost
    #: Lower bounds per resource; ``elapsed_s`` is their maximum.
    bounds: dict[str, float] = field(default_factory=dict)
    #: Name of the binding resource (key of the max entry in ``bounds``).
    bottleneck: str = "schedule"
    #: Sum of per-core busy time (for utilization).
    busy_s: float = 0.0
    #: Per-task placement: (core, start, end) in schedule time, task order.
    spans: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Fraction of core-seconds actually busy during the phase."""
        if self.elapsed_s == 0.0:
            return 0.0
        return self.busy_s / (self.workers * self.elapsed_s)

    def scaled(self, factor: float) -> "PhaseTiming":
        """Timing with all times multiplied by ``factor`` (extrapolation)."""
        return PhaseTiming(
            name=self.name,
            elapsed_s=self.elapsed_s * factor,
            workers=self.workers,
            n_tasks=self.n_tasks,
            totals=self.totals.scaled(factor),
            bounds={key: value * factor for key, value in self.bounds.items()},
            bottleneck=self.bottleneck,
            busy_s=self.busy_s * factor,
            spans=[(c, s * factor, e * factor) for c, s, e in self.spans],
        )


class SimScheduler:
    """Schedules declared task costs onto a :class:`MachineSpec`."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine

    def simulate_phase(
        self,
        costs: Sequence[TaskCost],
        workers: int | None = None,
        name: str = "phase",
    ) -> PhaseTiming:
        """Simulate a phase of independent tasks and return its timing.

        ``costs`` are scheduled in order onto the earliest-free core —
        dynamic chunk self-scheduling. Shared-device rooflines are applied
        on top of the computed makespan.
        """
        machine = self.machine
        T = machine.effective_workers(workers)
        if any(cost.cpu_s < 0 or cost.mem_bytes < 0 for cost in costs):
            raise SchedulerError(f"phase {name!r} contains negative task costs")

        # (free_time, core_id) heap so placements are reported per core.
        core_free = [(0.0, core) for core in range(T)]
        heapq.heapify(core_free)
        busy = 0.0
        spans: list[tuple[int, float, float]] = []
        for cost in costs:
            duration = duration_on(cost, machine)
            busy += duration
            start, core = heapq.heappop(core_free)
            spans.append((core, start, start + duration))
            heapq.heappush(core_free, (start + duration, core))
        makespan = max(t for t, _ in core_free) if core_free else 0.0

        totals = TaskCost.total(list(costs))
        bounds = {
            "schedule": makespan,
            "memory": totals.mem_bytes / machine.mem_bw,
            "disk-read": totals.disk_read_bytes / machine.disk_read_bw,
            "disk-write": totals.disk_write_bytes / machine.disk_write_bw,
            "disk-latency": (
                totals.disk_opens
                * machine.disk_latency_s
                / min(T, machine.io_channels)
            ),
        }
        bottleneck = max(bounds, key=lambda key: bounds[key])
        return PhaseTiming(
            name=name,
            elapsed_s=bounds[bottleneck],
            workers=T,
            n_tasks=len(costs),
            totals=totals,
            bounds=bounds,
            bottleneck=bottleneck,
            busy_s=busy,
            spans=spans,
        )

    def serial_phase(self, cost: TaskCost, name: str = "serial") -> PhaseTiming:
        """Simulate a single-threaded phase (e.g. the ARFF output step)."""
        return self.simulate_phase([cost], workers=1, name=name)
