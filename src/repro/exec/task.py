"""Task cost records: a plain tally of declared work and I/O.

Storage backends report one per read or write (bytes moved, files
opened). The simulator (:mod:`repro.sim`) additionally has its operators
declare the CPU seconds and memory traffic of each unit of work (per
document chunk, per file, per centroid update...), and its scheduler
turns these declared costs into virtual time on a machine model
(:func:`repro.sim.scheduler.duration_on`); nothing here times Python
execution.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TaskCost"]


@dataclass
class TaskCost:
    """Resources consumed by one schedulable unit of work.

    Attributes
    ----------
    cpu_s:
        Pure computation time on one core, in virtual seconds.
    mem_bytes:
        DRAM traffic generated (reads + writes); interacts with both the
        per-core and the socket-level bandwidth limits.
    disk_read_bytes / disk_write_bytes:
        Bytes moved to/from the storage device, performed synchronously
        within the task (a task reading its input file blocks on it, but
        other cores keep computing — that is the paper's "parallelism
        hides I/O latency").
    disk_opens:
        Number of file-open operations, each charged the device latency.
    """

    cpu_s: float = 0.0
    mem_bytes: float = 0.0
    disk_read_bytes: float = 0.0
    disk_write_bytes: float = 0.0
    disk_opens: int = 0

    def add(self, other: "TaskCost") -> "TaskCost":
        """Accumulate ``other`` into this cost; returns self for chaining."""
        self.cpu_s += other.cpu_s
        self.mem_bytes += other.mem_bytes
        self.disk_read_bytes += other.disk_read_bytes
        self.disk_write_bytes += other.disk_write_bytes
        self.disk_opens += other.disk_opens
        return self

    def __add__(self, other: "TaskCost") -> "TaskCost":
        return TaskCost(
            cpu_s=self.cpu_s + other.cpu_s,
            mem_bytes=self.mem_bytes + other.mem_bytes,
            disk_read_bytes=self.disk_read_bytes + other.disk_read_bytes,
            disk_write_bytes=self.disk_write_bytes + other.disk_write_bytes,
            disk_opens=self.disk_opens + other.disk_opens,
        )

    def scaled(self, factor: float) -> "TaskCost":
        """Cost multiplied by ``factor`` (used for extrapolation)."""
        return TaskCost(
            cpu_s=self.cpu_s * factor,
            mem_bytes=self.mem_bytes * factor,
            disk_read_bytes=self.disk_read_bytes * factor,
            disk_write_bytes=self.disk_write_bytes * factor,
            disk_opens=int(round(self.disk_opens * factor)),
        )

    @property
    def is_zero(self) -> bool:
        """True when the task consumes no modelled resources."""
        return (
            self.cpu_s == 0.0
            and self.mem_bytes == 0.0
            and self.disk_read_bytes == 0.0
            and self.disk_write_bytes == 0.0
            and self.disk_opens == 0
        )

    @staticmethod
    def total(costs: "list[TaskCost] | tuple[TaskCost, ...]") -> "TaskCost":
        """Sum a sequence of costs into one record."""
        result = TaskCost()
        for cost in costs:
            result.add(cost)
        return result
