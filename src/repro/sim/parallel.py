"""Parallel-loop primitives over the virtual-time scheduler.

``parallel_map`` is the reproduction's ``cilk_for``: it executes the loop
body *for real* (in plain Python, on the host), while the costs the body
declares are scheduled onto the simulated machine. Chunking mirrors grain
size control in Cilkplus — the scheduler sees one task per chunk, so very
fine-grained loops do not drown in per-task bookkeeping and very coarse
chunks expose load imbalance, exactly as on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.exec.inline import auto_grain
from repro.exec.task import TaskCost
from repro.sim.scheduler import PhaseTiming, SimScheduler

__all__ = ["ParallelResult", "parallel_map", "parallel_reduce"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


@dataclass
class ParallelResult:
    """Results of a simulated parallel loop plus its timing."""

    values: list
    timing: PhaseTiming


def parallel_map(
    scheduler: SimScheduler,
    items: Sequence[ItemT] | Iterable[ItemT],
    body: Callable[[ItemT, TaskCost], ResultT],
    *,
    workers: int | None = None,
    grain: int | None = None,
    name: str = "parallel_for",
) -> ParallelResult:
    """Run ``body`` over ``items`` and simulate the loop on the machine.

    Parameters
    ----------
    body:
        Called as ``body(item, cost)``; performs the real computation and
        accumulates the virtual resources it used into ``cost``. Its return
        values are collected in input order.
    workers:
        Simulated thread count; defaults to all machine cores.
    grain:
        Items per scheduled chunk; defaults to :func:`auto_grain`.
    """
    items = list(items)
    T = scheduler.machine.effective_workers(workers)
    if grain is None:
        grain = auto_grain(len(items), T)
    if grain < 1:
        raise ConfigurationError(f"grain must be >= 1, got {grain}")

    values: list[ResultT] = []
    chunk_costs: list[TaskCost] = []
    for start in range(0, len(items), grain):
        cost = TaskCost()
        for item in items[start : start + grain]:
            values.append(body(item, cost))
        chunk_costs.append(cost)

    timing = scheduler.simulate_phase(chunk_costs, workers=T, name=name)
    return ParallelResult(values=values, timing=timing)


def parallel_reduce(
    scheduler: SimScheduler,
    items: Sequence,
    combine: Callable[[Any, Any, TaskCost], Any],
    *,
    workers: int | None = None,
    name: str = "reduce",
) -> ParallelResult:
    """Tree-reduce ``items`` with a metered combine function.

    ``combine(left, right, cost)`` merges two partial results, charging
    its work into ``cost``. Each reduction level runs as one simulated
    phase (its merges are mutually independent), so the returned timing
    reflects the log-depth critical path — the schedule a parallel
    runtime's reduction would follow.

    Returns a :class:`ParallelResult` whose ``values`` holds the single
    reduced value (or ``[]`` for empty input) and whose ``timing`` is the
    *last* level's phase; intermediate level timings are summed into it.
    """
    items = list(items)
    T = scheduler.machine.effective_workers(workers)
    if not items:
        return ParallelResult(values=[], timing=scheduler.simulate_phase([], name=name))
    level = items
    merged_timing = None
    while len(level) > 1:
        next_level = []
        level_costs = []
        for at in range(0, len(level) - 1, 2):
            cost = TaskCost()
            next_level.append(combine(level[at], level[at + 1], cost))
            level_costs.append(cost)
        if len(level) % 2:
            next_level.append(level[-1])
        timing = scheduler.simulate_phase(level_costs, workers=T, name=name)
        if merged_timing is None:
            merged_timing = timing
        else:
            merged_timing = PhaseTiming(
                name=name,
                elapsed_s=merged_timing.elapsed_s + timing.elapsed_s,
                workers=T,
                n_tasks=merged_timing.n_tasks + timing.n_tasks,
                totals=merged_timing.totals + timing.totals,
                bounds=merged_timing.bounds,
                bottleneck=timing.bottleneck,
                busy_s=merged_timing.busy_s + timing.busy_s,
            )
        level = next_level
    if merged_timing is None:
        merged_timing = scheduler.simulate_phase([], name=name)
    return ParallelResult(values=[level[0]], timing=merged_timing)
