"""Benchmark harness for the paper figures: the simulator, in virtual time only.

Wall-clock measurement of the real path lives in ``perfbench/``.
"""

from repro.bench.harness import (
    DEFAULT_BENCH_SCALE,
    FIG3_THREADS,
    THREAD_SWEEP,
    Workload,
    prepare_workload,
    run_paper_workflow,
)

__all__ = [
    "Workload",
    "prepare_workload",
    "run_paper_workflow",
    "DEFAULT_BENCH_SCALE",
    "THREAD_SWEEP",
    "FIG3_THREADS",
]
