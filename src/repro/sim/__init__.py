"""The simulator: the paper's node in virtual time.

The paper's experiments sweep thread counts on a 16-core Cilkplus node.
This package reproduces that environment deterministically on any host
(PAPER.md's substitution table) and regenerates every figure and table:

1. intra-node parallelism — a machine model (:mod:`~repro.sim.machine`)
   and a greedy chunk scheduler with device rooflines
   (:mod:`~repro.sim.scheduler`), ``parallel_map``/``parallel_reduce``,
   timelines and ASCII schedule traces;
2. parallel input — per-document file reads ride inside the scheduled
   tasks;
3. workflow fusion — :mod:`~repro.sim.fusion` rewrites file edges of a
   :class:`~repro.sim.workflow.Workflow` into in-memory edges;
4. data-structure selection — the operators' dictionary-driven runs
   (:mod:`~repro.sim.operators`, over :mod:`repro.dicts`) take a
   dictionary kind per phase, and :mod:`~repro.sim.planner` picks one.

The simulator runs the engine's operator objects (:mod:`repro.ops`); the
engine never imports this package.
"""

from repro.sim.baselines import SimpleKMeansBaseline
from repro.sim.cost_model import (
    DEFAULT_COSTS,
    UNIT_SCALE,
    CostConstants,
    WorkloadScale,
    amdahl_speedup,
    roofline_cap,
)
from repro.sim.fusion import FusionReport, estimate_edge_round_trip, fuse_workflow
from repro.sim.machine import MachineSpec, fast_ssd_node, paper_node
from repro.sim.metrics import Timeline, WorkSpan, self_relative_speedups, work_span
from repro.sim.operator import (
    ArffScoresMaterializer,
    KMeansOp,
    Materializer,
    ScoreMatrix,
    TfIdfOp,
    WorkflowContext,
    WorkflowOp,
)
from repro.sim.operators import (
    KMEANS_GRAIN_DOCS,
    SimConfig,
    SimKMeansResult,
    SimTfIdfResult,
    SimWordCountResult,
    run_kmeans,
    run_tfidf,
    run_wordcount,
)
from repro.sim.parallel import ParallelResult, parallel_map, parallel_reduce
from repro.sim.planner import Plan, PlanConfig, PlanEstimate, WorkflowPlanner
from repro.sim.report import (
    format_breakdown_table,
    format_comparison_rows,
    format_speedup_table,
    series_to_csv,
)
from repro.sim.scheduler import PhaseTiming, SimScheduler
from repro.sim.trace import phase_timings, render_phase_trace, render_timeline_trace
from repro.sim.workflow import (
    Edge,
    Workflow,
    WorkflowResult,
    build_tfidf_kmeans_workflow,
)

__all__ = [
    # machine and scheduling
    "MachineSpec",
    "paper_node",
    "fast_ssd_node",
    "SimScheduler",
    "PhaseTiming",
    "parallel_map",
    "parallel_reduce",
    "ParallelResult",
    "Timeline",
    "WorkSpan",
    "work_span",
    "self_relative_speedups",
    "render_phase_trace",
    "render_timeline_trace",
    "phase_timings",
    # cost model
    "CostConstants",
    "DEFAULT_COSTS",
    "WorkloadScale",
    "UNIT_SCALE",
    "amdahl_speedup",
    "roofline_cap",
    # operators
    "SimConfig",
    "KMEANS_GRAIN_DOCS",
    "SimWordCountResult",
    "SimTfIdfResult",
    "SimKMeansResult",
    "run_wordcount",
    "run_tfidf",
    "run_kmeans",
    "SimpleKMeansBaseline",
    # workflows
    "Workflow",
    "WorkflowResult",
    "Edge",
    "build_tfidf_kmeans_workflow",
    "WorkflowOp",
    "WorkflowContext",
    "TfIdfOp",
    "KMeansOp",
    "ScoreMatrix",
    "Materializer",
    "ArffScoresMaterializer",
    "fuse_workflow",
    "FusionReport",
    "estimate_edge_round_trip",
    "WorkflowPlanner",
    "Plan",
    "PlanConfig",
    "PlanEstimate",
    "format_speedup_table",
    "format_breakdown_table",
    "series_to_csv",
    "format_comparison_rows",
]
