"""Workflow engine: operator DAGs with per-edge materialization.

The paper contrasts two ways of composing operators (§3.3):

* **discrete** — each operator is its own executable; they communicate by
  dumping intermediates to disk (here: ARFF through a
  :class:`~repro.sim.operator.Materializer`), paying serialization,
  serial I/O and parsing, but freeing each operator's memory as soon as
  its output is on disk;
* **merged** (fused) — operators share one address space and hand results
  over in memory, skipping the round trip entirely but holding both
  operators' state live at once.

An :class:`Edge` of the workflow graph carries that choice, so the same
graph runs in either mode — or in a mix, edge by edge, which is what the
planner exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import WorkflowError
from repro.io.storage import Storage
from repro.sim.cost_model import DEFAULT_COSTS, UNIT_SCALE, CostConstants, WorkloadScale
from repro.sim.metrics import Timeline
from repro.sim.operator import (
    ArffScoresMaterializer,
    KMeansOp,
    Materializer,
    TfIdfOp,
    WorkflowContext,
    WorkflowOp,
)
from repro.sim.scheduler import SimScheduler

__all__ = ["Edge", "Workflow", "WorkflowResult", "build_tfidf_kmeans_workflow"]

MEMORY = "memory"
FILE = "file"


@dataclass
class Edge:
    """A dataflow edge between two operator ports."""

    src: str
    src_port: str
    dst: str
    dst_port: str
    #: ``"memory"`` (fused) or ``"file"`` (discrete).
    materialize: str = MEMORY
    #: Required when ``materialize == "file"``.
    materializer: Materializer | None = None

    def __post_init__(self) -> None:
        if self.materialize not in (MEMORY, FILE):
            raise WorkflowError(
                f"edge materialization must be 'memory' or 'file', "
                f"got {self.materialize!r}"
            )
        if self.materialize == FILE and self.materializer is None:
            raise WorkflowError(
                f"file edge {self.src}.{self.src_port} -> "
                f"{self.dst}.{self.dst_port} needs a materializer"
            )

    @property
    def key(self) -> str:
        return f"{self.src}.{self.src_port}->{self.dst}.{self.dst_port}"


@dataclass
class WorkflowResult:
    """Outcome of one workflow run."""

    #: Output values of every operator, keyed ``"op.port"``.
    outputs: dict[str, Any]
    timeline: Timeline
    #: Modelled peak resident memory during the run.
    peak_resident_bytes: int
    workers: int
    #: Edge keys that were materialised through files.
    file_edges: list[str] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        """Total virtual seconds of the run."""
        return self.timeline.total_s

    def breakdown(self) -> dict[str, float]:
        """Virtual seconds per phase name (the figures' stacking data)."""
        return self.timeline.breakdown()

    def trace(self, width: int = 64, max_phases: int | None = 12) -> str:
        """ASCII Gantt trace of the run's phases (debugging aid)."""
        from repro.sim.trace import render_timeline_trace

        return render_timeline_trace(
            self.timeline, width=width, max_phases=max_phases
        )

    def value(self, ref: str) -> Any:
        """Look up an output by its ``"op.port"`` reference."""
        try:
            return self.outputs[ref]
        except KeyError:
            raise WorkflowError(
                f"no output {ref!r}; available: {sorted(self.outputs)}"
            ) from None


class Workflow:
    """A DAG of :class:`WorkflowOp` nodes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ops: dict[str, WorkflowOp] = {}
        self.edges: list[Edge] = []

    # -- construction ---------------------------------------------------------------

    def add(self, op: WorkflowOp) -> WorkflowOp:
        """Register an operator node; names must be unique."""
        if op.name in self.ops:
            raise WorkflowError(f"duplicate operator name {op.name!r}")
        self.ops[op.name] = op
        return op

    def connect(
        self,
        src: str,
        src_port: str,
        dst: str,
        dst_port: str,
        materialize: str = MEMORY,
        materializer: Materializer | None = None,
    ) -> Edge:
        """Wire ``src.src_port`` to ``dst.dst_port``; ports must exist."""
        for end, port, direction in ((src, src_port, "outputs"), (dst, dst_port, "inputs")):
            if end not in self.ops:
                raise WorkflowError(f"unknown operator {end!r}")
            if port not in getattr(self.ops[end], direction):
                raise WorkflowError(
                    f"operator {end!r} has no {direction[:-1]} port {port!r}"
                )
        edge = Edge(src, src_port, dst, dst_port, materialize, materializer)
        self.edges.append(edge)
        return edge

    # -- analysis --------------------------------------------------------------------

    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises on cycles."""
        incoming = {name: 0 for name in self.ops}
        for edge in self.edges:
            incoming[edge.dst] += 1
        ready = sorted(name for name, count in incoming.items() if count == 0)
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for edge in self.edges:
                if edge.src == name:
                    incoming[edge.dst] -= 1
                    if incoming[edge.dst] == 0:
                        ready.append(edge.dst)
            ready.sort()
        if len(order) != len(self.ops):
            raise WorkflowError(f"workflow {self.name!r} contains a cycle")
        return order

    def file_edges(self) -> list[Edge]:
        """Edges currently materialised through storage (discrete)."""
        return [edge for edge in self.edges if edge.materialize == FILE]

    def describe(self) -> str:
        """Human-readable summary: operators in order, then edges."""
        lines = [f"workflow {self.name!r}:"]
        for name in self.topological_order():
            op = self.ops[name]
            lines.append(
                f"  {name} ({type(op).__name__}): "
                f"in={list(op.inputs)} out={list(op.outputs)}"
            )
        for edge in self.edges:
            arrow = "=[file]=>" if edge.materialize == FILE else "->"
            lines.append(
                f"  {edge.src}.{edge.src_port} {arrow} {edge.dst}.{edge.dst_port}"
            )
        return "\n".join(lines)

    def validate(self, bound_inputs: set[str]) -> None:
        """Check every input port is fed by an edge or an external binding."""
        fed = {f"{e.dst}.{e.dst_port}" for e in self.edges} | bound_inputs
        for name, op in self.ops.items():
            for port in op.inputs:
                if f"{name}.{port}" not in fed:
                    raise WorkflowError(
                        f"input port {name}.{port} is not connected or bound"
                    )
        self.topological_order()

    # -- execution ----------------------------------------------------------------------

    def run(
        self,
        scheduler: SimScheduler,
        storage: Storage,
        inputs: dict[str, Any],
        workers: int | None = None,
        scratch_prefix: str = "tmp/",
    ) -> WorkflowResult:
        """Execute the workflow on the simulated machine.

        ``inputs`` binds external values to ports by ``"op.port"`` key.
        File edges write through their materializer as soon as the producer
        finishes and read back immediately before the consumer runs; after
        a producer's outputs are all on disk, its retained state is
        released (discrete operators are separate processes).
        """
        T = scheduler.machine.effective_workers(workers)
        self.validate(set(inputs))
        ctx = WorkflowContext(
            scheduler=scheduler,
            storage=storage,
            workers=T,
            scratch_prefix=scratch_prefix,
        )

        values: dict[str, Any] = dict(inputs)
        staged_paths: dict[str, str] = {}
        order = self.topological_order()
        consumed_by = {
            name: [e for e in self.edges if e.dst == name] for name in order
        }
        produced_by = {
            name: [e for e in self.edges if e.src == name] for name in order
        }

        for name in order:
            op = self.ops[name]
            # Gather inputs, reading any file-materialised edges now.
            op_inputs: dict[str, Any] = {}
            for port in op.inputs:
                ref = f"{name}.{port}"
                if ref in values:
                    op_inputs[port] = values[ref]
                    continue
                edge = next(
                    e for e in consumed_by[name] if e.dst_port == port
                )
                if edge.materialize == FILE:
                    op_inputs[port] = edge.materializer.read(
                        ctx, staged_paths[edge.key]
                    )
                else:
                    op_inputs[port] = values[f"{edge.src}.{edge.src_port}"]

            produced = op.execute(ctx, op_inputs)
            for port in op.outputs:
                if port not in produced:
                    raise WorkflowError(
                        f"operator {name!r} did not produce port {port!r}"
                    )
                values[f"{name}.{port}"] = produced[port]

            # Stage file edges and release the producer (separate binary).
            out_file_edges = [
                e for e in produced_by[name] if e.materialize == FILE
            ]
            for edge in out_file_edges:
                path = f"{scratch_prefix}{edge.src}.{edge.src_port}.arff"
                edge.materializer.write(
                    ctx, values[f"{edge.src}.{edge.src_port}"], path
                )
                staged_paths[edge.key] = path
            if out_file_edges and len(out_file_edges) == len(produced_by[name]):
                release = getattr(op, "release", None)
                if release is not None:
                    release(ctx)

        return WorkflowResult(
            outputs={
                key: value for key, value in values.items() if "." in key
            },
            timeline=ctx.timeline,
            peak_resident_bytes=ctx.peak_resident_bytes,
            workers=T,
            file_edges=[edge.key for edge in self.file_edges()],
        )


def build_tfidf_kmeans_workflow(
    mode: str = "merged",
    wc_dict_kind: str = "map",
    transform_dict_kind: str | None = None,
    n_clusters: int = 8,
    max_iters: int = 10,
    reserve: int = 4096,
    seed: int = 0,
    costs: CostConstants = DEFAULT_COSTS,
    output_path: str | None = "clusters.txt",
    scale: WorkloadScale = UNIT_SCALE,
) -> Workflow:
    """The paper's workflow: TF/IDF feeding K-means.

    ``mode="discrete"`` stores the TF/IDF scores as an ARFF file between
    the operators; ``mode="merged"`` hands them over in memory (§3.3).
    """
    if mode not in ("discrete", "merged"):
        raise WorkflowError(f"mode must be 'discrete' or 'merged', got {mode!r}")
    workflow = Workflow(f"tfidf-kmeans-{mode}")
    workflow.add(
        TfIdfOp(
            wc_dict_kind=wc_dict_kind,
            transform_dict_kind=transform_dict_kind,
            reserve=reserve,
            costs=costs,
            scale=scale,
        )
    )
    workflow.add(
        KMeansOp(
            n_clusters=n_clusters,
            max_iters=max_iters,
            seed=seed,
            costs=costs,
            output_path=output_path,
            scale=scale,
        )
    )
    if mode == "discrete":
        workflow.connect(
            "tfidf",
            "scores",
            "kmeans",
            "scores",
            materialize=FILE,
            materializer=ArffScoresMaterializer(costs, scale=scale),
        )
    else:
        workflow.connect("tfidf", "scores", "kmeans", "scores")
    return workflow
