"""Workflow fusion rewriter (optimization 3).

Fusion turns file edges into memory edges — "creating single binaries that
encapsulate a complex workflow" (paper §1, §3.3) — eliding the
serialize/write/read/parse round trip on each rewritten edge. The
rewriter works on any workflow graph and reports what it changed, so the
planner can weigh the saved I/O against the increased peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.machine import MachineSpec
from repro.sim.workflow import FILE, MEMORY, Edge, Workflow

__all__ = ["FusionReport", "fuse_workflow", "estimate_edge_round_trip"]


@dataclass(frozen=True)
class FusionReport:
    """What a fusion pass did."""

    workflow: str
    fused_edges: tuple[str, ...]

    @property
    def n_fused(self) -> int:
        return len(self.fused_edges)


def fuse_workflow(workflow: Workflow, edges: list[Edge] | None = None) -> FusionReport:
    """Rewrite file edges of ``workflow`` to memory edges, in place.

    ``edges`` limits the rewrite to the given edges (they must belong to
    the workflow); by default every file edge is fused.
    """
    targets = edges if edges is not None else workflow.file_edges()
    fused = []
    for edge in targets:
        if edge not in workflow.edges:
            raise ValueError(f"edge {edge.key} does not belong to {workflow.name!r}")
        if edge.materialize == FILE:
            edge.materialize = MEMORY
            fused.append(edge.key)
    return FusionReport(workflow=workflow.name, fused_edges=tuple(fused))


def estimate_edge_round_trip(
    intermediate_bytes: float,
    machine: MachineSpec,
    serialize_ns_per_byte: float,
    parse_ns_per_byte: float,
) -> float:
    """Virtual seconds a file edge costs: serialize + write + read + parse.

    All four parts run serially on one thread (the ARFF format does not
    facilitate parallel I/O), so the estimate is a plain sum — this is the
    quantity fusion saves, and it does *not* shrink with added threads,
    which is why fusion matters more at high thread counts (Figure 3:
    +36.9% at 1 thread but 3.84x at 16).
    """
    cpu = intermediate_bytes * (serialize_ns_per_byte + parse_ns_per_byte) * 1e-9
    io = intermediate_bytes / machine.disk_write_bw + (
        intermediate_bytes / machine.disk_read_bw
    )
    return cpu + io + 2 * machine.disk_latency_s
