"""Workflow-level operator abstraction.

A :class:`WorkflowOp` wraps an analytics operator so the workflow engine
can execute it, wire its ports to other operators and materialise its
outputs through storage when a workflow runs in *discrete* mode. The
concrete adapters for the paper's workflow (TF/IDF, K-means, and the ARFF
materialiser that connects them) live here too.
"""

from __future__ import annotations

from typing import Any

from repro.errors import WorkflowError
from repro.exec.task import TaskCost
from repro.io.arff import read_sparse_arff, write_sparse_arff
from repro.ops.kmeans import KMeansOperator, KMeansResult
from repro.ops.tfidf import TfIdfOperator
from repro.sim.cost_model import DEFAULT_COSTS, UNIT_SCALE, CostConstants, WorkloadScale
from repro.sim.operators import SimConfig, SimTfIdfResult, run_kmeans, run_tfidf
from repro.sim.ports import Materializer, ScoreMatrix, WorkflowContext, WorkflowOp

__all__ = [
    "WorkflowContext",
    "WorkflowOp",
    "ScoreMatrix",
    "TfIdfOp",
    "KMeansOp",
    "Materializer",
    "ArffScoresMaterializer",
    "PHASE_KMEANS_INPUT",
    "PHASE_OUTPUT",
]

PHASE_KMEANS_INPUT = "kmeans-input"
PHASE_OUTPUT = "output"


class TfIdfOp(WorkflowOp):
    """TF/IDF operator node: corpus prefix in, score matrix out."""

    inputs = ("corpus_prefix",)
    outputs = ("scores",)

    def __init__(
        self,
        name: str = "tfidf",
        wc_dict_kind: str = "map",
        transform_dict_kind: str | None = None,
        reserve: int = 4096,
        costs: CostConstants = DEFAULT_COSTS,
        scale: WorkloadScale = UNIT_SCALE,
    ) -> None:
        self.name = name
        self.operator = TfIdfOperator()
        self.config = SimConfig(
            wc_dict_kind=wc_dict_kind,
            transform_dict_kind=transform_dict_kind,
            reserve=reserve,
            costs=costs,
            scale=scale,
        )
        self.last_result: SimTfIdfResult | None = None

    def execute(self, ctx: WorkflowContext, inputs: dict[str, Any]) -> dict[str, Any]:
        prefix = self._require(inputs, "corpus_prefix")
        result = run_tfidf(
            self.operator, ctx.scheduler, ctx.storage, prefix,
            workers=ctx.workers, config=self.config,
        )
        ctx.timeline.extend(result.timeline)
        ctx.note_allocation(result.resident_bytes())
        self.last_result = result
        return {"scores": ScoreMatrix(result.matrix, result.vocabulary)}

    def release(self, ctx: WorkflowContext) -> None:
        """Free the operator's retained state (dictionaries, matrix)."""
        if self.last_result is not None:
            ctx.note_release(self.last_result.resident_bytes())
            self.last_result = None


class KMeansOp(WorkflowOp):
    """K-means node: score matrix in, clustering out (plus final output)."""

    inputs = ("scores",)
    outputs = ("clusters",)

    def __init__(
        self,
        name: str = "kmeans",
        n_clusters: int = 8,
        max_iters: int = 10,
        seed: int = 0,
        costs: CostConstants = DEFAULT_COSTS,
        output_path: str | None = "clusters.txt",
        scale: WorkloadScale = UNIT_SCALE,
    ) -> None:
        self.name = name
        self.operator = KMeansOperator(
            n_clusters=n_clusters, max_iters=max_iters, seed=seed
        )
        self.config = SimConfig(costs=costs, scale=scale)
        self.output_path = output_path

    def execute(self, ctx: WorkflowContext, inputs: dict[str, Any]) -> dict[str, Any]:
        scores: ScoreMatrix = self._require(inputs, "scores")
        result = run_kmeans(
            self.operator, ctx.scheduler, scores.matrix,
            workers=ctx.workers, config=self.config,
        )
        ctx.timeline.extend(result.timeline)
        if self.output_path is not None:
            self._write_output(ctx, result)
        return {"clusters": result}

    def _write_output(self, ctx: WorkflowContext, result: KMeansResult) -> None:
        """Final result output — serial, like every output phase (§3.2)."""
        lines = [
            f"{doc_id}\t{cluster}"
            for doc_id, cluster in enumerate(result.assignments)
        ]
        document = "\n".join(lines) + "\n"
        costs = self.config.costs
        cost = TaskCost(
            cpu_s=len(document) * costs.arff_serialize_ns_per_byte * 1e-9,
            mem_bytes=len(document) * costs.arff_bytes_per_byte,
        )
        cost.add(ctx.storage.write(self.output_path, document))
        ctx.timeline.add(
            ctx.scheduler.serial_phase(
                cost.scaled(self.config.scale.doc_factor), name=PHASE_OUTPUT
            )
        )


class ArffScoresMaterializer(Materializer):
    """Materialises a :class:`ScoreMatrix` as an ARFF file.

    The write side is the paper's *tfidf-output* phase and the read side is
    *kmeans-input*; both are serial because of the file format, which is
    precisely the overhead workflow fusion removes.
    """

    def __init__(
        self,
        costs: CostConstants = DEFAULT_COSTS,
        scale: WorkloadScale = UNIT_SCALE,
    ) -> None:
        self.costs = costs
        self.scale = scale

    def write(self, ctx: WorkflowContext, value: Any, path: str) -> None:
        if not isinstance(value, ScoreMatrix):
            raise WorkflowError(
                f"ARFF materializer got {type(value).__name__}, wants ScoreMatrix"
            )
        document = write_sparse_arff("tfidf", value.vocabulary, value.matrix.iter_rows())
        cost = TaskCost(
            cpu_s=len(document) * self.costs.arff_serialize_ns_per_byte * 1e-9,
            mem_bytes=len(document) * self.costs.arff_bytes_per_byte,
        )
        cost.add(ctx.storage.write(path, document))
        ctx.timeline.add(
            ctx.scheduler.serial_phase(
                cost.scaled(self.scale.doc_factor), name="tfidf-output"
            )
        )

    def read(self, ctx: WorkflowContext, path: str) -> ScoreMatrix:
        document, read_cost = ctx.storage.read(path)
        cost = TaskCost(
            cpu_s=len(document) * self.costs.arff_parse_ns_per_byte * 1e-9,
            mem_bytes=len(document) * self.costs.arff_bytes_per_byte,
        )
        cost.add(read_cost)
        relation = read_sparse_arff(document)
        ctx.timeline.add(
            ctx.scheduler.serial_phase(
                cost.scaled(self.scale.doc_factor), name=PHASE_KMEANS_INPUT
            )
        )
        payload = ScoreMatrix(relation.rows, relation.attributes)
        ctx.note_allocation(int(payload.resident_bytes() * self.scale.doc_factor))
        return payload
