"""Tests for the workflow engine and the paper's TF/IDF → K-means graph."""

import pytest

from repro.errors import WorkflowError
from repro.ops import KMeansResult
from repro.sim import (
    ArffScoresMaterializer,
    ScoreMatrix,
    Workflow,
    WorkflowContext,
    WorkflowOp,
    build_tfidf_kmeans_workflow,
)
from repro.sim.workflow import FILE, Edge


class _Const(WorkflowOp):
    """Test operator: emits a constant."""

    inputs = ()
    outputs = ("value",)

    def __init__(self, name, value):
        self.name = name
        self.value = value

    def execute(self, ctx, inputs):
        return {"value": self.value}


class _Add(WorkflowOp):
    inputs = ("left", "right")
    outputs = ("sum",)

    def __init__(self, name="add"):
        self.name = name

    def execute(self, ctx, inputs):
        return {"sum": inputs["left"] + inputs["right"]}


class TestGraphConstruction:
    def test_duplicate_op_rejected(self):
        wf = Workflow("t")
        wf.add(_Const("a", 1))
        with pytest.raises(WorkflowError):
            wf.add(_Const("a", 2))

    def test_connect_unknown_op_rejected(self):
        wf = Workflow("t")
        wf.add(_Const("a", 1))
        with pytest.raises(WorkflowError):
            wf.connect("a", "value", "missing", "left")

    def test_connect_unknown_port_rejected(self):
        wf = Workflow("t")
        wf.add(_Const("a", 1))
        wf.add(_Add("add"))
        with pytest.raises(WorkflowError):
            wf.connect("a", "nope", "add", "left")

    def test_file_edge_requires_materializer(self):
        with pytest.raises(WorkflowError):
            Edge("a", "v", "b", "w", materialize=FILE)

    def test_bad_materialize_value(self):
        with pytest.raises(WorkflowError):
            Edge("a", "v", "b", "w", materialize="pigeon")

    def test_cycle_detected(self):
        wf = Workflow("t")
        wf.add(_Add("x"))
        wf.add(_Add("y"))
        wf.connect("x", "sum", "y", "left")
        wf.connect("y", "sum", "x", "left")
        with pytest.raises(WorkflowError):
            wf.topological_order()

    def test_topological_order(self):
        wf = Workflow("t")
        wf.add(_Add("z"))
        wf.add(_Const("a", 1))
        wf.add(_Const("b", 2))
        wf.connect("a", "value", "z", "left")
        wf.connect("b", "value", "z", "right")
        order = wf.topological_order()
        assert order.index("z") > order.index("a")
        assert order.index("z") > order.index("b")

    def test_unbound_input_detected(self, scheduler, small_storage):
        wf = Workflow("t")
        wf.add(_Add("z"))
        with pytest.raises(WorkflowError):
            wf.run(scheduler, small_storage, inputs={}, workers=1)


class TestGenericExecution:
    def test_values_flow_through_memory_edges(self, scheduler, small_storage):
        wf = Workflow("t")
        wf.add(_Const("a", 4))
        wf.add(_Const("b", 5))
        wf.add(_Add("z"))
        wf.connect("a", "value", "z", "left")
        wf.connect("b", "value", "z", "right")
        result = wf.run(scheduler, small_storage, inputs={}, workers=2)
        assert result.value("z.sum") == 9

    def test_external_input_binding(self, scheduler, small_storage):
        wf = Workflow("t")
        wf.add(_Add("z"))
        result = wf.run(
            scheduler, small_storage, inputs={"z.left": 10, "z.right": 20}
        )
        assert result.value("z.sum") == 30

    def test_missing_output_reported(self, scheduler, small_storage):
        class Broken(_Const):
            def execute(self, ctx, inputs):
                return {}

        wf = Workflow("t")
        wf.add(Broken("a", 1))
        with pytest.raises(WorkflowError):
            wf.run(scheduler, small_storage, inputs={})

    def test_unknown_output_lookup(self, scheduler, small_storage):
        wf = Workflow("t")
        wf.add(_Const("a", 1))
        result = wf.run(scheduler, small_storage, inputs={})
        with pytest.raises(WorkflowError):
            result.value("a.bogus")


class TestPaperWorkflow:
    @pytest.mark.parametrize("mode", ["discrete", "merged"])
    def test_both_modes_produce_clustering(self, mode, scheduler, small_storage):
        wf = build_tfidf_kmeans_workflow(mode=mode, max_iters=5)
        result = wf.run(
            scheduler, small_storage, inputs={"tfidf.corpus_prefix": "in/"}, workers=8
        )
        clusters = result.value("kmeans.clusters")
        assert isinstance(clusters, KMeansResult)
        assert len(clusters.assignments) == 47

    def test_invalid_mode_rejected(self):
        with pytest.raises(WorkflowError):
            build_tfidf_kmeans_workflow(mode="both")

    def test_modes_agree_on_assignments(self, scheduler, small_storage):
        """Fusion must not change results — only timing."""
        results = {}
        for mode in ("discrete", "merged"):
            wf = build_tfidf_kmeans_workflow(mode=mode, max_iters=5)
            results[mode] = wf.run(
                scheduler,
                small_storage,
                inputs={"tfidf.corpus_prefix": "in/"},
                workers=8,
            )
        assert (
            results["discrete"].value("kmeans.clusters").assignments
            == results["merged"].value("kmeans.clusters").assignments
        )

    def test_discrete_has_materialization_phases(self, scheduler, small_storage):
        wf = build_tfidf_kmeans_workflow(mode="discrete", max_iters=3)
        result = wf.run(
            scheduler, small_storage, inputs={"tfidf.corpus_prefix": "in/"}, workers=4
        )
        breakdown = result.breakdown()
        assert "tfidf-output" in breakdown
        assert "kmeans-input" in breakdown
        assert result.file_edges == ["tfidf.scores->kmeans.scores"]

    def test_merged_skips_materialization(self, scheduler, small_storage):
        wf = build_tfidf_kmeans_workflow(mode="merged", max_iters=3)
        result = wf.run(
            scheduler, small_storage, inputs={"tfidf.corpus_prefix": "in/"}, workers=4
        )
        breakdown = result.breakdown()
        assert "tfidf-output" not in breakdown
        assert "kmeans-input" not in breakdown
        assert result.file_edges == []

    def test_discrete_slower_overall(self, scheduler, small_storage):
        """§3.3: dumping intermediates to disk has a high latency."""
        times = {}
        for mode in ("discrete", "merged"):
            wf = build_tfidf_kmeans_workflow(mode=mode, max_iters=3)
            times[mode] = wf.run(
                scheduler,
                small_storage,
                inputs={"tfidf.corpus_prefix": "in/"},
                workers=8,
            ).total_s
        assert times["discrete"] > times["merged"]

    def test_io_penalty_grows_with_threads(self, scheduler, small_storage):
        """§3.3: the relative cost of I/O rises with parallelism."""
        ratios = {}
        for workers in (1, 16):
            times = {}
            for mode in ("discrete", "merged"):
                wf = build_tfidf_kmeans_workflow(mode=mode, max_iters=3)
                times[mode] = wf.run(
                    scheduler,
                    small_storage,
                    inputs={"tfidf.corpus_prefix": "in/"},
                    workers=workers,
                ).total_s
            ratios[workers] = times["discrete"] / times["merged"]
        assert ratios[16] > ratios[1]

    def test_cluster_output_written(self, scheduler, small_storage):
        wf = build_tfidf_kmeans_workflow(mode="merged", max_iters=3)
        wf.run(
            scheduler, small_storage, inputs={"tfidf.corpus_prefix": "in/"}, workers=4
        )
        lines = small_storage.read_data("clusters.txt").strip().splitlines()
        assert len(lines) == 47
        assert all("\t" in line for line in lines)

    def test_peak_memory_tracked(self, scheduler, small_storage):
        wf = build_tfidf_kmeans_workflow(mode="merged", max_iters=3)
        result = wf.run(
            scheduler, small_storage, inputs={"tfidf.corpus_prefix": "in/"}, workers=4
        )
        assert result.peak_resident_bytes > 0


class TestMaterializerValidation:
    def test_wrong_payload_type_rejected(self, scheduler, small_storage):
        materializer = ArffScoresMaterializer()
        ctx = WorkflowContext(
            scheduler=scheduler, storage=small_storage, workers=1
        )
        with pytest.raises(WorkflowError):
            materializer.write(ctx, "not a score matrix", "x.arff")

    def test_roundtrip(self, scheduler, small_storage):
        from repro.sparse import CsrMatrix, SparseVector

        payload = ScoreMatrix(
            CsrMatrix.from_rows([SparseVector([0], [0.5])], n_cols=2),
            ["alpha", "beta"],
        )
        materializer = ArffScoresMaterializer()
        ctx = WorkflowContext(
            scheduler=scheduler, storage=small_storage, workers=1
        )
        materializer.write(ctx, payload, "tmp/test.arff")
        loaded = materializer.read(ctx, "tmp/test.arff")
        assert loaded.vocabulary == payload.vocabulary
        assert list(loaded.matrix.iter_rows()) == list(payload.matrix.iter_rows())
