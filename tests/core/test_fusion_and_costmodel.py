"""Tests for the fusion rewriter and the analytic cost model."""

import pytest

from repro.sim import (
    amdahl_speedup,
    build_tfidf_kmeans_workflow,
    estimate_edge_round_trip,
    fuse_workflow,
    paper_node,
    roofline_cap,
)
from repro.sim.cost_model import UNIT_SCALE, WorkloadScale

_GB = 1024**3


class TestFusion:
    def test_fuse_discrete_workflow(self):
        wf = build_tfidf_kmeans_workflow(mode="discrete")
        assert len(wf.file_edges()) == 1
        report = fuse_workflow(wf)
        assert report.n_fused == 1
        assert report.fused_edges == ("tfidf.scores->kmeans.scores",)
        assert wf.file_edges() == []

    def test_fuse_merged_workflow_is_noop(self):
        wf = build_tfidf_kmeans_workflow(mode="merged")
        report = fuse_workflow(wf)
        assert report.n_fused == 0

    def test_fused_workflow_runs_without_materialization(
        self, scheduler, small_storage
    ):
        wf = build_tfidf_kmeans_workflow(mode="discrete", max_iters=3)
        fuse_workflow(wf)
        result = wf.run(
            scheduler, small_storage, inputs={"tfidf.corpus_prefix": "in/"}, workers=4
        )
        assert "tfidf-output" not in result.breakdown()

    def test_foreign_edge_rejected(self):
        wf = build_tfidf_kmeans_workflow(mode="discrete")
        other = build_tfidf_kmeans_workflow(mode="discrete")
        with pytest.raises(ValueError):
            fuse_workflow(wf, edges=other.file_edges())

    def test_round_trip_estimate_is_positive_and_monotone(self):
        machine = paper_node()
        small = estimate_edge_round_trip(1e6, machine, 5.0, 10.0)
        large = estimate_edge_round_trip(1e9, machine, 5.0, 10.0)
        assert 0 < small < large

    def test_round_trip_includes_bandwidth_floor(self):
        machine = paper_node()
        estimate = estimate_edge_round_trip(machine.disk_write_bw, machine, 0.0, 0.0)
        # Writing one second's worth of bytes + reading it back.
        assert estimate >= 1.0


class TestAmdahlAndRoofline:
    def test_amdahl_limits(self):
        assert amdahl_speedup(0.0, 16) == pytest.approx(16.0)
        assert amdahl_speedup(1.0, 16) == pytest.approx(1.0)
        assert amdahl_speedup(0.5, 1000) == pytest.approx(2.0, rel=0.01)

    def test_amdahl_validation(self):
        with pytest.raises(ValueError):
            amdahl_speedup(-0.1, 4)
        with pytest.raises(ValueError):
            amdahl_speedup(0.5, 0)

    def test_roofline_cap_ratio(self):
        machine = paper_node()
        # A purely memory-bound phase caps at mem_bw / core_mem_bw.
        cap = roofline_cap(cpu_seconds=0.0, mem_bytes=8 * _GB, machine=machine)
        assert cap == pytest.approx(machine.mem_bw / machine.core_mem_bw)

    def test_roofline_cap_infinite_without_traffic(self):
        assert roofline_cap(1.0, 0.0, paper_node()) == float("inf")

    def test_cpu_bound_phase_caps_higher(self):
        machine = paper_node()
        light = roofline_cap(10.0, 1 * _GB, machine)
        heavy = roofline_cap(10.0, 100 * _GB, machine)
        assert light > heavy


class TestWorkloadScale:
    def test_unit_scale(self):
        assert UNIT_SCALE.doc_factor == 1.0
        assert UNIT_SCALE.vocab_factor == 1.0

    def test_for_corpus(self):
        scale = WorkloadScale.for_corpus(
            full_docs=1000, actual_docs=10, full_vocab=500, actual_vocab=100
        )
        assert scale.doc_factor == 100.0
        assert scale.vocab_factor == 5.0

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            WorkloadScale(doc_factor=0)
        with pytest.raises(ValueError):
            WorkloadScale(vocab_factor=-1)
