"""Tests for the WEKA-style dense baseline."""

import pytest

from repro.errors import OperatorError
from repro.ops import KMeansOperator, TfIdfOperator
from repro.sim import SimScheduler, SimpleKMeansBaseline, paper_node
from repro.sim.operators import run_kmeans
from repro.sparse import CsrMatrix, SparseVector


class TestCorrectness:
    def test_matches_sparse_operator(self, tiny_corpus):
        """Dense and sparse K-means are the same algorithm: identical output."""
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        sparse = KMeansOperator(n_clusters=3, max_iters=10, seed=0).fit(matrix)
        dense = SimpleKMeansBaseline(n_clusters=3, max_iters=10, seed=0).run_simulated(
            SimScheduler(paper_node(1)), matrix
        )
        assert dense.assignments == sparse.assignments
        assert dense.n_iters == sparse.n_iters

    def test_converges(self, tiny_corpus):
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        result = SimpleKMeansBaseline(n_clusters=2, max_iters=30).run_simulated(
            SimScheduler(paper_node(1)), matrix
        )
        assert result.converged

    def test_too_few_docs_raises(self):
        matrix = CsrMatrix.from_rows([SparseVector([0], [1.0])], n_cols=1)
        with pytest.raises(OperatorError):
            SimpleKMeansBaseline(n_clusters=4).run_simulated(
                SimScheduler(paper_node(1)), matrix
            )

    def test_invalid_clusters(self):
        with pytest.raises(OperatorError):
            SimpleKMeansBaseline(n_clusters=0)


class TestCostPathologies:
    def test_baseline_is_serial(self, tiny_corpus):
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        result = SimpleKMeansBaseline(n_clusters=2, max_iters=3).run_simulated(
            SimScheduler(paper_node(16)), matrix
        )
        assert all(p.workers == 1 for p in result.timeline.phases)

    def test_dense_baseline_far_slower_than_sparse(self, tiny_corpus):
        """The §3.1 WEKA contrast: dense-over-vocabulary work dominates.

        The tiny corpus is only ~13% sparse, so the gap here is modest; the
        realistic-sparsity contrast is asserted separately below.
        """
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        scheduler = SimScheduler(paper_node(1))
        sparse = run_kmeans(
            KMeansOperator(n_clusters=2, max_iters=5), scheduler, matrix,
            workers=1,
        )
        dense = SimpleKMeansBaseline(n_clusters=2, max_iters=5).run_simulated(
            scheduler, matrix
        )
        assert dense.timeline.total_s > 2 * sparse.timeline.total_s

    def test_gap_grows_with_sparsity(self):
        """At realistic sparsity (nnz << V) the dense/sparse cost ratio is
        orders of magnitude, matching >2h vs 3.3s."""
        baseline = SimpleKMeansBaseline(n_clusters=8, max_iters=1)
        dense_iter = baseline.iteration_seconds(n_docs=23_432, vocabulary=184_743)
        # Sparse assignment cost for the same workload, from the constants.
        nnz_per_doc = 400
        sparse_iter = (
            23_432 * nnz_per_doc * 8 * baseline.costs.kmeans_flop_ns * 1e-9
        )
        assert dense_iter > 100 * sparse_iter

    def test_iteration_seconds_scales_with_vocabulary(self):
        baseline = SimpleKMeansBaseline(n_clusters=8)
        assert baseline.iteration_seconds(1000, 200_000) == pytest.approx(
            10 * baseline.iteration_seconds(1000, 20_000), rel=1e-6
        )

    def test_projected_full_scale_exceeds_two_hours(self):
        """Paper: WEKA SimpleKMeans on Mix was aborted after 2 hours."""
        baseline = SimpleKMeansBaseline(n_clusters=8, max_iters=10)
        projected = baseline.projected_seconds(n_docs=23_432, vocabulary=184_743)
        assert projected > 2 * 3600

    def test_projection_consistent_with_simulation(self, tiny_corpus):
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        baseline = SimpleKMeansBaseline(n_clusters=2, max_iters=3)
        result = baseline.run_simulated(SimScheduler(paper_node(1)), matrix)
        projected = (
            matrix.n_rows
            * matrix.n_cols
            * baseline.costs.dense_alloc_ns_per_element
            * 1e-9
            + result.n_iters * baseline.iteration_seconds(matrix.n_rows, matrix.n_cols)
        )
        assert result.timeline.total_s == pytest.approx(projected, rel=0.05)
