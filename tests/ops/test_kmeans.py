"""Tests for the sparse K-means operator."""

import pytest

from repro.errors import OperatorError
from repro.ops import KMeansOperator, TfIdfOperator
from repro.sim import SimConfig, SimScheduler, WorkloadScale, paper_node
from repro.sim.operators import run_kmeans
from repro.sparse import CsrMatrix, SparseVector


def two_blob_matrix():
    """Twelve points in two obvious clusters over 4 dimensions."""
    rows = []
    for i in range(6):
        rows.append(SparseVector([0, 1], [1.0 + 0.01 * i, 1.0]))
    for i in range(6):
        rows.append(SparseVector([2, 3], [1.0, 1.0 + 0.01 * i]))
    return CsrMatrix.from_rows(rows, n_cols=4)


class TestClusteringQuality:
    def test_two_blobs_separate(self):
        result = KMeansOperator(n_clusters=2, max_iters=20, seed=0).fit(
            two_blob_matrix()
        )
        first = set(result.assignments[:6])
        second = set(result.assignments[6:])
        assert len(first) == 1
        assert len(second) == 1
        assert first != second

    def test_converges_on_stable_data(self):
        result = KMeansOperator(n_clusters=2, max_iters=50).fit(two_blob_matrix())
        assert result.converged
        assert result.n_iters < 50

    def test_cluster_sizes_sum_to_docs(self, tiny_corpus):
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        result = KMeansOperator(n_clusters=3, max_iters=10).fit(matrix)
        assert sum(result.cluster_sizes()) == matrix.n_rows

    def test_inertia_non_negative(self, tiny_corpus):
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        result = KMeansOperator(n_clusters=3).fit(matrix)
        assert result.inertia >= 0.0

    def test_deterministic_given_seed(self, tiny_corpus):
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        a = KMeansOperator(n_clusters=3, seed=1).fit(matrix)
        b = KMeansOperator(n_clusters=3, seed=1).fit(matrix)
        assert a.assignments == b.assignments

    def test_too_few_documents_raises(self):
        matrix = CsrMatrix.from_rows([SparseVector([0], [1.0])], n_cols=1)
        with pytest.raises(OperatorError):
            KMeansOperator(n_clusters=8).fit(matrix)

    def test_invalid_parameters(self):
        with pytest.raises(OperatorError):
            KMeansOperator(n_clusters=0)
        with pytest.raises(OperatorError):
            KMeansOperator(max_iters=0)
        with pytest.raises(OperatorError):
            SimConfig(grain_docs=0)


class TestSimulatedExecution:
    def make_matrix(self, tiny_corpus):
        return TfIdfOperator().fit_transform(tiny_corpus).matrix

    def test_assignments_independent_of_workers(self, tiny_corpus):
        matrix = self.make_matrix(tiny_corpus)
        op = KMeansOperator(n_clusters=3, max_iters=10)
        scheduler = SimScheduler(paper_node(16))
        one = run_kmeans(op, scheduler, matrix, workers=1)
        many = run_kmeans(op, scheduler, matrix, workers=16)
        assert one.assignments == many.assignments
        assert one.n_iters == many.n_iters

    def test_virtual_time_decreases_with_workers_given_enough_chunks(
        self, tiny_corpus
    ):
        matrix = self.make_matrix(tiny_corpus)
        # Tiny grain: every document its own chunk, so parallelism helps.
        op = KMeansOperator(n_clusters=3, max_iters=5)
        config = SimConfig(grain_docs=1)
        scheduler = SimScheduler(paper_node(16))
        t1 = run_kmeans(
            op, scheduler, matrix, workers=1, config=config
        ).timeline.total_s
        t8 = run_kmeans(
            op, scheduler, matrix, workers=8, config=config
        ).timeline.total_s
        assert t8 < t1

    def test_fixed_grain_caps_speedup(self, tiny_corpus):
        """The Figure 1 mechanism: few chunks -> bounded speedup."""
        matrix = self.make_matrix(tiny_corpus)  # 10 documents
        # grain 5 docs -> 2 chunks -> speedup can never exceed ~2.
        op = KMeansOperator(n_clusters=3, max_iters=5)
        config = SimConfig(grain_docs=5)
        scheduler = SimScheduler(paper_node(16))
        t1 = run_kmeans(
            op, scheduler, matrix, workers=1, config=config
        ).timeline.total_s
        t16 = run_kmeans(
            op, scheduler, matrix, workers=16, config=config
        ).timeline.total_s
        assert t1 / t16 <= 2.5

    def test_reducer_chain_grows_with_workers(self, tiny_corpus):
        matrix = self.make_matrix(tiny_corpus)
        op = KMeansOperator(n_clusters=3, max_iters=3)
        config = SimConfig(grain_docs=1)
        scheduler = SimScheduler(paper_node(16))
        # Serial phases (merge chains) have workers == 1 and n_tasks == 1.
        result = run_kmeans(op, scheduler, matrix, workers=8, config=config)
        chains = [
            p
            for p in result.timeline.phases
            if p.workers == 1 and p.n_tasks == 1
        ]
        assert chains  # reducer combines happened
        solo = run_kmeans(op, scheduler, matrix, workers=1, config=config)
        solo_chains = [
            p for p in solo.timeline.phases if p.workers == 1 and p.n_tasks == 1
        ]
        assert not solo_chains  # a single view needs no combining

    def test_scale_multiplies_assignment_cost(self, tiny_corpus):
        matrix = self.make_matrix(tiny_corpus)
        scheduler = SimScheduler(paper_node(16))
        op = KMeansOperator(n_clusters=3, max_iters=3)
        unit = run_kmeans(op, scheduler, matrix, workers=1)
        scaled = run_kmeans(
            op, scheduler, matrix, workers=1,
            config=SimConfig(scale=WorkloadScale(doc_factor=10, vocab_factor=1)),
        )
        assert scaled.assignments == unit.assignments
        assert scaled.timeline.total_s > 5 * unit.timeline.total_s

    def test_timeline_phases_named_kmeans(self, tiny_corpus):
        matrix = self.make_matrix(tiny_corpus)
        result = run_kmeans(
            KMeansOperator(n_clusters=3, max_iters=2),
            SimScheduler(paper_node(4)), matrix, workers=4,
        )
        assert set(result.timeline.breakdown()) == {"kmeans"}


class TestRecycling:
    def test_centroids_shape_and_dtype(self, tiny_corpus):
        matrix = TfIdfOperator().fit_transform(tiny_corpus).matrix
        result = KMeansOperator(n_clusters=3).fit(matrix)
        assert result.centroids.shape == (3, matrix.n_cols)
        assert result.n_clusters == 3

    def test_empty_cluster_keeps_previous_centroid(self):
        # 3 identical points, 2 clusters: one cluster ends up empty but the
        # operator must not produce NaNs.
        rows = [SparseVector([0], [1.0]) for _ in range(3)]
        matrix = CsrMatrix.from_rows(rows, n_cols=2)
        result = KMeansOperator(n_clusters=2, max_iters=5).fit(matrix)
        assert not any(
            value != value for row in result.centroids for value in row
        )  # no NaN
