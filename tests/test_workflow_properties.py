"""Property-based tests over the whole workflow.

The central correctness invariant of the reproduction: simulation
parameters (thread count, execution mode, dictionary kind, workload
scale) may change *timings* but never *results*. Hypothesis drives the
workflow over randomly generated tiny corpora and random configurations.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MemStorage
from repro.ops import KMeansOperator, TfIdfOperator
from repro.sim import SimScheduler, build_tfidf_kmeans_workflow, paper_node
from repro.sim.cost_model import WorkloadScale
from repro.text import Corpus

# Small random documents over a compact vocabulary so clusters exist.
words = st.sampled_from(
    "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
)
documents = st.lists(words, min_size=3, max_size=20).map(" ".join)
corpora = st.lists(documents, min_size=8, max_size=16).map(
    lambda texts: Corpus.from_texts("prop", texts)
)

slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_workflow(corpus, mode, workers, dict_kind="map", scale=None):
    from repro.io import store_corpus

    storage = MemStorage()
    store_corpus(storage, corpus, prefix="in/")
    workflow = build_tfidf_kmeans_workflow(
        mode=mode,
        wc_dict_kind=dict_kind,
        n_clusters=3,
        max_iters=5,
        scale=scale or WorkloadScale(),
    )
    return workflow.run(
        SimScheduler(paper_node(16)),
        storage,
        inputs={"tfidf.corpus_prefix": "in/"},
        workers=workers,
    )


class TestResultInvariance:
    @slow
    @given(corpora, st.integers(1, 16))
    def test_workers_never_change_assignments(self, corpus, workers):
        base = run_workflow(corpus, "merged", 1)
        other = run_workflow(corpus, "merged", workers)
        assert (
            base.value("kmeans.clusters").assignments
            == other.value("kmeans.clusters").assignments
        )

    @slow
    @given(corpora)
    def test_mode_never_changes_assignments(self, corpus):
        merged = run_workflow(corpus, "merged", 8)
        discrete = run_workflow(corpus, "discrete", 8)
        assert (
            merged.value("kmeans.clusters").assignments
            == discrete.value("kmeans.clusters").assignments
        )

    @slow
    @given(corpora, st.sampled_from(["map", "unordered_map", "btree", "dict"]))
    def test_dictionary_kind_never_changes_assignments(self, corpus, kind):
        base = run_workflow(corpus, "merged", 4, dict_kind="map")
        other = run_workflow(corpus, "merged", 4, dict_kind=kind)
        assert (
            base.value("kmeans.clusters").assignments
            == other.value("kmeans.clusters").assignments
        )

    @slow
    @given(
        corpora,
        st.floats(1.5, 500.0),
        st.floats(1.0, 50.0),
    )
    def test_scale_changes_time_monotonically_not_results(
        self, corpus, doc_factor, vocab_factor
    ):
        unit = run_workflow(corpus, "merged", 4)
        scaled = run_workflow(
            corpus,
            "merged",
            4,
            scale=WorkloadScale(doc_factor=doc_factor, vocab_factor=vocab_factor),
        )
        assert (
            unit.value("kmeans.clusters").assignments
            == scaled.value("kmeans.clusters").assignments
        )
        assert scaled.total_s > unit.total_s


class TestTimingInvariants:
    @slow
    @given(corpora)
    def test_discrete_at_least_as_slow(self, corpus):
        merged = run_workflow(corpus, "merged", 8)
        discrete = run_workflow(corpus, "discrete", 8)
        assert discrete.total_s >= merged.total_s

    @slow
    @given(corpora, st.integers(2, 16))
    def test_more_workers_never_slower(self, corpus, workers):
        one = run_workflow(corpus, "merged", 1)
        many = run_workflow(corpus, "merged", workers)
        assert many.total_s <= one.total_s + 1e-9

    @slow
    @given(corpora)
    def test_breakdown_sums_to_total(self, corpus):
        result = run_workflow(corpus, "discrete", 8)
        assert sum(result.breakdown().values()) == pytest.approx(result.total_s)


class TestOperatorProperties:
    @slow
    @given(corpora)
    def test_tfidf_rows_unit_norm_or_all_zero(self, corpus):
        """Rows are unit vectors, except documents made entirely of
        ubiquitous terms (idf = 0 for a term in every document)."""
        result = TfIdfOperator().fit_transform(corpus)
        for row in result.matrix.iter_rows():
            norm = row.norm()
            assert norm == pytest.approx(1.0) or norm == 0.0

    @slow
    @given(corpora, st.integers(2, 4))
    def test_kmeans_inertia_history_non_increasing(self, corpus, k):
        matrix = TfIdfOperator().fit_transform(corpus).matrix
        result = KMeansOperator(n_clusters=k, max_iters=8).fit(matrix)
        history = result.inertia_history
        assert len(history) == result.n_iters
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9
