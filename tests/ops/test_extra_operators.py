"""Tests for the extension operators: top-k terms, k-NN, MinHash.

The operators live in ``examples/text_ops``, beside their one example.
"""

import os
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dicts import make_dict
from repro.errors import OperatorError
from repro.exec import TaskCost
from repro.ops import TfIdfOperator
from repro.sim import SimScheduler, paper_node
from repro.sparse import CsrMatrix, SparseVector
from repro.text import Corpus, Tokenizer

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "examples")
)
from text_ops.knn import KnnClassifier  # noqa: E402
from text_ops.minhash import MinHasher, shingles  # noqa: E402
from text_ops.topk import TopTermsOp, top_k_terms  # noqa: E402


class TestTopK:
    def counts(self, kind="map"):
        d = make_dict(kind)
        for term, count in [("apple", 5), ("pear", 3), ("fig", 7), ("plum", 3)]:
            d.put(term, count)
        return d

    def test_ranking(self):
        ranked = top_k_terms(self.counts(), k=2)
        assert [(t.term, t.count) for t in ranked] == [("fig", 7), ("apple", 5)]

    def test_ties_resolve_lexicographically(self):
        ranked = top_k_terms(self.counts(), k=4)
        assert [(t.term, t.count) for t in ranked] == [
            ("fig", 7),
            ("apple", 5),
            ("pear", 3),
            ("plum", 3),
        ]

    def test_k_larger_than_vocabulary(self):
        assert len(top_k_terms(self.counts(), k=100)) == 4

    def test_invalid_k(self):
        with pytest.raises(OperatorError):
            top_k_terms(self.counts(), k=0)

    def test_same_result_across_dict_kinds(self):
        results = [
            [(t.term, t.count) for t in top_k_terms(self.counts(kind), k=3)]
            for kind in ("map", "unordered_map", "btree", "dict")
        ]
        assert all(r == results[0] for r in results)

    def test_cost_metered(self):
        cost = TaskCost()
        top_k_terms(self.counts(), k=2, cost=cost)
        assert cost.cpu_s > 0

    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(1, 50),
                           min_size=1, max_size=40), st.integers(1, 10))
    def test_matches_full_sort(self, counts, k):
        d = make_dict("map")
        for term, count in counts.items():
            d.put(term, count)
        ranked = [(t.count, t.term) for t in top_k_terms(d, k=k)]
        expected = sorted(
            ((c, t) for t, c in counts.items()),
            key=lambda pair: (-pair[0], pair[1]),
        )[:k]
        assert ranked == [(c, t) for c, t in expected]

    def test_workflow_op_fan_out(self, stored_corpus, scheduler):
        """TopTermsOp consumes the same scores port as k-means (fan-out)."""
        from repro.sim import Workflow
        from repro.sim.operator import KMeansOp, TfIdfOp

        storage, _ = stored_corpus
        wf = Workflow("fanout")
        wf.add(TfIdfOp())
        wf.add(KMeansOp(n_clusters=3, max_iters=3, output_path=None))
        wf.add(TopTermsOp(k=5))
        wf.connect("tfidf", "scores", "kmeans", "scores")
        wf.connect("tfidf", "scores", "topk", "scores")
        result = wf.run(
            scheduler, storage, inputs={"tfidf.corpus_prefix": "in/"}, workers=4
        )
        top = result.value("topk.top_terms")
        assert len(top) == 5
        assert all(a.count >= b.count for a, b in zip(top, top[1:]))
        assert "topk" in result.breakdown()


class TestKnn:
    def labelled_matrix(self):
        rows = [
            SparseVector([0, 1], [0.8, 0.6]),
            SparseVector([0, 1], [0.6, 0.8]),
            SparseVector([2, 3], [0.8, 0.6]),
            SparseVector([2, 3], [0.6, 0.8]),
        ]
        return CsrMatrix.from_rows(rows, n_cols=4), ["a", "a", "b", "b"]

    def test_predicts_nearest_class(self):
        matrix, labels = self.labelled_matrix()
        clf = KnnClassifier(k=2).fit(matrix, labels)
        assert clf.predict(SparseVector([0, 1], [0.7, 0.7])) == "a"
        assert clf.predict(SparseVector([2, 3], [0.7, 0.7])) == "b"

    def test_neighbors_sorted_by_similarity(self):
        matrix, labels = self.labelled_matrix()
        clf = KnnClassifier(k=4).fit(matrix, labels)
        neighbors = clf.neighbors(SparseVector([0], [1.0]))
        sims = [n.similarity for n in neighbors]
        assert sims == sorted(sims, reverse=True)
        assert neighbors[0].label == "a"

    def test_unfitted_raises(self):
        with pytest.raises(OperatorError):
            KnnClassifier().predict(SparseVector([0], [1.0]))

    def test_label_count_mismatch(self):
        matrix, _ = self.labelled_matrix()
        with pytest.raises(OperatorError):
            KnnClassifier().fit(matrix, ["only-one"])

    def test_invalid_k(self):
        with pytest.raises(OperatorError):
            KnnClassifier(k=0)

    def test_predict_many_with_simulation(self):
        matrix, labels = self.labelled_matrix()
        clf = KnnClassifier(k=1).fit(matrix, labels)
        predictions = clf.predict_many(
            matrix, scheduler=SimScheduler(paper_node(4)), workers=4
        )
        assert predictions == labels  # each point is its own neighbour

    def test_classifies_real_tfidf_topics(self, tiny_corpus):
        """End-to-end: train on 8 docs, classify the remaining 2."""
        result = TfIdfOperator(min_df=1).fit_transform(tiny_corpus)
        labels = ["animals"] * 4 + ["places"] * 6
        train_rows = [result.matrix.row(i) for i in range(8)]
        train = CsrMatrix.from_rows(train_rows, n_cols=result.matrix.n_cols)
        clf = KnnClassifier(k=3).fit(train, labels[:8])
        prediction = clf.predict(result.matrix.row(8))
        assert prediction in {"animals", "places"}


class TestMinHash:
    def test_shingles(self):
        assert shingles(["a", "b", "c", "d"], width=3) == {"a b c", "b c d"}
        assert shingles(["a"], width=3) == {"a"}
        assert shingles([], width=3) == set()
        with pytest.raises(OperatorError):
            shingles(["a"], width=0)

    def test_identical_documents_have_identical_signatures(self):
        hasher = MinHasher(num_hashes=32, bands=8)
        tokens = "the quick brown fox jumps over the lazy dog".split()
        assert hasher.signature(tokens) == hasher.signature(list(tokens))

    def test_similarity_bounds(self):
        hasher = MinHasher(num_hashes=32, bands=8)
        a = hasher.signature("alpha beta gamma delta epsilon zeta".split())
        b = hasher.signature("one two three four five six seven".split())
        sim_self = MinHasher.estimate_similarity(a, a)
        sim_other = MinHasher.estimate_similarity(a, b)
        assert sim_self == 1.0
        assert 0.0 <= sim_other < 0.5

    def test_mismatched_signature_lengths(self):
        with pytest.raises(OperatorError):
            MinHasher.estimate_similarity((1, 2), (1, 2, 3))

    def test_invalid_parameters(self):
        with pytest.raises(OperatorError):
            MinHasher(num_hashes=0)
        with pytest.raises(OperatorError):
            MinHasher(num_hashes=10, bands=3)  # not divisible

    def test_finds_near_duplicates(self):
        base = ("data analytics operators require careful design and must be "
                "highly optimized to achieve low processing times on modern "
                "parallel hardware with many cores and deep memory systems").split()
        near = list(base)
        near[5] = "thoughtful"  # one token changed
        distinct = ("completely different text about cooking pasta with basil "
                    "garlic tomatoes and slowly simmered sauce for dinner").split()
        streams = [base, near, distinct]
        pairs = MinHasher(num_hashes=64, bands=16, seed=1).find_duplicates(
            streams, threshold=0.5
        )
        assert any({p.left, p.right} == {0, 1} for p in pairs)
        assert not any(2 in (p.left, p.right) for p in pairs)

    def test_duplicates_with_simulation(self):
        streams = [["a", "b", "c", "d"]] * 3
        hasher = MinHasher(num_hashes=16, bands=4)
        pairs = hasher.find_duplicates(
            streams, scheduler=SimScheduler(paper_node(4)), workers=4
        )
        assert {(p.left, p.right) for p in pairs} == {(0, 1), (0, 2), (1, 2)}
        assert all(p.similarity == 1.0 for p in pairs)

    def test_threshold_validation(self):
        with pytest.raises(OperatorError):
            MinHasher().find_duplicates([["a"]], threshold=1.5)

    def test_corpus_dedup_end_to_end(self):
        """Realistic flow: tokenize a corpus, dedup, keep representatives."""
        tokenizer = Tokenizer()
        texts = [
            "The committee approved the annual budget for the research program",
            "The committee approved the annual budget for the research programme",
            "Bake the bread in a hot oven until the crust turns golden brown",
        ]
        corpus = Corpus.from_texts("dedup", texts)
        streams = [tokenizer.tokens(doc.text) for doc in corpus]
        pairs = MinHasher(num_hashes=64, bands=32, shingle_width=2).find_duplicates(
            streams, threshold=0.6
        )
        assert [(p.left, p.right) for p in pairs] == [(0, 1)]
