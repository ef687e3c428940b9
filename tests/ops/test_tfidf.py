"""Tests for the TF/IDF operator."""

import math

import pytest

from repro.errors import OperatorError
from repro.io import read_sparse_arff
from repro.ops import TfIdfOperator
from repro.ops.tfidf import PHASE_TFIDF_OUTPUT, PHASE_TRANSFORM
from repro.ops.wordcount import PHASE_INPUT_WC


class TestFitTransform:
    def test_matrix_shape(self, tiny_corpus):
        result = TfIdfOperator(wc_dict_kind="map").fit_transform(tiny_corpus)
        assert result.matrix.n_rows == len(tiny_corpus)
        assert result.matrix.n_cols == len(result.vocabulary)
        assert len(result.idf) == len(result.vocabulary)

    def test_vocabulary_sorted(self, tiny_corpus):
        result = TfIdfOperator().fit_transform(tiny_corpus)
        assert result.vocabulary == sorted(result.vocabulary)

    def test_rows_are_l2_normalized(self, tiny_corpus):
        result = TfIdfOperator().fit_transform(tiny_corpus)
        for row in result.matrix.iter_rows():
            if row.nnz:
                assert row.norm() == pytest.approx(1.0)

    def test_idf_formula(self, tiny_corpus):
        result = TfIdfOperator().fit_transform(tiny_corpus)
        wc = result.wordcount
        n = wc.n_docs
        df = dict(zip(wc.block.terms, wc.block.df_counts.tolist()))
        for term_id, term in enumerate(result.vocabulary):
            assert result.idf[term_id] == pytest.approx(math.log(n / df[term]))

    def test_ubiquitous_term_scores_zero(self, tiny_corpus):
        """'the' appears in (almost) every tiny document: idf ~ 0."""
        result = TfIdfOperator().fit_transform(tiny_corpus)
        term_id = result.vocabulary.index("the")
        assert result.idf[term_id] < result.idf[result.vocabulary.index("bird")]

    def test_dict_kinds_agree_on_scores(self, tiny_corpus):
        tree = TfIdfOperator(wc_dict_kind="map").fit_transform(tiny_corpus)
        hashed = TfIdfOperator(wc_dict_kind="unordered_map").fit_transform(
            tiny_corpus
        )
        assert tree.vocabulary == hashed.vocabulary
        for a, b in zip(tree.matrix.iter_rows(), hashed.matrix.iter_rows()):
            assert a.indices == b.indices
            for x, y in zip(a.values, b.values):
                assert x == pytest.approx(y)

    def test_mixed_dict_kinds(self, tiny_corpus):
        mixed = TfIdfOperator(
            wc_dict_kind="map", transform_dict_kind="unordered_map"
        ).fit_transform(tiny_corpus)
        uniform = TfIdfOperator(wc_dict_kind="map").fit_transform(tiny_corpus)
        assert mixed.vocabulary == uniform.vocabulary
        assert list(mixed.matrix.iter_rows()) == list(uniform.matrix.iter_rows())


class TestSimulatedRun:
    def test_phases_present(self, stored_corpus, scheduler):
        storage, _ = stored_corpus
        result = TfIdfOperator().run_simulated(
            scheduler, storage, "in/", workers=8, output_path="out.arff"
        )
        breakdown = result.timeline.breakdown()
        assert set(breakdown) == {PHASE_INPUT_WC, PHASE_TRANSFORM, PHASE_TFIDF_OUTPUT}
        assert all(v > 0 for v in breakdown.values())

    def test_no_output_phase_when_fused(self, stored_corpus, scheduler):
        storage, _ = stored_corpus
        result = TfIdfOperator().run_simulated(scheduler, storage, "in/", workers=8)
        assert PHASE_TFIDF_OUTPUT not in result.timeline.breakdown()

    def test_output_phase_is_serial(self, stored_corpus, scheduler):
        storage, _ = stored_corpus
        result = TfIdfOperator().run_simulated(
            scheduler, storage, "in/", workers=16, output_path="out.arff"
        )
        output_phases = [
            p for p in result.timeline.phases if p.name == PHASE_TFIDF_OUTPUT
        ]
        assert all(p.workers == 1 for p in output_phases)

    def test_arff_roundtrip_matches_matrix(self, stored_corpus, scheduler):
        storage, _ = stored_corpus
        result = TfIdfOperator().run_simulated(
            scheduler, storage, "in/", workers=4, output_path="out.arff"
        )
        relation = read_sparse_arff(storage.read_data("out.arff"))
        assert relation.attributes == result.vocabulary
        assert relation.rows.n_rows == result.matrix.n_rows
        first_orig = result.matrix.row(0)
        first_read = relation.rows.row(0)
        assert first_read.indices == first_orig.indices
        for a, b in zip(first_read.values, first_orig.values):
            assert a == pytest.approx(b, rel=1e-4)

    def test_workers_do_not_change_result(self, stored_corpus, scheduler):
        storage, _ = stored_corpus
        one = TfIdfOperator().run_simulated(scheduler, storage, "in/", workers=1)
        many = TfIdfOperator().run_simulated(scheduler, storage, "in/", workers=16)
        assert one.vocabulary == many.vocabulary
        assert list(one.matrix.iter_rows()) == list(many.matrix.iter_rows())

    def test_missing_input_raises(self, scheduler):
        from repro.io import MemStorage

        with pytest.raises(OperatorError):
            TfIdfOperator().run_simulated(scheduler, MemStorage(), "nothing/")

    def test_simulated_matches_functional(self, stored_corpus, scheduler, small_corpus):
        storage, _ = stored_corpus
        simulated = TfIdfOperator().run_simulated(scheduler, storage, "in/")
        functional = TfIdfOperator().fit_transform(small_corpus)
        assert simulated.vocabulary == functional.vocabulary
        assert list(simulated.matrix.iter_rows()) == list(
            functional.matrix.iter_rows()
        )


class TestDataStructureEffects:
    def test_insert_heavy_wc_phase_favours_tree(self, stored_corpus, scheduler):
        """Paper §3.4: input+wc is faster with std::map at one thread."""
        storage, _ = stored_corpus
        tree = TfIdfOperator(wc_dict_kind="map").run_simulated(
            scheduler, storage, "in/", workers=1
        )
        hashed = TfIdfOperator(wc_dict_kind="unordered_map").run_simulated(
            scheduler, storage, "in/", workers=1
        )
        assert tree.timeline.phase_seconds(PHASE_INPUT_WC) < hashed.timeline.phase_seconds(
            PHASE_INPUT_WC
        )

    def test_lookup_heavy_transform_favours_hash_at_one_thread(
        self, stored_corpus, scheduler
    ):
        """Paper §3.4: the transform step is slower with a map on 1 thread."""
        storage, _ = stored_corpus
        tree = TfIdfOperator(wc_dict_kind="map").run_simulated(
            scheduler, storage, "in/", workers=1
        )
        hashed = TfIdfOperator(wc_dict_kind="unordered_map").run_simulated(
            scheduler, storage, "in/", workers=1
        )
        assert hashed.timeline.phase_seconds(
            PHASE_TRANSFORM
        ) < tree.timeline.phase_seconds(PHASE_TRANSFORM)

    def test_memory_contrast(self, stored_corpus, scheduler):
        storage, _ = stored_corpus
        tree = TfIdfOperator(wc_dict_kind="map").run_simulated(
            scheduler, storage, "in/"
        )
        hashed = TfIdfOperator(wc_dict_kind="unordered_map").run_simulated(
            scheduler, storage, "in/"
        )
        assert hashed.resident_bytes() > 10 * tree.resident_bytes()
