"""Tests for the corpus model and the synthetic generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, OperatorError
from repro.text import synth
from repro.text import (
    MIX_PROFILE,
    NSF_ABSTRACTS_PROFILE,
    Corpus,
    CorpusProfile,
    Tokenizer,
    generate_corpus,
    generate_document_text,
    heaps_vocabulary,
    synth_word,
)


class TestCorpus:
    def test_add_assigns_sequential_ids(self):
        corpus = Corpus("test")
        a = corpus.add("a.txt", "alpha")
        b = corpus.add("b.txt", "beta")
        assert (a.doc_id, b.doc_id) == (0, 1)
        assert len(corpus) == 2

    def test_from_texts(self):
        corpus = Corpus.from_texts("t", ["one", "two words"])
        assert corpus[1].text == "two words"
        assert corpus.total_bytes == len("one") + len("two words")

    def test_iteration(self):
        corpus = Corpus.from_texts("t", ["a", "b"])
        assert [doc.text for doc in corpus] == ["a", "b"]

    def test_stats(self):
        corpus = Corpus.from_texts("t", ["the cat", "the dog runs"])
        stats = corpus.stats()
        assert stats.documents == 2
        assert stats.total_tokens == 5
        assert stats.distinct_words == 4  # the, cat, dog, runs
        assert stats.mean_tokens_per_doc == 2.5
        assert stats.mean_bytes_per_doc == pytest.approx(
            (len("the cat") + len("the dog runs")) / 2
        )

    def test_stats_of_empty_corpus_raises(self):
        with pytest.raises(OperatorError):
            Corpus("empty").stats()


class TestSynthWord:
    def test_low_ranks_are_common_words(self):
        assert synth_word(0) == "the"

    @given(st.sets(st.integers(0, 500_000), max_size=300))
    def test_injective(self, ranks):
        ranks = sorted(ranks)
        words = [synth_word(r) for r in ranks]
        assert len(set(words)) == len(words)

    def test_negative_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            synth_word(-1)

    def test_memoised_equals_the_plain_function(self):
        plain = synth_word.__wrapped__
        boundary = len(synth._COMMON_WORDS)
        assert 0 < boundary < 5_000  # the range below crosses it
        for _cold_then_cached in range(2):
            assert [synth_word(rank) for rank in range(5_001)] == [
                plain(rank) for rank in range(5_001)
            ]
        assert synth_word(boundary - 1) == synth._COMMON_WORDS[-1]
        assert synth_word(boundary) not in synth._COMMON_WORDS

    def test_words_survive_tokenization(self):
        tokenizer = Tokenizer()
        for rank in (0, 10, 500, 100_000):
            word = synth_word(rank)
            assert tokenizer.tokens(word) == [word]

    def test_length_grows_with_rank(self):
        assert len(synth_word(1_000_000)) > len(synth_word(200))


class TestProfiles:
    def test_paper_profiles_match_table1_extrapolation(self):
        # The Heaps curve is calibrated exactly to Table 1 at full scale.
        assert MIX_PROFILE.expected_vocabulary() == MIX_PROFILE.paper_distinct_words
        assert (
            NSF_ABSTRACTS_PROFILE.expected_vocabulary()
            == NSF_ABSTRACTS_PROFILE.paper_distinct_words
        )

    def test_paper_doc_counts(self):
        assert MIX_PROFILE.n_docs == 23_432
        assert NSF_ABSTRACTS_PROFILE.n_docs == 101_483

    def test_nsf_is_larger_in_every_dimension(self):
        assert NSF_ABSTRACTS_PROFILE.n_docs > MIX_PROFILE.n_docs
        assert NSF_ABSTRACTS_PROFILE.total_tokens > MIX_PROFILE.total_tokens

    def test_scaled_profile(self):
        scaled = MIX_PROFILE.scaled(0.01)
        assert scaled.n_docs == round(MIX_PROFILE.n_docs * 0.01)
        assert scaled.mean_doc_tokens == MIX_PROFILE.mean_doc_tokens
        assert "0.01" in scaled.name

    def test_scale_one_keeps_name(self):
        assert MIX_PROFILE.scaled(1.0).name == MIX_PROFILE.name

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            MIX_PROFILE.scaled(0.0)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            CorpusProfile("bad", n_docs=0, mean_doc_tokens=10, heaps_k=1, heaps_beta=0.5)
        with pytest.raises(ConfigurationError):
            CorpusProfile("bad", n_docs=1, mean_doc_tokens=10, heaps_k=1, heaps_beta=1.5)

    def test_heaps_vocabulary(self):
        assert heaps_vocabulary(10.0, 0.5, 100) == pytest.approx(100.0)
        assert heaps_vocabulary(10.0, 0.5, 0) == 0.0


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        a = generate_document_text(MIX_PROFILE, 7, seed=3)
        b = generate_document_text(MIX_PROFILE, 7, seed=3)
        assert a == b

    def test_different_docs_differ(self):
        assert generate_document_text(MIX_PROFILE, 1) != generate_document_text(
            MIX_PROFILE, 2
        )

    def test_different_seeds_differ(self):
        assert generate_document_text(MIX_PROFILE, 1, seed=0) != generate_document_text(
            MIX_PROFILE, 1, seed=1
        )

    def test_corpus_scale_controls_doc_count(self):
        corpus = generate_corpus(MIX_PROFILE, scale=0.002)
        assert len(corpus) == round(MIX_PROFILE.n_docs * 0.002)

    @settings(deadline=None)
    @given(st.integers(0, 3))
    def test_generated_docs_look_like_table1(self, seed):
        corpus = generate_corpus(MIX_PROFILE, scale=0.002, seed=seed)
        stats = corpus.stats()
        target_bytes_per_doc = MIX_PROFILE.paper_bytes / MIX_PROFILE.paper_documents
        assert stats.mean_bytes_per_doc == pytest.approx(
            target_bytes_per_doc, rel=0.25
        )

    def test_vocabulary_tracks_heaps_curve(self):
        corpus = generate_corpus(MIX_PROFILE, scale=0.005, seed=0)
        stats = corpus.stats()
        expected = MIX_PROFILE.expected_vocabulary(stats.total_tokens)
        assert stats.distinct_words == pytest.approx(expected, rel=0.2)

    def test_vocabulary_grows_sublinearly(self):
        small = generate_corpus(MIX_PROFILE, scale=0.002, seed=0).stats()
        large = generate_corpus(MIX_PROFILE, scale=0.008, seed=0).stats()
        token_ratio = large.total_tokens / small.total_tokens
        vocab_ratio = large.distinct_words / small.distinct_words
        assert 1.0 < vocab_ratio < token_ratio  # Heaps: sublinear growth


class TestTopicMixture:
    def test_off_by_default_and_named_when_on(self):
        assert synth.MIX_PROFILE.n_topics == 0
        topics = synth.with_topics(synth.MIX_PROFILE)
        assert (topics.n_topics, topics.name) == (8, "mix-topics8")
        assert topics.scaled(0.01).n_topics == 8
        with pytest.raises(ConfigurationError):
            synth.with_topics(synth.MIX_PROFILE, -1)

    def test_topics_keep_the_corpus_statistics_close(self):
        plain = generate_corpus(MIX_PROFILE, scale=0.005, seed=3).stats()
        topics = generate_corpus(
            synth.with_topics(MIX_PROFILE), scale=0.005, seed=3
        ).stats()
        assert topics.documents == plain.documents
        assert abs(topics.total_tokens / plain.total_tokens - 1) < 0.05
        assert abs(topics.distinct_words / plain.distinct_words - 1) < 0.1

    def test_a_topic_fit_runs_at_least_five_iterations(self):
        from repro.ops.kmeans import KMeansOperator
        from repro.ops.tfidf import TfIdfOperator

        corpus = generate_corpus(
            synth.with_topics(MIX_PROFILE), scale=0.05, seed=0
        )
        scores = TfIdfOperator().fit_transform(corpus)
        fit = KMeansOperator(n_clusters=8, max_iters=10).fit(scores.matrix)
        assert fit.n_iters >= 5
