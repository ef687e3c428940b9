"""A warm hit reads columns: term strings are made at the output.

The byte kernel's corpus block keeps its term column packed from the
df merge through the cache, and a run's vocabulary and idf are columns
over it (``Vocabulary``, ``Idf``) that make their items on the first
element read. These tests pin that no string exists before a caller
reads one, that the materialized lists equal the eager ones, and that
the store's recency-only flush (atomic, not fsynced) costs nothing but
eviction order when the index is lost.
"""

from __future__ import annotations

import math
import os
from itertools import compress

import numpy as np
import pytest

from repro.cache import PipelineCache
from repro.cache import store as cache_store
from repro.core.pipeline import output_digest, run_pipeline
from repro.io import atomic
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import Idf, TfIdfOperator, Vocabulary
from repro.text import MIX_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer


class _StringKernel(Tokenizer):
    """Overrides ``split``: the word count runs the string kernel."""

    def split(self, text: str) -> list[str]:
        return super().split(text)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=5)


def _run(docs, cache=None, min_df=1, tokenizer=None):
    return run_pipeline(
        docs,
        tfidf=TfIdfOperator(tokenizer=tokenizer, min_df=min_df),
        kmeans=KMeansOperator(max_iters=3),
        cache=cache,
    )


def _eager(block, min_df, n_docs):
    """The vocabulary and idf lists as the operator built them eagerly."""
    counts = block.df_counts
    kept = (counts >= min_df).tolist()
    vocabulary = list(compress(block.terms, kept))
    idf = [
        math.log(n_docs / count)
        for count in compress(counts.tolist(), kept)
    ]
    return vocabulary, idf


class TestNoStringBeforeItIsRead:
    def test_cold_run_merges_and_binds_without_strings(self, corpus):
        result = _run(corpus)
        block = result.tfidf.wordcount.block
        assert block.packed is not None and block._terms is None
        assert isinstance(result.tfidf.vocabulary, Vocabulary)
        assert len(result.tfidf.vocabulary) == result.tfidf.matrix.n_cols
        assert block._terms is None

    def test_warm_hit_leaves_the_served_block_packed(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)
        warm = _run(corpus, cache=cache)
        assert warm.cache["hits"] == 3
        vocabulary, idf = warm.tfidf.vocabulary, warm.tfidf.idf
        block = warm.tfidf.wordcount.block
        assert block.packed is not None and block._terms is None
        assert vocabulary._items is None and idf._items is None
        # Sizes and the idf array read no string and make no list.
        assert len(vocabulary) == len(idf) == warm.tfidf.matrix.n_cols
        assert np.asarray(idf).dtype == np.float64
        assert block._terms is None
        assert vocabulary._items is None and idf._items is None
        # The first element read makes the strings, from the block.
        first = vocabulary[0]
        assert block._terms is not None and first is block.terms[0]

    def test_binding_the_blocks_own_vocabulary_reads_no_string(self, corpus):
        operator = TfIdfOperator()
        wc = operator.wordcount.run(corpus)
        bound = operator.bind(wc, *operator.build_vocabulary(wc))
        assert wc.block._terms is None
        assert bound.gmap.tolist() == list(range(wc.block.n_terms))


@pytest.mark.parametrize("min_df", [1, 3])
@pytest.mark.parametrize("tokenizer", [Tokenizer, _StringKernel])
class TestMaterializedEqualsEager:
    def test_cold_and_warm(self, corpus, tmp_path, min_df, tokenizer):
        cache = PipelineCache(str(tmp_path / "cache"))
        for result in (
            _run(corpus, min_df=min_df, tokenizer=tokenizer()),
            _run(corpus, cache=cache, min_df=min_df, tokenizer=tokenizer()),
            _run(corpus, cache=cache, min_df=min_df, tokenizer=tokenizer()),
        ):
            wc = result.tfidf.wordcount
            vocabulary, idf = _eager(wc.block, min_df, wc.n_docs)
            assert result.tfidf.vocabulary == vocabulary
            assert list(result.tfidf.vocabulary) == vocabulary
            assert result.tfidf.idf == idf
            assert all(type(value) is float for value in result.tfidf.idf)
            assert len(vocabulary) == result.tfidf.matrix.n_cols
        assert result.cache["hits"] == 3

    def test_a_list_vocabulary_binds_like_the_column(
        self, corpus, min_df, tokenizer
    ):
        operator = TfIdfOperator(tokenizer=tokenizer(), min_df=min_df)
        wc = operator.wordcount.run(corpus)
        vocabulary, idf = operator.build_vocabulary(wc)
        by_column = operator.bind(wc, vocabulary, idf)
        by_lookup = operator.bind(wc, list(vocabulary), list(idf))
        assert by_column.gmap.tolist() == by_lookup.gmap.tolist()
        assert by_column.weights.tobytes() == by_lookup.weights.tobytes()


class TestColumnsBehaveAsLists:
    def test_list_surface(self, corpus):
        operator = TfIdfOperator()
        wc = operator.wordcount.run(list(corpus)[:5])
        vocabulary, idf = operator.build_vocabulary(wc)
        terms = list(vocabulary)
        assert isinstance(vocabulary, Vocabulary) and isinstance(idf, Idf)
        assert vocabulary[:2] == terms[:2] and vocabulary[-1] == terms[-1]
        assert vocabulary.index(terms[3]) == 3 and terms[3] in vocabulary
        assert "\0".join(vocabulary) == "\0".join(terms)
        assert vocabulary != terms[:-1] and vocabulary != tuple(terms)
        assert repr(vocabulary) == repr(terms)
        assert idf == idf.weights.tolist()


class TestRecencyOnlyFlush:
    def test_only_entry_changes_are_fsynced(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(atomic.os, "fsync", synced.append)
        store = cache_store.CacheStore(str(tmp_path / "store"))
        store.put("a", [1, 2])
        store.flush()
        assert len(synced) == 1
        assert store.get("a") is not None
        store.flush()  # only the access clock moved
        assert len(synced) == 1
        store.delete("a")
        store.flush()
        assert len(synced) == 2

    def test_lost_recency_flush_rebuilds_and_serves(self, corpus, tmp_path):
        root = str(tmp_path / "cache")
        cold = _run(corpus, cache=PipelineCache(root))
        # A warm run's flush carries recency only; then the index is torn.
        warm = _run(corpus, cache=PipelineCache(root))
        assert warm.cache["hits"] == 3
        index = os.path.join(root, "index.json")
        with open(index, "r+b") as handle:
            handle.truncate(os.path.getsize(index) // 2)
        served = _run(corpus, cache=PipelineCache(root))
        assert served.cache["hits"] == 3 and served.cache["misses"] == 0
        assert output_digest(served) == output_digest(cold)
        assert served.tfidf.vocabulary == cold.tfidf.vocabulary
        assert served.tfidf.idf == cold.tfidf.idf
