"""Full-phase payloads: each fact stored once, and a misfit is a miss.

The transform entry holds arrays only: the CSR triple, the word-count
block's ``min_df`` mask and one ``float64`` idf array. A warm hit
rebuilds the vocabulary from the served block's own term strings. An
entry that does not fit — a missing field, a failed shape check, a
payload in an older schema — is deleted and recomputed, never a crash.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import PipelineCache
from repro.core.pipeline import output_digest, run_pipeline
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text import MIX_PROFILE, generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=11)


def _run(docs, cache=None, min_df=1):
    return run_pipeline(
        docs,
        tfidf=TfIdfOperator(min_df=min_df),
        kmeans=KMeansOperator(max_iters=3),
        cache=cache,
    )


def _session(cache, docs, min_df=1):
    return cache.begin_run(
        docs, TfIdfOperator(min_df=min_df), KMeansOperator(max_iters=3)
    )


def _lists_of_scalars(value, path="entry"):
    """Paths of every list or tuple in ``value`` holding a str or float."""
    found = []
    if isinstance(value, dict):
        for key, item in value.items():
            found += _lists_of_scalars(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        if any(isinstance(item, (str, float)) for item in value):
            found.append(path)
        for at, item in enumerate(value):
            found += _lists_of_scalars(item, f"{path}[{at}]")
    return found


class TestFormatGuard:
    @pytest.mark.parametrize("min_df", [1, 2])
    def test_transform_entry_holds_arrays_not_lists(
        self, corpus, tmp_path, min_df
    ):
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache, min_df=min_df)
        payload, _, _ = cache.store.get(_session(cache, corpus, min_df).tr_key)
        assert _lists_of_scalars(payload) == []
        assert payload["kept"].dtype == np.bool_
        assert payload["idf"].dtype == np.float64
        assert int(payload["kept"].sum()) == payload["n_cols"]

    @pytest.mark.parametrize("min_df", [1, 2])
    def test_warm_vocabulary_is_the_served_blocks_own_strings(
        self, corpus, tmp_path, min_df
    ):
        reference = _run(corpus, min_df=min_df)
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache, min_df=min_df)
        warm = _run(corpus, cache=cache, min_df=min_df)
        assert warm.cache["hits"] == 3
        assert warm.tfidf.vocabulary == reference.tfidf.vocabulary
        assert warm.tfidf.idf == reference.tfidf.idf
        assert all(type(value) is float for value in warm.tfidf.idf)
        terms = {id(term) for term in warm.tfidf.wordcount.block.terms}
        assert all(id(term) in terms for term in warm.tfidf.vocabulary)

    def test_word_count_entry_is_the_block_alone(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        cold = _run(corpus, cache=cache)
        payload, _, _ = cache.store.get(_session(cache, corpus).wc_key)
        assert type(payload) is type(cold.tfidf.wordcount.block)
        warm = _run(corpus, cache=cache)
        assert warm.tfidf.wordcount.paths == cold.tfidf.wordcount.paths
        assert (
            warm.tfidf.wordcount.input_bytes
            == cold.tfidf.wordcount.input_bytes
        )


def _old_schema_transform(result):
    indptr, indices, data = result.tfidf.matrix.as_arrays()
    return {
        "indptr": indptr, "indices": indices.astype(np.int32), "data": data,
        "n_cols": result.tfidf.matrix.n_cols,
        "vocabulary": list(result.tfidf.vocabulary),
        "idf": list(result.tfidf.idf),
    }


def _stale_mask_transform(result):
    payload = _old_schema_transform(result)
    n_cols = payload["n_cols"]
    payload.update(
        kept=np.ones(n_cols + 1, dtype=bool),
        idf=np.zeros(n_cols, dtype=np.float64),
    )
    return payload


def _old_schema_wordcount(result):
    wc = result.tfidf.wordcount
    return {"paths": list(wc.paths), "block": wc.block,
            "input_bytes": wc.input_bytes}


def _list_mask_transform(result):
    payload = _stale_mask_transform(result)
    payload.update(kept=[True] * len(result.tfidf.wordcount.block.terms))
    return payload


_MALFORMED = {
    "wc": [
        ("wrong shape", lambda result: {"indptr": None}),
        ("old schema", _old_schema_wordcount),
    ],
    "tr": [
        ("wrong shape", lambda result: {"indptr": None}),
        ("old schema", _old_schema_transform),
        ("stale mask", _stale_mask_transform),
        ("list mask", _list_mask_transform),
    ],
    "km": [
        ("wrong shape", lambda result: {"indptr": None}),
        ("wrong length", lambda result: {"assignments": [0]}),
    ],
}
_PHASE = {"wc": "input+wc", "tr": "transform", "km": "kmeans"}


class TestMalformedEntries:
    @pytest.mark.parametrize(
        "kind,label,make",
        [
            (kind, label, make)
            for kind, cases in _MALFORMED.items()
            for label, make in cases
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_misfit_entry_is_a_miss_and_recomputed(
        self, corpus, tmp_path, kind, label, make
    ):
        cache = PipelineCache(str(tmp_path / "cache"))
        cold = _run(corpus, cache=cache)
        key = getattr(_session(cache, corpus), f"{kind}_key")
        cache.store.put(key, make(cold))

        served = _run(corpus, cache=cache)
        phase = _PHASE[kind]
        assert served.cache["phases"][phase]["misses"] == 1, label
        assert served.cache["hits"] == 2
        assert output_digest(served) == output_digest(cold)
        assert served.tfidf.vocabulary == cold.tfidf.vocabulary
        assert served.tfidf.idf == cold.tfidf.idf
        # The misfit was replaced: the next run is served whole.
        assert _run(corpus, cache=cache).cache["hits"] == 3


    def test_a_bug_in_a_serve_helper_is_not_a_miss(
        self, corpus, tmp_path, monkeypatch
    ):
        from repro.cache.pipeline_cache import RunCacheSession

        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)

        def broken(self, payload):
            raise AttributeError("renamed field")

        monkeypatch.setattr(RunCacheSession, "_serve_kmeans", broken)
        with pytest.raises(AttributeError, match="renamed field"):
            _run(corpus, cache=cache)
        assert _session(cache, corpus).km_key in cache.store


class TestTiledManifest:
    BUDGET = 50_000  # bytes: the transform spills to tiles

    def _run(self, docs, cache):
        result = run_pipeline(
            docs, tfidf=TfIdfOperator(), kmeans=KMeansOperator(max_iters=3),
            cache=cache, memory_budget=self.BUDGET,
        )
        digest = output_digest(result)
        result.tfidf.matrix.close()
        return result, digest

    def test_manifest_holds_the_mask_and_one_idf_array(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        self._run(corpus, cache)
        key = _session(cache, corpus).tr_tiled_key
        payload, _, _ = cache.store.get(key)
        assert payload["kept"].dtype == np.bool_
        assert payload["idf"].dtype == np.float64
        assert "vocabulary" not in payload
        assert not any(
            isinstance(item, float)
            for value in payload.values() if isinstance(value, list)
            for item in value
        )

    def test_old_schema_manifest_is_a_miss(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        cold, digest = self._run(corpus, cache)
        key = _session(cache, corpus).tr_tiled_key
        payload, _, _ = cache.store.get(key)
        old = {k: v for k, v in payload.items() if k not in ("kept", "idf")}
        old.update(vocabulary=list(cold.tfidf.vocabulary),
                   idf=list(cold.tfidf.idf))
        cache.store.put(key, old)

        served, served_digest = self._run(corpus, cache)
        assert served.cache["phases"]["transform"]["misses"] == 1
        assert served_digest == digest
        assert served.tfidf.vocabulary == cold.tfidf.vocabulary
        assert served.tfidf.idf == cold.tfidf.idf
        healed, healed_digest = self._run(corpus, cache)
        assert healed.cache["hits"] == 3 and healed_digest == digest
