"""End-to-end cache equivalence: served results are bit-identical.

The cache's one non-negotiable contract: a run through the cache — warm,
cold, or incremental — produces byte-for-byte the output an uncached run
would, across every backend configuration, including the raw centroid
buffer. Everything here asserts against that contract.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.cache import PipelineCache
from repro.cache import keys as cache_keys
from repro.core.pipeline import output_digest, run_pipeline
from repro.errors import OperatorError
from repro.exec.process import make_backend
from repro.exec.shm import shm_available
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.ops.wordcount import WordCountStep
from repro.plan import CalibrationStore, PhasePlan, RealPlan
from repro.text import MIX_PROFILE, generate_corpus
from repro.text.corpus import Document


@pytest.fixture(scope="module")
def corpus():
    """~47 documents: two content shards (32 + 15) at the default width."""
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=11)


def _operators():
    return TfIdfOperator(), KMeansOperator(max_iters=3)


def _run(docs, cache=None, backend_spec=None, **kw):
    tfidf, kmeans = _operators()
    if backend_spec is None:
        return run_pipeline(docs, tfidf=tfidf, kmeans=kmeans, cache=cache, **kw)
    name, workers, shm = backend_spec
    backend = make_backend(name, workers, shm=shm)
    try:
        return run_pipeline(
            docs, backend=backend, tfidf=tfidf, kmeans=kmeans, cache=cache, **kw
        )
    finally:
        backend.close()


def _assert_identical(a, b):
    ma, mb = a.tfidf.matrix, b.tfidf.matrix
    assert ma.n_rows == mb.n_rows and ma.n_cols == mb.n_cols
    for ra, rb in zip(ma.iter_rows(), mb.iter_rows()):
        assert ra.indices == rb.indices
        assert ra.values == rb.values
    assert a.tfidf.vocabulary == b.tfidf.vocabulary
    assert a.tfidf.idf == b.tfidf.idf
    assert a.kmeans.assignments == b.kmeans.assignments
    assert a.kmeans.centroids.tobytes() == b.kmeans.centroids.tobytes()
    assert a.kmeans.n_iters == b.kmeans.n_iters
    assert a.kmeans.inertia == b.kmeans.inertia


_BACKENDS = [("sequential", 1, None), ("threads", 2, None),
             ("processes", 2, False)]
if shm_available():
    _BACKENDS.append(("processes", 2, True))


class TestWarmServe:
    def test_cold_then_warm_bit_identical(self, corpus, tmp_path):
        reference = _run(corpus)
        cache = PipelineCache(str(tmp_path / "cache"))
        cold = _run(corpus, cache=cache)
        warm = _run(corpus, cache=cache)
        _assert_identical(cold, reference)
        _assert_identical(warm, reference)
        assert cold.cache["misses"] == 3 and cold.cache["hits"] == 0
        assert cold.cache["stored"] > 0
        assert warm.cache["hits"] == 3 and warm.cache["misses"] == 0
        assert warm.cache["stored"] == 0
        assert warm.cache["bytes_saved"] > 0

    @pytest.mark.parametrize("backend_spec", _BACKENDS,
                             ids=lambda spec: f"{spec[0]}-{spec[1]}"
                             + ("+shm" if spec[2] else ""))
    def test_every_backend_populates_and_serves_identically(
        self, corpus, tmp_path, backend_spec
    ):
        # Armed backends (sequential/threads/processes, shm or not) are
        # bit-identical among themselves including centroid bytes; the
        # armed sequential run is the reference for all of them.
        reference = _run(corpus, backend_spec=("sequential", 1, None))
        cache = PipelineCache(str(tmp_path / "cache"))
        cold = _run(corpus, cache=cache, backend_spec=backend_spec)
        warm = _run(corpus, cache=cache, backend_spec=backend_spec)
        _assert_identical(cold, reference)
        _assert_identical(warm, reference)
        assert warm.cache["hits"] == 3

    def test_dict_kind_does_not_fragment_the_cache(self, corpus, tmp_path):
        # The key deliberately excludes the dictionary implementation:
        # an entry stored under "map" serves an "unordered_map" run.
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)
        kmeans = KMeansOperator(max_iters=3)
        warm = run_pipeline(
            corpus,
            tfidf=TfIdfOperator(wc_dict_kind="unordered_map"),
            kmeans=kmeans,
            cache=cache,
        )
        assert warm.cache["hits"] == 3
        uncached = run_pipeline(
            corpus,
            tfidf=TfIdfOperator(wc_dict_kind="unordered_map"),
            kmeans=KMeansOperator(max_iters=3),
        )
        _assert_identical(warm, uncached)

    def test_config_change_misses(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)
        changed = run_pipeline(
            corpus,
            tfidf=TfIdfOperator(min_df=2),
            kmeans=KMeansOperator(max_iters=3),
            cache=cache,
        )
        # Word count is min_df-independent and serves; the transform and
        # the clustering downstream of it must recompute.
        assert changed.cache["phases"]["input+wc"]["hits"] == 1
        assert changed.cache["phases"]["transform"]["misses"] == 1
        assert changed.cache["phases"]["kmeans"]["misses"] == 1

    def test_warm_run_executes_no_operator_code(
        self, corpus, tmp_path, monkeypatch
    ):
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)

        def forbidden(*args, **kwargs):
            raise AssertionError("warm run must not recompute")

        monkeypatch.setattr(WordCountStep, "run", forbidden)
        monkeypatch.setattr(TfIdfOperator, "transform_wordcount", forbidden)
        monkeypatch.setattr(TfIdfOperator, "build_vocabulary", forbidden)
        monkeypatch.setattr(KMeansOperator, "fit", forbidden)
        warm = _run(corpus, cache=cache)
        assert warm.cache["hits"] == 3

    def test_warm_run_walks_the_documents_once(
        self, corpus, tmp_path, monkeypatch
    ):
        # The fingerprint's pass yields the word count's paths and input
        # size too: serving the word count walks the documents no more.
        cache = PipelineCache(str(tmp_path / "cache"))
        cold = _run(corpus, cache=cache)
        walks = []
        walk = cache_keys.names_and_texts

        def counted(docs):
            walks.append(len(docs))
            return walk(docs)

        monkeypatch.setattr(cache_keys, "names_and_texts", counted)
        warm = _run(corpus, cache=cache)
        assert warm.cache["hits"] == 3
        assert walks == [len(corpus)]
        served, computed = warm.tfidf.wordcount, cold.tfidf.wordcount
        assert served.paths == computed.paths
        assert served.input_bytes == computed.input_bytes


class TestIncremental:
    def _modified(self, corpus):
        """Tail-edit the last document and append three new ones."""
        docs = list(corpus)
        tail = docs[-1]
        docs[-1] = Document(
            doc_id=tail.doc_id, name=tail.name, text=tail.text + " amended"
        )
        for i in range(3):
            docs.append(
                Document(
                    doc_id=len(docs), name=f"added-{i}", text=docs[i].text
                )
            )
        return docs

    def test_append_and_tail_edit_matches_uncached(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)
        modified = self._modified(corpus)
        incremental = _run(modified, cache=cache)
        _assert_identical(incremental, _run(modified))
        # The untouched leading shard must be composed, not recomputed.
        assert incremental.cache["phases"]["input+wc"]["shard_hits"] > 0

    def test_change_and_delete_matches_uncached(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)
        docs = list(corpus)
        changed = docs[0]
        docs[0] = Document(
            doc_id=changed.doc_id, name=changed.name, text="entirely new text"
        )
        del docs[len(docs) // 2]
        incremental = _run(docs, cache=cache)
        _assert_identical(incremental, _run(docs))

    def test_incremental_result_is_stored_for_the_next_run(
        self, corpus, tmp_path
    ):
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)
        modified = self._modified(corpus)
        first = _run(modified, cache=cache)
        assert first.cache["stored"] > 0
        second = _run(modified, cache=cache)
        assert second.cache["hits"] == 3
        _assert_identical(second, first)


class TestTransformCachedWhole:
    """Only the word count composes shards; the transform is one entry."""

    def test_cold_run_writes_no_transform_shard(self, corpus, tmp_path):
        _run(corpus, cache=PipelineCache(str(tmp_path / "cache")))
        names = os.listdir(tmp_path / "cache" / "objects")
        assert any(name.startswith("wc-shard-") for name in names)
        assert not any(name.startswith("tr-shard-") for name in names)

    def test_tf_only_edit_composes_word_counts_and_recomputes_the_transform(
        self, corpus, tmp_path
    ):
        cache = PipelineCache(str(tmp_path / "cache"))
        _run(corpus, cache=cache)
        # Repeat a word the first document already keeps: its term
        # frequency moves, no document frequency does.
        docs = list(corpus)
        first = docs[0]
        word = TfIdfOperator().tokenizer.tokenize(first.text).tokens[0]
        docs[0] = Document(
            doc_id=first.doc_id, name=first.name, text=f"{first.text} {word}"
        )
        edited = _run(docs, cache=cache)
        phases = edited.cache["phases"]
        assert phases["input+wc"]["shard_hits"] > 0
        assert phases["transform"]["misses"] == 1
        assert phases["transform"]["shard_hits"] == 0
        assert output_digest(edited) == output_digest(_run(docs))


class TestEdgeCases:
    def test_empty_corpus_neither_stores_nor_serves(self, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        with pytest.raises(OperatorError):
            run_pipeline([], cache=cache)
        assert glob.glob(str(tmp_path / "cache" / "objects" / "*.pkl")) == []
        assert cache.begin_run([], TfIdfOperator(), KMeansOperator()) is None

    def test_corrupt_entries_are_misses_not_crashes(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        reference = _run(corpus, cache=cache)
        for path in glob.glob(str(tmp_path / "cache" / "objects" / "*.pkl")):
            with open(path, "wb") as handle:
                handle.write(b"not a pickle")
        recovered = _run(corpus, cache=cache)
        _assert_identical(recovered, reference)
        assert recovered.cache["hits"] == 0
        assert recovered.cache["misses"] == 3
        # The recompute repopulates the store for the next run.
        warm = _run(corpus, cache=cache)
        assert warm.cache["hits"] == 3

    def test_max_bytes_bounds_the_store(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"), max_bytes=2000)
        _run(corpus, cache=cache)
        assert cache.store.total_bytes <= 2000 or len(cache.store) == 1

    def test_result_carries_no_cache_section_when_uncached(self, corpus):
        assert _run(corpus).cache is None


#: A plan that names pool workers for every phase.
_PROCESSES_PLAN = RealPlan(phases={
    phase: PhasePlan(phase, "processes", 2)
    for phase in ("input+wc", "transform", "kmeans")
})


class TestPlannedCache:
    """A served phase runs no task, whatever backend its plan names."""

    @staticmethod
    def _planned(corpus, cache, plan):
        return run_pipeline(
            corpus,
            plan=plan,
            calibration=CalibrationStore.load_or_probe(None, corpus),
            tfidf=TfIdfOperator(),
            kmeans=KMeansOperator(max_iters=3),
            cache=cache,
            observe=False,
        )

    @staticmethod
    def _tasks(result):
        return {
            phase: counters["tasks"]
            for phase, counters in result.ipc["phases"].items()
        }

    def test_auto_plan_routes_around_cached_phases(self, corpus, tmp_path):
        cache = PipelineCache(str(tmp_path / "cache"))
        cold = self._planned(corpus, cache, "auto")
        for warm_plan in ("auto", _PROCESSES_PLAN):
            warm = self._planned(corpus, cache, warm_plan)
            _assert_identical(warm, cold)
            assert warm.cache["hits"] == 3
            assert all(tasks == 0 for tasks in self._tasks(warm).values())

    def test_deleted_transform_recomputes_on_the_planned_backend(
        self, corpus, tmp_path
    ):
        cache = PipelineCache(str(tmp_path / "cache"))
        cold = self._planned(corpus, cache, "auto")
        for path in glob.glob(str(tmp_path / "cache" / "objects" / "tr-*.pkl")):
            os.remove(path)
        warm = self._planned(corpus, cache, _PROCESSES_PLAN)
        _assert_identical(warm, cold)
        assert (warm.cache["hits"], warm.cache["misses"]) == (2, 1)
        tasks = self._tasks(warm)
        assert tasks["transform"] > 0
        assert tasks.get("input+wc", 0) == tasks.get("kmeans", 0) == 0
