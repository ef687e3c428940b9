"""Cross-backend equivalence: identical operator output on every backend.

The contract of the real execution subsystem is that backend choice and
worker count change *wall-clock time only*: TF/IDF matrices, vocabularies,
idf tables and K-means assignments must be bit-identical across
sequential, threads and processes — and the word counts and scores
identical to the simulator's one-core dictionary reference
(``repro.sim.operators``).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.pipeline import run_pipeline
from repro.exec.process import make_backend
from repro.exec.shm import shm_available
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.ops.wordcount import WordCountStep
from repro.sim import SimConfig
from repro.text.synth import MIX_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer
from tests.ops.test_columnar_blocks import (
    df_dict,
    row_dicts,
    simulated_tfidf,
    simulated_wordcount,
)

BACKENDS = ("sequential", "threads", "processes")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=7)


@pytest.fixture(scope="module")
def texts(corpus):
    return [doc.text for doc in corpus]


def _matrix_entries(result):
    return [
        (tuple(row.indices), tuple(row.values))
        for row in result.matrix.iter_rows()
    ]


def run_backend(name, fn, workers=2):
    backend = make_backend(name, workers)
    try:
        return fn(backend)
    finally:
        backend.close()


class TestWordCountEquivalence:
    def test_df_and_tokens_match_inline(self, texts):
        step = WordCountStep()
        reference = simulated_wordcount(step, texts)
        for name in BACKENDS:
            result = run_backend(name, lambda b: step.run(texts, backend=b))
            assert df_dict(result) == df_dict(reference)
            assert result.doc_token_counts == reference.doc_token_counts
            assert result.total_tokens == reference.total_tokens
            assert result.input_bytes == reference.input_bytes

    def test_doc_tfs_preserve_input_order(self, texts):
        step = WordCountStep()
        reference = simulated_wordcount(step, texts)
        result = run_backend(
            "processes", lambda b: step.run(texts, backend=b), workers=3
        )
        assert result.n_docs == len(texts)
        assert row_dicts(result) == row_dicts(reference)


class TestTfIdfEquivalence:
    @pytest.mark.parametrize("dict_kind", ["map", "unordered_map"])
    def test_matrix_identical_across_backends(self, corpus, texts, dict_kind):
        reference = simulated_tfidf(
            TfIdfOperator(), texts, SimConfig(wc_dict_kind=dict_kind)
        )
        ref_entries = _matrix_entries(reference)
        for name in BACKENDS:
            result = run_backend(
                name, lambda b: TfIdfOperator().fit_transform(corpus, backend=b)
            )
            assert result.vocabulary == reference.vocabulary
            assert result.idf == reference.idf
            assert _matrix_entries(result) == ref_entries

    def test_min_df_pruning_matches_inline(self, corpus, texts):
        operator_args = dict(min_df=2, tokenizer=Tokenizer(drop_stopwords=True))
        reference = simulated_tfidf(TfIdfOperator(**operator_args), texts)
        result = run_backend(
            "processes",
            lambda b: TfIdfOperator(**operator_args).fit_transform(
                corpus, backend=b
            ),
        )
        assert result.vocabulary == reference.vocabulary
        assert _matrix_entries(result) == _matrix_entries(reference)


class TestKMeansEquivalence:
    def test_assignments_identical_across_backends(self, corpus):
        matrix = TfIdfOperator().fit_transform(corpus).matrix
        results = {
            name: run_backend(
                name,
                lambda b: KMeansOperator(max_iters=4).fit(matrix, backend=b),
            )
            for name in BACKENDS
        }
        reference = results["sequential"]
        for name in ("threads", "processes"):
            assert results[name].assignments == reference.assignments
            assert (results[name].centroids == reference.centroids).all()
            assert results[name].inertia_history == reference.inertia_history
            assert results[name].n_iters == reference.n_iters

    def test_worker_count_does_not_change_output(self, corpus):
        matrix = TfIdfOperator().fit_transform(corpus).matrix
        one = run_backend(
            "processes",
            lambda b: KMeansOperator(max_iters=4).fit(matrix, backend=b),
            workers=1,
        )
        three = run_backend(
            "processes",
            lambda b: KMeansOperator(max_iters=4).fit(matrix, backend=b),
            workers=3,
        )
        assert one.assignments == three.assignments
        assert (one.centroids == three.centroids).all()


class TestPipelineEquivalence:
    def test_full_pipeline_identical(self, corpus):
        runs = {
            name: run_backend(
                name,
                lambda b: run_pipeline(
                    corpus,
                    backend=b,
                    tfidf=TfIdfOperator(),
                    kmeans=KMeansOperator(max_iters=3),
                ),
            )
            for name in BACKENDS
        }
        reference = runs["sequential"]
        for name in ("threads", "processes"):
            assert (
                _matrix_entries(runs[name].tfidf)
                == _matrix_entries(reference.tfidf)
            )
            assert (
                runs[name].kmeans.assignments == reference.kmeans.assignments
            )
            assert set(runs[name].phase_seconds) == {
                "input+wc",
                "transform",
                "kmeans",
            }


class TestShmEquivalence:
    """The shared-memory plane changes IPC volume, never output bits."""

    def _run(self, corpus, backend_name, workers, shm):
        backend = make_backend(backend_name, workers, shm=shm)
        try:
            return run_pipeline(
                corpus,
                backend=backend,
                tfidf=TfIdfOperator(),
                kmeans=KMeansOperator(max_iters=3),
            )
        finally:
            backend.close()

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shm")
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_process_pipeline_identical_shm_on_and_off(self, corpus, workers):
        off = self._run(corpus, "processes", workers, shm=False)
        on = self._run(corpus, "processes", workers, shm=True)
        assert _matrix_entries(on.tfidf) == _matrix_entries(off.tfidf)
        assert on.tfidf.vocabulary == off.tfidf.vocabulary
        assert on.tfidf.idf == off.tfidf.idf
        assert on.kmeans.assignments == off.kmeans.assignments
        assert (on.kmeans.centroids == off.kmeans.centroids).all()
        assert on.kmeans.inertia_history == off.kmeans.inertia_history

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shm")
    def test_shm_matches_inline_reference(self, corpus):
        inline = run_pipeline(
            corpus, tfidf=TfIdfOperator(), kmeans=KMeansOperator(max_iters=3)
        )
        on = self._run(corpus, "processes", 2, shm=True)
        assert _matrix_entries(on.tfidf) == _matrix_entries(inline.tfidf)
        assert on.kmeans.assignments == inline.kmeans.assignments

    def test_thread_backend_flag_is_noop(self, corpus):
        # The flag only affects the process backend; threads share an
        # address space and must produce identical output regardless.
        off = self._run(corpus, "threads", 2, shm=False)
        on = self._run(corpus, "threads", 2, shm=True)
        assert _matrix_entries(on.tfidf) == _matrix_entries(off.tfidf)
        assert on.kmeans.assignments == off.kmeans.assignments

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shm")
    def test_shm_pipeline_reports_segment_accounting(self, corpus):
        on = self._run(corpus, "processes", 2, shm=True)
        off = self._run(corpus, "processes", 2, shm=False)
        assert on.ipc["total"]["segments"] >= 2  # matrix + broadcast + vocab
        assert off.ipc["total"]["segments"] == 0
        assert (
            on.ipc["phases"]["kmeans"]["task_pickle_bytes"]
            < off.ipc["phases"]["kmeans"]["task_pickle_bytes"]
        )


class TestPlannedEquivalence:
    """``plan="auto"`` changes scheduling only, never output bits.

    The adaptive planner may split phases across backends; every
    planned run must still be bit-identical to every fixed-configuration
    run — including k-means centroids, compared raw.
    """

    @pytest.fixture(scope="class")
    def calibration(self, corpus):
        from repro.plan import CalibrationStore

        return CalibrationStore.probe(corpus)

    def _fingerprint(self, result):
        return (
            _matrix_entries(result.tfidf),
            result.tfidf.vocabulary,
            result.tfidf.idf,
            result.kmeans.assignments,
            result.kmeans.centroids.tobytes(),
            result.kmeans.inertia_history,
        )

    def _fixed(self, corpus, backend_name, workers, shm=None):
        backend = make_backend(backend_name, workers, shm=shm)
        try:
            return run_pipeline(
                corpus,
                backend=backend,
                tfidf=TfIdfOperator(),
                kmeans=KMeansOperator(max_iters=3),
            )
        finally:
            backend.close()

    def test_auto_plan_identical_to_every_fixed_config(
        self, corpus, calibration
    ):
        planned = run_pipeline(
            corpus,
            plan="auto",
            calibration=calibration,
            tfidf=TfIdfOperator(),
            kmeans=KMeansOperator(max_iters=3),
        )
        assert planned.backend_name == "planned"
        assert planned.plan is not None
        reference = self._fingerprint(planned)

        configs = [
            ("sequential", 1, None),
            ("threads", 2, None),
            ("processes", 2, None),
        ]
        if shm_available():
            configs.append(("processes", 1, True))
        for backend_name, workers, shm in configs:
            fixed = self._fixed(corpus, backend_name, workers, shm)
            assert self._fingerprint(fixed) == reference, (
                f"planned output diverged from {backend_name}-{workers}"
                f"{'+shm' if shm else ''}"
            )


class TestTiledEquivalence:
    """Out-of-core tiling changes the data plane only, never output bits.

    A ``memory_budget`` spills the TF/IDF matrix to disk tiles and
    streams k-means chunk-at-a-time — on every backend, under budgets
    well below the matrix footprint, the scores, assignments, centroids
    (compared raw) and inertia trajectory must equal the untiled run's
    exactly. (Seeding, tile geometry and budgets are drawn, not picked,
    in ``tests/ops/test_block_sources.py``.)
    """

    BUDGET = 50_000  # bytes; far below the scale-0.002 matrix footprint

    def _fingerprint(self, result):
        return (
            _matrix_entries(result.tfidf),
            result.tfidf.vocabulary,
            result.tfidf.idf,
            result.kmeans.assignments,
            result.kmeans.centroids.tobytes(),
            result.kmeans.inertia_history,
        )

    def _run(self, corpus, backend_name=None, workers=2, budget=None):
        backend = (
            make_backend(backend_name, workers)
            if backend_name is not None
            else None
        )
        try:
            return run_pipeline(
                corpus,
                backend=backend,
                tfidf=TfIdfOperator(),
                kmeans=KMeansOperator(max_iters=3),
                memory_budget=budget,
            )
        finally:
            if backend is not None:
                backend.close()

    def test_tiled_inline_identical_to_untiled(self, corpus):
        reference = self._run(corpus)
        tiled = self._run(corpus, budget=self.BUDGET)
        try:
            assert self._fingerprint(tiled) == self._fingerprint(reference)
            stats = tiled.tiles
            assert stats is not None
            assert stats["tiles"] > 1
            assert stats["peak_pinned_bytes"] <= self.BUDGET
        finally:
            tiled.tfidf.matrix.close()

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_tiled_identical_on_every_backend(self, corpus, backend_name):
        reference = self._run(corpus, "sequential")
        tiled = self._run(corpus, backend_name, budget=self.BUDGET)
        try:
            assert self._fingerprint(tiled) == self._fingerprint(reference), (
                f"tiled output diverged from untiled on {backend_name}"
            )
        finally:
            tiled.tfidf.matrix.close()

    def test_untiled_run_reports_no_tiles(self, corpus):
        assert self._run(corpus).tiles is None


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup measurement needs a multi-core host",
)
def test_process_backend_speeds_up_phase1():
    """Acceptance: >= 1.5x on the TF/IDF phase-1 loop at 4 workers."""
    corpus = generate_corpus(MIX_PROFILE, scale=0.05, seed=0)
    texts = [doc.text for doc in corpus]
    step = WordCountStep()

    sequential = make_backend("sequential")
    start = time.perf_counter()
    step.run(texts, backend=sequential)
    sequential_s = time.perf_counter() - start

    processes = make_backend("processes", 4)
    try:
        step.run(texts[:32], backend=processes)  # warm the pool
        start = time.perf_counter()
        step.run(texts, backend=processes)
        parallel_s = time.perf_counter() - start
    finally:
        processes.close()

    assert sequential_s / parallel_s >= 1.5, (
        f"expected >= 1.5x, got {sequential_s / parallel_s:.2f}x "
        f"({sequential_s:.3f}s sequential vs {parallel_s:.3f}s at 4 workers)"
    )
