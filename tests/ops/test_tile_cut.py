"""Tiles cut by stored bytes, and one transform task per tile per worker.

Without an explicit ``tile_docs`` the tiled transform cuts its row
ranges by the word-count block's stored entries, so no tile's file is
larger than a quarter of the memory budget unless it holds a single row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import run_pipeline
from repro.exec.process import make_backend
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator, _tile_cuts
from repro.text import MIX_PROFILE, NSF_ABSTRACTS_PROFILE, generate_corpus
from repro.tiles.format import tile_nbytes
from repro.tiles.store import TileStore


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=7)


def _tiled_run(docs, budget, backend_name="sequential", workers=1):
    backend = make_backend(backend_name, workers)
    try:
        return run_pipeline(
            docs, backend=backend, tfidf=TfIdfOperator(),
            kmeans=KMeansOperator(max_iters=2), memory_budget=budget,
        )
    finally:
        backend.close()


class TestCutByBytes:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 400), max_size=60),
        st.integers(1, 40_000),
    )
    def test_cuts_partition_rows_within_the_quarter_budget(
        self, row_entries, budget
    ):
        indptr = np.concatenate(([0], np.cumsum(row_entries))).astype(np.int64)
        cuts = _tile_cuts(indptr, budget)
        n = len(row_entries)
        assert cuts[0] == 0 and cuts[-1] == n
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        for start, stop in zip(cuts, cuts[1:]):
            nbytes = tile_nbytes(stop - start, int(indptr[stop] - indptr[start]))
            assert nbytes <= budget // 4 or stop - start == 1

    @pytest.mark.parametrize("budget", [2_000, 50_000, 200_000])
    def test_every_tile_fits_the_quarter_budget_or_holds_one_row(
        self, corpus, budget
    ):
        result = _tiled_run(corpus, budget)
        try:
            tiles = result.tfidf.matrix.manifest.tiles
            assert len(tiles) > 1
            for meta in tiles:
                assert meta.nbytes <= budget // 4 or meta.n_rows == 1
        finally:
            result.tfidf.matrix.close()

    def test_abstracts_fit_the_quarter_budget_and_the_budget_holds(self):
        docs = generate_corpus(NSF_ABSTRACTS_PROFILE, scale=0.002, seed=3)
        result = _tiled_run(docs, 60_000)
        try:
            tiles = result.tfidf.matrix.manifest.tiles
            assert len(tiles) > 1
            assert all(
                meta.nbytes <= 15_000 or meta.n_rows == 1 for meta in tiles
            )
            assert result.tiles["peak_pinned_bytes"] <= 60_000
        finally:
            result.tfidf.matrix.close()

    def test_explicit_tile_docs_cuts_every_tile_docs_rows(self, corpus):
        tfidf = TfIdfOperator()
        wc = tfidf.wordcount.run(corpus)
        store = TileStore(memory_budget=50_000)
        result = tfidf.transform_wordcount_tiled(wc, store, tile_docs=5)
        try:
            rows = [meta.n_rows for meta in result.matrix.manifest.tiles]
            assert rows[:-1] == [5] * (len(rows) - 1)
            assert sum(rows) == wc.n_docs
        finally:
            result.matrix.close()


class TestTransformGrain:
    def test_sequential_tiled_transform_is_one_task_per_tile(self, corpus):
        result = _tiled_run(corpus, 50_000)
        try:
            assert (
                result.ipc["phases"]["transform"]["tasks"]
                == result.tiles["tiles"]
            )
        finally:
            result.tfidf.matrix.close()

    def test_thread_tiled_transform_is_one_task_per_tile_per_worker(
        self, corpus
    ):
        result = _tiled_run(corpus, 50_000, "threads", 2)
        try:
            rows = [meta.n_rows for meta in result.tfidf.matrix.manifest.tiles]
            assert result.ipc["phases"]["transform"]["tasks"] == sum(
                min(2, n) for n in rows
            )
        finally:
            result.tfidf.matrix.close()

    def test_untiled_transform_keeps_the_phase_grain(self, corpus):
        backend = make_backend("sequential", 1)
        try:
            result = run_pipeline(
                corpus, backend=backend, tfidf=TfIdfOperator(),
                kmeans=KMeansOperator(max_iters=2),
            )
        finally:
            backend.close()
        step = backend.phase_grain(len(corpus))
        assert result.ipc["phases"]["transform"]["tasks"] == -(
            -len(corpus) // step
        )
