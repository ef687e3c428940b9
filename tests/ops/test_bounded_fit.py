"""A budgeted fit holds no matrix's worth of block partials.

Each k-means block returns a compact partial — a centroid cell index and
a value per touched cell, up to 16 B per stored entry — and ``_lloyd``
scatter-adds each one as ``backend.imap`` delivers it. Collected first
and merged after, the partials of an iteration add up to a large share
of ``16 B × nnz`` (twice that while the previous iteration's list is
still held): for a tiled matrix, the footprint its budget was meant to
avoid. Inline, a fit now holds one span of them (8 spans per iteration).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.exec.process import make_backend
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.sparse.matrix import CsrMatrix
from repro.text.synth import NSF_ABSTRACTS_PROFILE, generate_corpus
from repro.tiles import TileStore

K = 8


@pytest.fixture(scope="module")
def corpus_wordcount():
    """An NSF-shaped word count (≈ 1k abstracts, 380k stored entries)
    and its resident matrix."""
    corpus = generate_corpus(NSF_ABSTRACTS_PROFILE, scale=0.01, seed=5)
    tfidf = TfIdfOperator()
    with make_backend("sequential", 1) as backend:
        wc = tfidf.wordcount.run(corpus, backend=backend)
        resident = tfidf.transform_wordcount(wc, backend=backend).matrix
    return tfidf, wc, resident


def _traced_growth(run) -> tuple[object, int]:
    """``run()``'s result and how far the traced heap rose above where
    it started."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _tiled_fit(corpus_wordcount, backend, budget):
    """One fit over the matrix tiled under ``budget`` -> ``(result,
    traced growth)``; the reader held the budget."""
    tfidf, wc, _ = corpus_wordcount
    matrix = tfidf.transform_wordcount_tiled(
        wc, TileStore(memory_budget=budget), backend=backend
    ).matrix
    try:
        operator = KMeansOperator(n_clusters=K, max_iters=3)
        result, growth = _traced_growth(lambda: operator.fit(matrix, backend))
        assert matrix.spill_stats()["peak_pinned_bytes"] <= budget
    finally:
        matrix.close()
    return result, growth


def _fingerprint(result):
    return (
        result.assignments,
        result.centroids.tobytes(),
        result.inertia_history,
        result.n_iters,
    )


def test_sequential_fit_grows_by_its_buffers_not_its_partials(corpus_wordcount):
    _, _, resident = corpus_wordcount
    budget = resident.resident_bytes() // 16
    partials = 16 * resident.nnz
    # The fit's own K×V arrays (seeded centroids, merge buffer, division
    # temporaries), measured: the same fit over 64 of the rows, same
    # width, next to no partials. The thread's K×V accumulator is
    # allocated by a first fit and reused by both measured ones.
    indptr, indices, data = resident.as_arrays()
    few = CsrMatrix.from_arrays(
        indptr[:65], indices[:indptr[64]], data[:indptr[64]],
        n_cols=resident.n_cols,
    )
    operator = KMeansOperator(n_clusters=K, max_iters=3)
    with make_backend("sequential", 1) as backend:
        operator.fit(few, backend)
        _, buffers = _traced_growth(lambda: operator.fit(few, backend))
        result, growth = _tiled_fit(corpus_wordcount, backend, budget)
    # Plus what the reader may pin and one span's partials at most (a
    # span is an eighth of the blocks; ≤ 16 B per stored entry).
    bound = buffers + budget + partials // 8
    assert result.n_iters >= 2
    assert growth < bound, (
        f"fit grew {growth / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB "
        f"(K×V buffers {buffers / 1e6:.2f} MB, budget {budget / 1e6:.2f} MB, "
        f"16 B × nnz {partials / 1e6:.2f} MB)"
    )


def test_threads_fit_is_the_sequential_fit(corpus_wordcount):
    budget = corpus_wordcount[2].resident_bytes() // 16
    with make_backend("sequential", 1) as backend:
        sequential, _ = _tiled_fit(corpus_wordcount, backend, budget)
    with make_backend("threads", 2) as backend:
        threads, _ = _tiled_fit(corpus_wordcount, backend, budget)
    assert _fingerprint(threads) == _fingerprint(sequential)
