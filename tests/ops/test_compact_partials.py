"""K-means block partials: recycled accumulator, compact shipping.

Each block accumulates into one per-worker K×V buffer and returns only
the cells it touched; ``_lloyd`` scatter-adds them in block order. These
tests pin that form to the dense one it replaced — a fresh K×V partial
per block, ``merged += partial`` — byte for byte, and check that the
recycled buffer never carries state from one block, failure or fit into
the next.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.process import make_backend
from repro.exec.shm import Placement
from repro.ops import kernels
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.sparse.matrix import ResidentRows
from repro.text.synth import MIX_PROFILE, generate_corpus

BACKENDS = (("sequential", 1), ("threads", 4), ("processes", 2))


def _dense_block(start, stop, centroids, centroid_sq_norms, indices, values, sq_norms):
    """The dense form: a fresh K×V partial per block."""
    K = centroids.shape[0]
    partial = np.zeros_like(centroids)
    counts = np.zeros(K, dtype=np.int64)
    assignments = []
    inertia = 0.0
    for doc in range(start, stop):
        idx, val = indices[doc], values[doc]
        dots = centroids[:, idx] @ val if len(idx) else np.zeros(K)
        distances = sq_norms[doc] - 2.0 * dots + centroid_sq_norms
        best = int(np.argmin(distances))
        assignments.append(best)
        inertia += float(max(0.0, distances[best]))
        partial[best, idx] += val
        counts[best] += 1
    return assignments, partial, counts, inertia


def _dense_lloyd(bounds, centroids, indices, values, sq_norms, max_iters):
    """Lloyd's with dense partials merged in block order (the old path)."""
    K = centroids.shape[0]
    centroids = centroids.copy()
    centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
    assignments = [-1] * bounds[-1][1]
    previous = list(assignments)
    history = []
    for _ in range(max_iters):
        merged = np.zeros_like(centroids)
        merged_counts = np.zeros(K, dtype=np.int64)
        inertia = 0.0
        for start, stop in bounds:
            block_assign, partial, counts, block_inertia = _dense_block(
                start, stop, centroids, centroid_sq_norms,
                indices, values, sq_norms,
            )
            assignments[start:stop] = block_assign
            merged += partial
            merged_counts += counts
            inertia += block_inertia
        history.append(inertia)
        for k in range(K):
            if merged_counts[k] > 0:
                centroids[k] = merged[k] / merged_counts[k]
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        if assignments == previous:
            break
        previous = list(assignments)
    return assignments, centroids, history


def _scatter(shape, cells, partial):
    dense = np.zeros(shape)
    dense.reshape(-1)[cells] += partial
    return dense


_value = st.one_of(
    st.just(0.0),  # a term in every document: idf = 0
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
)


@st.composite
def _problems(draw):
    K = draw(st.integers(1, 5))
    V = draw(st.integers(1, 12))
    n_docs = draw(st.integers(1, 14))
    indices, values = [], []
    for _ in range(n_docs):
        # Empty documents included (an all-stopword text).
        cols = draw(st.lists(st.integers(0, V - 1), unique=True, max_size=V))
        cols.sort()
        indices.append(np.asarray(cols, dtype=np.intp))
        values.append(np.asarray(
            draw(st.lists(_value, min_size=len(cols), max_size=len(cols))),
            dtype=np.float64,
        ))
    # Block bounds with repeats allowed: empty blocks, and (K up to 5,
    # blocks down to one document) blocks smaller than K.
    cuts = sorted(draw(st.lists(st.integers(0, n_docs), max_size=5)))
    edges = [0, *cuts, n_docs]
    bounds = list(zip(edges[:-1], edges[1:]))
    centroids = np.asarray(
        draw(st.lists(
            st.lists(_value, min_size=V, max_size=V), min_size=K, max_size=K
        )),
        dtype=np.float64,
    )
    return K, bounds, centroids, indices, values


class TestCompactEqualsDense:
    @settings(max_examples=150, deadline=None)
    @given(_problems())
    def test_lloyd_is_byte_identical_to_dense_merge(self, problem):
        K, bounds, centroids, indices, values = problem
        sq_norms = [float(val @ val) for val in values]

        def run_iteration(centroids, centroid_sq_norms):
            return [
                kernels._assign_block(
                    start, stop, np.ascontiguousarray(centroids.T),
                    centroid_sq_norms, indices, values, sq_norms,
                )
                for start, stop in bounds
            ]

        operator = KMeansOperator(n_clusters=K, max_iters=3)
        result = operator._lloyd(
            bounds,
            centroids.copy(),
            np.einsum("ij,ij->i", centroids, centroids),
            run_iteration,
        )
        assignments, expected, history = _dense_lloyd(
            bounds, centroids, indices, values, sq_norms, max_iters=3
        )
        assert result.assignments == assignments
        assert result.centroids.tobytes() == expected.tobytes()
        assert result.inertia_history == history
        # Nothing of the fit is left in the recycled buffer.
        assert not kernels._accumulator(centroids.size).any()

    @settings(max_examples=100, deadline=None)
    @given(_problems())
    def test_block_partial_scatters_to_the_dense_partial(self, problem):
        K, bounds, centroids, indices, values = problem
        sq_norms = [float(val @ val) for val in values]
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        for start, stop in bounds:
            args = (
                start, stop, centroids, centroid_sq_norms,
                indices, values, sq_norms,
            )
            assign, cells, partial, counts, inertia = kernels._assign_block(
                start, stop, np.ascontiguousarray(centroids.T), *args[3:]
            )
            d_assign, d_partial, d_counts, d_inertia = _dense_block(*args)
            assert assign == d_assign
            assert counts.tolist() == d_counts.tolist()
            assert inertia == d_inertia
            assert np.all(cells[1:] > cells[:-1])  # sorted, distinct
            assert len(cells) <= sum(len(indices[d]) for d in range(start, stop))
            scattered = _scatter(centroids.shape, cells, partial)
            assert scattered.tobytes() == d_partial.tobytes()


@pytest.fixture(scope="module")
def matrices():
    """Two TF/IDF matrices of different width over one small corpus."""
    corpus = generate_corpus(MIX_PROFILE, scale=0.002, seed=7)
    backend = make_backend("sequential", 1)
    try:
        wide = TfIdfOperator().fit_transform(corpus, backend=backend).matrix
        narrow = TfIdfOperator(min_df=2).fit_transform(
            corpus, backend=backend
        ).matrix
    finally:
        backend.close()
    assert wide.n_cols != narrow.n_cols
    return wide, narrow


class _PoisonedRows(ResidentRows):
    """A resident block source whose document ``poisoned`` carries one
    value too many: its dot product raises inside the block kernel. The
    flat CSR triple cannot express that, so the placement's recipe is
    the constructor's arguments and every worker re-poisons its copy."""

    def __init__(self, indptr, indices, data, n_cols, poisoned):
        super().__init__(indptr, indices, data, n_cols)
        self.poisoned = poisoned
        self.values[poisoned] = np.append(self.values[poisoned], 1.0)

    def place(self, backend):
        return Placement(
            self, _PoisonedRows, (*self.arrays, self.n_cols, self.poisoned)
        )


@pytest.mark.parametrize("name,workers", BACKENDS)
class TestRecycledBufferHygiene:
    def test_block_that_raises_leaves_no_residue(self, matrices, name, workers):
        matrix, _ = matrices
        n_docs = matrix.n_rows
        poisoned = n_docs // 2
        source = _PoisonedRows(*matrix.as_arrays(), matrix.n_cols, poisoned)
        doc_idx, doc_val, sq_norms = source.block_arrays(0, n_docs)
        K = 4
        centroids = np.zeros((K, matrix.n_cols))
        for k in range(K):
            centroids[k, doc_idx[k]] = doc_val[k]
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        # Block 0 holds the poisoned document; blocks 1 and 2 are the
        # retries either side of it, overlapping the columns the failed
        # attempt had touched.
        bounds = ((0, n_docs), (0, poisoned), (poisoned + 1, n_docs))
        expected = [
            _dense_block(start, stop, centroids, centroid_sq_norms,
                         doc_idx, doc_val, sq_norms)
            for start, stop in bounds[1:] * 4
        ]
        backend = make_backend(name, workers)
        placed = source.place(backend)
        by_column = np.ascontiguousarray(centroids.T)
        channel = backend.open_broadcast(
            "centroids", (by_column, centroid_sq_norms)
        )
        try:
            backend.begin_phase("kmeans")
            backend.configure(
                kernels.init_kmeans_worker,
                (7, placed.descriptor(), channel.descriptor(), bounds),
            )
            token = backend.broadcast(channel, (by_column, centroid_sq_norms))
            # No reconfigure in between: the same warm workers serve the
            # failing block and its retries.
            for _round in range(3):
                with pytest.raises(ValueError, match="matmul"):
                    backend.map(
                        kernels.assign_block_span,
                        [(7, 0, 1, token)] * workers,
                    )
                results = backend.map(
                    kernels.assign_block_span,
                    [(7, 1, 2, token), (7, 2, 3, token)] * 4,
                )
                for ((assign, cells, partial, counts, inertia),), (
                    d_assign, d_partial, d_counts, d_inertia
                ) in zip(results, expected):
                    assert assign == d_assign
                    assert counts.tolist() == d_counts.tolist()
                    assert inertia == d_inertia
                    scattered = _scatter(centroids.shape, cells, partial)
                    assert scattered.tobytes() == d_partial.tobytes()
        finally:
            kernels.release_kmeans_worker(7)
            channel.close()
            placed.close()
            backend.close()

    def test_fits_of_different_shape_on_one_warm_backend(
        self, matrices, name, workers
    ):
        wide, narrow = matrices
        # The serve daemon's case: one backend, jobs of differing (K, V).
        jobs = [(8, wide), (5, narrow), (8, narrow), (5, wide), (8, wide)]

        def fit(n_clusters, matrix, backend):
            result = KMeansOperator(n_clusters=n_clusters, max_iters=4).fit(
                matrix, backend=backend
            )
            return result.assignments, result.centroids.tobytes()

        fresh = []
        for n_clusters, matrix in jobs:
            # A new thread has never run a block: no buffer to inherit.
            with ThreadPoolExecutor(max_workers=1) as pool, make_backend(
                "sequential", 1
            ) as backend:
                fresh.append(
                    pool.submit(fit, n_clusters, matrix, backend).result(timeout=120)
                )
        warm = make_backend(name, workers)
        try:
            for (n_clusters, matrix), expected in zip(jobs, fresh):
                assert fit(n_clusters, matrix, warm) == expected
        finally:
            warm.close()


def test_processes_ship_a_fraction_of_the_dense_partials():
    corpus = generate_corpus(MIX_PROFILE, scale=0.01, seed=1)
    backend = make_backend("processes", 2)
    try:
        matrix = TfIdfOperator().fit_transform(corpus, backend=backend).matrix
        operator = KMeansOperator()
        result = operator.fit(matrix, backend=backend)
        shipped = backend.bill.ipc.snapshot()["phases"]["kmeans"]["result_pickle_bytes"]
    finally:
        backend.close()
    n_blocks = -(-matrix.n_rows // max(32, -(-matrix.n_rows // 64)))
    dense = n_blocks * result.n_iters * operator.n_clusters * matrix.n_cols * 8
    assert 0 < shipped < 0.25 * dense
