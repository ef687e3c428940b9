"""K-means over a block source: one fit, whatever form the rows take.

``KMeansOperator.fit`` seeds, places the matrix's block source on the
backend and runs one Lloyd loop. The generated suite below draws the
whole source axis — matrix shape, resident or tiled (tile size and
budget drawn), backend × workers × shm, seeding, iteration cap — and
holds every combination to the resident-sequential fit byte for byte
(and, with no backend, tiled to resident through the reference loop).
The rest pins what the single path fixed on the way: in-process fits
read through the caller's own tile reader, what a worker rebuilds is
released, and fits running side by side in one process do not share
worker state.
"""

from __future__ import annotations

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import run_pipeline
from repro.exec import shm as shm_plane
from repro.exec.process import make_backend
from repro.exec.shm import shm_available
from repro.ops import kernels
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.sim import MachineSpec, SimScheduler
from repro.sim.operators import run_kmeans
from repro.sparse.matrix import CsrMatrix
from repro.text.synth import MIX_PROFILE, generate_corpus
from repro.tiles import TileStore, TiledCsrMatrix
from tests.conftest import _mapped_tiles

# -- generated equivalence over the source axis ----------------------------------------

#: ``(name, workers, shm)``; ``None`` is the simulator's one-core loop
#: (``repro.sim.operators.run_kmeans``), the reference.
_BACKENDS = [
    None,
    ("sequential", 1, None),
    ("threads", 1, None),
    ("threads", 3, None),
    ("processes", 1, False),
    ("processes", 2, False),
]
if shm_available():
    _BACKENDS += [("processes", 1, True), ("processes", 2, True)]

#: Backends stay warm across examples — the serve daemon's situation, and
#: what keeps a few hundred process-backend fits affordable.
_WARM: dict[tuple, object] = {}


@pytest.fixture(scope="module", autouse=True)
def _close_warm_backends():
    yield
    while _WARM:
        _WARM.popitem()[1].close()


def _backend(config):
    if config not in _WARM:
        name, workers, shm = config
        _WARM[config] = make_backend(name, workers, shm=shm)
    return _WARM[config]


_value = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, width=64)


@st.composite
def _cases(draw):
    K = draw(st.integers(1, 4))
    V = draw(st.integers(1, 10))
    # From exactly K rows (every row a seed) through one block (< 32
    # rows) to a few blocks with a ragged last one (grain is 32 here).
    n_docs = draw(st.one_of(st.just(K), st.integers(K, 31), st.integers(32, 100)))
    indptr, indices, data = [0], [], []
    for _ in range(n_docs):
        # Empty rows included (an all-stopword document).
        cols = sorted(draw(st.sets(st.integers(0, V - 1), max_size=min(V, 5))))
        indices += cols
        data += draw(st.lists(_value, min_size=len(cols), max_size=len(cols)))
        indptr.append(len(indices))
    matrix = CsrMatrix.from_arrays(
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.intp),
        np.asarray(data, dtype=np.float64),
        n_cols=V,
    )
    tiling = draw(st.one_of(
        st.none(),
        st.tuples(
            st.integers(1, n_docs),  # rows per tile
            st.one_of(st.none(), st.integers(1, 4096)),  # reader budget
        ),
    ))
    operator = KMeansOperator(
        n_clusters=K,
        max_iters=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 50)),
        init=draw(st.sampled_from(["spread", "kmeans++"])),
    )
    return matrix, tiling, operator, draw(st.sampled_from(_BACKENDS))


def _tiled(matrix: CsrMatrix, tile_docs: int, budget) -> TiledCsrMatrix:
    """``matrix`` spilled ``tile_docs`` rows per tile; owns its store."""
    indptr, indices, data = matrix.as_arrays()
    store = TileStore(memory_budget=budget)
    for start in range(0, matrix.n_rows, tile_docs):
        stop = min(matrix.n_rows, start + tile_docs)
        lo, hi = int(indptr[start]), int(indptr[stop])
        TfIdfOperator._append_tile(
            store, start, matrix.n_cols,
            (indptr[start:stop + 1] - lo, indices[lo:hi], data[lo:hi]),
        )
    return TiledCsrMatrix(store.seal(matrix.n_cols), store=store)


def _fit(operator, matrix, config):
    """``operator`` on ``matrix`` the way ``config`` names."""
    if config is None:
        scheduler = SimScheduler(MachineSpec(cores=1, name="reference"))
        return run_kmeans(operator, scheduler, matrix, workers=1)
    return operator.fit(matrix, backend=_backend(config))


def _fingerprint(result):
    return (
        result.assignments,
        result.centroids.tobytes(),
        result.inertia_history,
        result.n_iters,
        result.converged,
    )


class TestSourceAxisEquivalence:
    @settings(deadline=None)  # example count: the profile's (100; CI pins it)
    @given(_cases())
    def test_every_source_form_and_backend_fits_the_same_bytes(self, case):
        matrix, tiling, operator, config = case
        # The reference: resident rows, and the simplest executor of the
        # same kind (the simulator's loop and the real fit group their
        # float additions differently, so each is held to its own).
        reference = _fit(
            operator, matrix, None if config is None else _BACKENDS[1]
        )
        subject = matrix if tiling is None else _tiled(matrix, *tiling)
        try:
            result = _fit(operator, subject, config)
        finally:
            if tiling is not None:
                subject.close()
        assert _fingerprint(result) == _fingerprint(reference)
        assert not kernels._KMEANS  # every fit released its slot


# -- in-process fits read through the pipeline's own tile reader -----------------------


@pytest.fixture(scope="module")
def mix_corpus():
    return generate_corpus(MIX_PROFILE, scale=0.01, seed=1)


class TestOneTileReader:
    BUDGET = 64 * 1024

    def _run(self, corpus, name, workers, max_iters):
        backend = make_backend(name, workers)
        try:
            return run_pipeline(
                corpus, backend=backend, tfidf=TfIdfOperator(),
                kmeans=KMeansOperator(max_iters=max_iters),
                memory_budget=self.BUDGET,
            )
        finally:
            backend.close()

    @pytest.mark.parametrize("name,workers", [("sequential", 1), ("threads", 2)])
    def test_result_tiles_cover_the_kmeans_passes(self, mix_corpus, name, workers):
        reads = {}
        for max_iters in (1, 2):
            result = self._run(mix_corpus, name, workers, max_iters)
            try:
                assert result.kmeans.n_iters == max_iters
                stats = result.tiles
                # One budget bounds the one reader that served the fit.
                assert 0 < stats["peak_pinned_bytes"] <= self.BUDGET
                assert stats["evictions"] > 0
                ipc = result.ipc["phases"]["kmeans"]
                assert ipc["tile_reads"] > 0
                assert result.ipc["total"]["tile_reads"] == stats["reads"]
                reads[max_iters] = stats["reads"]
            finally:
                result.tfidf.matrix.close()
            assert not _mapped_tiles()
        # Every iteration is a pass over the tiles, and it shows (the
        # count did not depend on the iterations while a second,
        # unaccounted reader served the fit).
        assert reads[2] > reads[1] + len(mix_corpus) // 64


# -- what a worker rebuilds, it releases -----------------------------------------------


def _small_matrix(n_docs=40, n_cols=12, seed=0) -> CsrMatrix:
    rng = np.random.default_rng(seed)
    indptr, indices, data = [0], [], []
    for _ in range(n_docs):
        cols = np.sort(rng.choice(n_cols, size=int(rng.integers(1, 6)), replace=False))
        indices += cols.tolist()
        data += (rng.random(len(cols)) + 0.1).tolist()
        indptr.append(len(indices))
    return CsrMatrix.from_arrays(
        np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.intp),
        np.asarray(data, dtype=np.float64), n_cols=n_cols,
    )


class TestRebuiltSourcesAreReleased:
    """A descriptor that crossed a pickle resolves to a *rebuilt* source
    (what every pool worker gets); replacing or clearing the slot closes
    it. The placed source itself is never closed by the worker state."""

    def _install(self, slot, placed, n_rows):
        channel = shm_plane.Broadcast("c", (), shm_plane.REFERENCE)
        kernels.init_kmeans_worker(
            slot, pickle.loads(pickle.dumps(placed.descriptor())),
            channel, ((0, n_rows),),
        )
        return kernels._KMEANS[slot][1]

    def test_tile_reader_unmaps_on_replace_and_on_release(self):
        matrix = _tiled(_small_matrix(), tile_docs=8, budget=None)
        backend = make_backend("sequential", 1)
        placed = matrix.place(backend)
        try:
            first = self._install(3, placed, matrix.n_rows)
            assert first is not matrix
            first.block_arrays(0, matrix.n_rows)
            assert _mapped_tiles()
            second = self._install(3, placed, matrix.n_rows)  # replaces
            assert not _mapped_tiles()
            second.block_arrays(0, 9)
            assert _mapped_tiles()
            kernels.release_kmeans_worker(3)
            assert not _mapped_tiles() and 3 not in kernels._KMEANS
            # The placed matrix was never the worker's to close.
            assert matrix.block_arrays(0, 1)[2].shape == (1,)
        finally:
            kernels.release_kmeans_worker(3)
            placed.close()
            matrix.close()

    def test_in_process_resolve_is_the_placed_object(self):
        matrix = _tiled(_small_matrix(), tile_docs=8, budget=None)
        placed = matrix.place(make_backend("sequential", 1))
        try:
            assert placed.descriptor().resolve() is matrix
            placed.release(matrix)  # a no-op: still readable, store intact
            assert matrix.block_arrays(0, 2)[2].shape == (2,)
        finally:
            matrix.close()

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shm")
    def test_shm_attachment_detaches(self):
        source = _small_matrix().block_source()
        backend = make_backend("processes", 1, shm=True)
        placed = source.place(backend)
        try:
            rebuilt = self._install(4, placed, source.n_rows)
            assert rebuilt is not source
            segment = placed._shared.descriptor().segment
            assert segment in shm_plane._ATTACHED
            got = rebuilt.block_arrays(5, 9)
            want = source.block_arrays(5, 9)
            assert [v.tobytes() for v in got[1]] == [v.tobytes() for v in want[1]]
            assert np.asarray(got[2]).tolist() == want[2]
            del got
            kernels.release_kmeans_worker(4)
            assert segment not in shm_plane._ATTACHED
        finally:
            kernels.release_kmeans_worker(4)
            placed.close()
            backend.close()


# -- fits side by side in one process --------------------------------------------------


def test_concurrent_in_process_fits_keep_their_own_state():
    # In-process backends install worker state in the caller's process;
    # perfbench's selftest and the serve daemon run fits on several
    # threads at once. Differently shaped jobs, resident and tiled, on
    # more threads than cores, with the interpreter switching as often
    # as it can: every fit must equal its solo result.
    jobs = []
    for at, (n_docs, n_cols, K) in enumerate(
        [(70, 9, 3), (40, 14, 2), (96, 7, 4), (33, 11, 3)] * 2
    ):
        matrix = _small_matrix(n_docs, n_cols, seed=at)
        jobs.append((matrix, at % 2 == 1, KMeansOperator(n_clusters=K, max_iters=6)))
    solo = [_fingerprint(op.fit(m, backend=make_backend("sequential", 1)))
            for m, _, op in jobs]

    def fit(job):
        matrix, tiled, operator = job
        subject = _tiled(matrix, 16, 2048) if tiled else matrix
        backend = make_backend(*("threads", 2) if tiled else ("sequential", 1))
        try:
            return [_fingerprint(operator.fit(subject, backend=backend))
                    for _ in range(5)]
        finally:
            backend.close()
            if tiled:
                subject.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(fit, job) for job in jobs]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, solo):
        assert got == [want] * 5
    assert not kernels._KMEANS
