"""The data plane: segments, broadcasts, gathers, lifecycle, accounting."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec.inline import ThreadBackend
from repro.exec.process import ProcessBackend
from repro.exec.shm import (
    REFERENCE,
    SHM,
    IpcStats,
    SEGMENT_PREFIX,
    Broadcast,
    Gather,
    Plane,
    Segment,
    detach_all,
    shm_available,
)
from repro.core.pipeline import run_pipeline
from repro.exec.process import make_backend
from repro.ops import kernels
from repro.ops.tfidf import TfIdfOperator
from repro.plan import PhasePlan, RealPlan
from repro.text import MIX_PROFILE, generate_corpus
from repro.ops.kmeans import KMeansOperator, _block_spans
from repro.sparse.matrix import CsrMatrix
from repro.sparse.vector import SparseVector

needs_shm = pytest.mark.skipif(not shm_available(), reason="no POSIX shm")


def _live_segments() -> set[str]:
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        }
    except OSError:  # pragma: no cover - non-/dev/shm platform
        return set()


# Module-level so the process backend can pickle them by reference.
def _crash_worker(_item):
    os._exit(13)  # simulate a segfaulted worker


def _read_shared(descriptor):
    arrays = descriptor.resolve()
    return {key: array.tolist() for key, array in arrays.items()}


class TestIpcStats:
    def test_phases_accumulate_and_total(self):
        stats = IpcStats()
        stats.set_phase("alpha")
        stats.record_task(100)
        stats.record_task(50)
        stats.record_result(30)
        stats.set_phase("beta")
        stats.record_configure(7)
        stats.record_segment(4096)
        stats.record_broadcast(256)
        snap = stats.snapshot()
        assert snap["phases"]["alpha"]["tasks"] == 2
        assert snap["phases"]["alpha"]["task_pickle_bytes"] == 150
        assert snap["phases"]["alpha"]["result_pickle_bytes"] == 30
        assert snap["phases"]["beta"]["configures"] == 1
        assert snap["phases"]["beta"]["segments"] == 1
        assert snap["phases"]["beta"]["broadcasts"] == 1
        assert snap["total"]["task_pickle_bytes"] == 150
        assert snap["total"]["segment_bytes"] == 4096
        assert snap["total"]["broadcast_buffer_bytes"] == 256

    def test_reset_clears_everything(self):
        stats = IpcStats()
        stats.set_phase("x")
        stats.record_task(1)
        stats.reset()
        assert stats.snapshot() == {"phases": {}, "total": stats.total().as_dict()}
        assert stats.total().tasks == 0


class TestLocalHandles:
    def test_local_arrays_pass_references_through(self):
        a = np.arange(4.0)
        handle = Segment("t", arrays={"a": a})
        assert handle.descriptor() is handle
        assert handle.resolve()["a"] is a
        handle.close()
        with pytest.raises(ConfigurationError):
            handle.resolve()

    def test_local_broadcast_generations(self):
        channel = Broadcast("c", (np.zeros(3),), REFERENCE)
        with pytest.raises(ConfigurationError):
            channel.read(0)
        g0 = channel.publish((np.ones(3),))
        assert g0 == 0
        assert channel.read(0)[0].tolist() == [1, 1, 1]
        g1 = channel.publish((np.zeros(3),))
        assert g1 == 1
        with pytest.raises(ConfigurationError):
            channel.read(0)  # stale generation


@needs_shm
class TestShmArrays:
    def test_descriptor_roundtrip_through_pickle(self):
        arrays = {
            "idx": np.array([3, 1, 4, 1, 5], dtype=np.intp),
            "val": np.array([2.0, 7.1], dtype=np.float64),
        }
        stats = IpcStats()
        handle = Segment("t", arrays=arrays, shared=True, stats=stats)
        try:
            descriptor = pickle.loads(pickle.dumps(handle.descriptor()))
            resolved = descriptor.resolve()
            assert resolved["idx"].tolist() == [3, 1, 4, 1, 5]
            assert resolved["val"].tolist() == [2.0, 7.1]
            assert resolved["idx"].dtype == np.intp
            assert stats.total().segments == 1
            assert stats.total().segment_bytes >= 5 * 8 + 2 * 8
        finally:
            handle.close()

    def test_close_is_idempotent_and_unlinks(self):
        handle = Segment("t", arrays={"a": np.zeros(16)}, shared=True)
        name = handle.descriptor().segment
        assert name in _live_segments()
        handle.close()
        assert name not in _live_segments()
        handle.close()  # double close is safe

    def test_resolve_after_close_raises(self):
        handle = Segment("t", arrays={"a": np.zeros(2)}, shared=True)
        handle.close()
        with pytest.raises(ConfigurationError):
            handle.resolve()

    def test_empty_arrays_are_placeable(self):
        handle = Segment("t", arrays={"a": np.zeros(0)}, shared=True)
        try:
            assert handle.resolve()["a"].tolist() == []
        finally:
            handle.close()


@needs_shm
class TestShmBroadcast:
    def test_double_buffered_generations(self):
        channel = Broadcast("c", (np.zeros((2, 3)), np.zeros(2)), SHM)
        try:
            descriptor = pickle.loads(pickle.dumps(channel.descriptor()))
            g0 = channel.publish((np.full((2, 3), 1.0), np.array([1.0, 2.0])))
            g1 = channel.publish((np.full((2, 3), 2.0), np.array([3.0, 4.0])))
            assert (g0, g1) == (0, 1)
            # Both live slots readable; generation 0 survives until gen 2.
            assert descriptor.read(1)[0].flat[0] == 2.0
            assert descriptor.read(0)[0].flat[0] == 1.0
            g2 = channel.publish((np.full((2, 3), 3.0), np.array([5.0, 6.0])))
            assert descriptor.read(2)[1].tolist() == [5.0, 6.0]
            with pytest.raises(ConfigurationError):
                descriptor.read(0)  # slot overwritten by generation 2
        finally:
            detach_all()  # this process attached as the "worker"
            channel.close()

    def test_shape_mismatch_rejected(self):
        channel = Broadcast("c", (np.zeros((2, 3)),), SHM)
        try:
            with pytest.raises(ConfigurationError):
                channel.publish((np.zeros((3, 2)),))
            with pytest.raises(ConfigurationError):
                channel.publish((np.zeros((2, 3)), np.zeros(2)))
        finally:
            channel.close()

    def test_close_unlinks_segment(self):
        before = _live_segments()
        channel = Broadcast("c", (np.zeros(4),), SHM)
        (name,) = _live_segments() - before
        channel.close()
        channel.close()
        assert name not in _live_segments()
        with pytest.raises(ConfigurationError):
            channel.publish((np.zeros(4),))


@needs_shm
class TestGather:
    SLOTS = [((np.int64, 3), (np.float64, 4)), ((np.int64, 1), (np.float64, 0))]

    def test_local_gather_hands_results_back(self):
        gather = Gather("g", [((np.int64, 3),)], REFERENCE)
        a = np.arange(3, dtype=np.int64)
        returned = gather.descriptor().put(0, (a,))
        assert gather.take(0, returned)[0] is a

    def test_declared_table_checks_the_first_put(self):
        gather = Gather("g", self.SLOTS, REFERENCE)
        with pytest.raises(ConfigurationError, match="dtype"):
            gather.put(0, (np.array([1.7, 2.9]), np.empty(0)))
        with pytest.raises(ConfigurationError, match="capacity"):
            gather.put(0, (np.arange(4), np.empty(0)))

    @needs_shm
    def test_arena_slots_round_trip_by_prefix(self):
        plane = Plane(SHM)
        try:
            gather = plane.track(Gather("g", self.SLOTS, SHM))
            worker = pickle.loads(pickle.dumps(gather.descriptor()))
            assert worker.put(0, (np.array([7, 8]), np.array([0.5]))) is None
            assert worker.put(1, (np.array([9]), np.empty(0))) is None
            ids, values = gather.take(0, None)
            assert ids.tolist() == [7, 8] and values.tolist() == [0.5]
            # A rewrite (next iteration, retry) replaces the slot.
            worker.put(0, (np.array([1, 2, 3]), np.arange(4.0)))
            ids, values = gather.take(0, None)
            assert ids.tolist() == [1, 2, 3] and values.tolist() == [0, 1, 2, 3]
            assert gather.take(1, None)[0].tolist() == [9]
            with pytest.raises(ConfigurationError, match="capacity"):
                worker.put(1, (np.array([1, 2]), np.empty(0)))
        finally:
            detach_all()  # this process attached as the "worker"
            plane.close()

    @needs_shm
    def test_views_outlive_the_closed_segment(self):
        plane = Plane(SHM)
        handle = plane.track(
            Segment("rows", [("values", np.float64, (4,))], shared=True)
        )
        values = handle.resolve()["values"]
        values[:] = [1.0, 2.0, 3.0, 4.0]
        name = handle.descriptor().segment
        plane.close()
        # Unlinked, but the view still owns a live mapping.
        assert name not in _live_segments() and not handle.live
        assert values.sum() == 10.0


@needs_shm
class TestShmPlane:
    def test_close_releases_every_handle(self):
        plane = Plane(SHM)
        before = _live_segments()
        plane.track(Segment("a", arrays={"x": np.zeros(8)}, shared=True))
        plane.track(Broadcast("b", (np.zeros(8),), SHM))
        plane.track(Gather("g", [((np.int64, 2),)], SHM))
        names = _live_segments() - before
        assert len(names) == 3
        plane.close()
        assert not names & _live_segments()
        plane.close()  # idempotent

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd"
    )
    def test_place_resolve_close_leaks_no_descriptor(self):
        def cycle(keep_view: bool):
            handle = Segment("t", arrays={"a": np.arange(8.0)}, shared=True)
            view = handle.resolve()["a"]
            if not keep_view:
                del view
                handle.close()
                return
            # A view alive at close: the BufferError path of the unmap.
            handle.close()
            assert view.sum() == 28.0

        cycle(True)  # warm-up: first-use descriptors are not leaks
        before = len(os.listdir("/proc/self/fd"))
        for at in range(200):
            cycle(keep_view=at % 2 == 0)
        assert len(os.listdir("/proc/self/fd")) == before


# -- the write gate: one check on every transport -----------------------------------

TRANSPORTS = [
    pytest.param(lambda: make_backend("threads", 1), id="reference"),
    pytest.param(lambda: make_backend("processes", 1, shm=False), id="value"),
    pytest.param(
        lambda: make_backend("processes", 1, shm=True), id="shm", marks=needs_shm
    ),
]


@pytest.mark.parametrize("backend_factory", TRANSPORTS)
class TestWriteGate:
    """Broadcast and gather writes are checked the same way whichever
    transport carries them (no pool is started: writes run here)."""

    SLOTS = [((np.int64, 3), (np.float64, 3))]

    def test_broadcast_rejects_shape_dtype_and_arity(self, backend_factory):
        with backend_factory() as backend:
            channel = backend.open_broadcast("c", (np.zeros((2, 3)),))
            for wrong in (
                (np.zeros((3, 2)),),
                (np.zeros((2, 3), dtype=np.float32),),
                (np.zeros((2, 3)), np.zeros(2)),
            ):
                with pytest.raises(ConfigurationError):
                    backend.broadcast(channel, wrong)
            token = backend.broadcast(channel, (np.ones((2, 3)),))
            assert channel.read(token)[0].tolist() == np.ones((2, 3)).tolist()
            channel.close()

    def test_gather_put_rejects_wrong_arity(self, backend_factory):
        with backend_factory() as backend:
            gather = backend.open_gather("g", lambda: self.SLOTS)
            worker = pickle.loads(pickle.dumps(gather.descriptor()))
            try:
                first = worker.put(0, (np.array([1, 2, 3]), np.full(3, 9.0)))
                assert gather.take(0, first)[1].tolist() == [9.0, 9.0, 9.0]
                with pytest.raises(ConfigurationError, match="expects 2 arrays"):
                    worker.put(0, (np.array([4]),))
            finally:
                detach_all()
                gather.close()

    def test_gather_put_rejects_wrong_dtype(self, backend_factory):
        with backend_factory() as backend:
            gather = backend.open_gather("g", lambda: self.SLOTS)
            worker = pickle.loads(pickle.dumps(gather.descriptor()))
            try:
                worker.put(0, (np.array([1, 2]), np.empty(0)))
                with pytest.raises(ConfigurationError, match="dtype"):
                    worker.put(0, (np.array([1.7, 2.9]), np.empty(0)))
            finally:
                detach_all()
                gather.close()

    def test_slot_table_is_built_only_for_an_arena(self, backend_factory):
        calls = []
        with backend_factory() as backend:
            gather = backend.open_gather("g", lambda: calls.append(1) or self.SLOTS)
            gather.close()
        assert len(calls) == (1 if backend.plane.shared else 0)


@needs_shm
def test_planned_process_run_bills_the_run_ipc():
    """A phase backend the planner builds bills the run's counters, the
    same segments and broadcasts as a caller-passed backend."""
    corpus = generate_corpus(MIX_PROFILE, scale=0.002, seed=7)

    def run(**how):
        return run_pipeline(
            corpus, tfidf=TfIdfOperator(), kmeans=KMeansOperator(max_iters=3),
            **how,
        )

    plan = RealPlan(
        phases={
            phase: PhasePlan(phase, "processes", 2, True)
            for phase in ("input+wc", "transform", "kmeans")
        },
        calibration="test",
        n_docs=len(corpus),
    )
    planned = run(plan=plan).ipc["total"]
    with ProcessBackend(2, shm=True) as backend:
        passed = run(backend=backend).ipc["total"]
    for key in ("segments", "segment_bytes", "broadcasts"):
        assert planned[key] == passed[key] > 0, key


class TestBackendPlane:
    def test_in_process_backends_do_not_use_shm(self):
        with ThreadBackend(2) as backend:
            a = np.arange(3.0)
            handle = backend.share_arrays("t", {"a": a})
            assert handle.resolve()["a"] is a  # zero copies, trivially
            channel = backend.open_broadcast("c", (a,))
            generation = backend.broadcast(channel, (a,))
            assert channel.read(generation)[0] is a
            assert backend.bill.ipc.total().segments == 0

    @needs_shm
    def test_process_backend_share_and_map(self):
        with ProcessBackend(2, shm=True) as backend:
            handle = backend.share_arrays(
                "t", {"a": np.arange(6, dtype=np.float64)}
            )
            out = backend.map(_read_shared, [handle.descriptor()])
            assert out == [{"a": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}]
            assert backend.bill.ipc.total().segments == 1
        # close() unlinked the plane's segments
        assert handle.descriptor().segment not in _live_segments()

    def test_shm_disabled_backend_shares_by_value(self):
        # No segment anywhere: the descriptor carries the placed arrays,
        # the broadcast token carries the published ones.
        with ProcessBackend(2, shm=False) as backend:
            handle = backend.share_arrays(
                "t", {"a": np.arange(6, dtype=np.float64)}
            )
            out = backend.map(_read_shared, [handle.descriptor()])
            assert out == [{"a": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}]
            channel = backend.open_broadcast("c", (np.zeros(2),))
            token = backend.broadcast(channel, (np.ones(2),))
            descriptor = pickle.loads(pickle.dumps(channel.descriptor()))
            assert descriptor.read(token)[0].tolist() == [1.0, 1.0]
            assert backend.bill.ipc.total().segments == 0
            assert backend.bill.ipc.total().broadcasts == 1

    @needs_shm
    def test_configure_recycle_keeps_segments_alive(self):
        backend = ProcessBackend(2, shm=True)
        try:
            handle = backend.share_arrays("t", {"a": np.ones(4)})
            name = handle.descriptor().segment
            backend.configure(kernels.init_wordcount_worker, (None,))
            backend.configure(kernels.init_wordcount_worker, ("again",))
            assert name in _live_segments()  # pool recycling must not unlink
        finally:
            backend.close()
        assert name not in _live_segments()

    @needs_shm
    def test_worker_crash_unlinks_segments(self):
        from concurrent.futures.process import BrokenProcessPool

        backend = ProcessBackend(2, shm=True)
        try:
            handle = backend.share_arrays("t", {"a": np.ones(4)})
            name = handle.descriptor().segment
            with pytest.raises(BrokenProcessPool):
                backend.map(_crash_worker, range(8))
            # The crash path must have performed a *full* close: pool reset
            # and every segment unlinked — nothing left to leak.
            assert name not in _live_segments()
        finally:
            backend.close()


@needs_shm
class TestKMeansIpcIndependence:
    """The acceptance criterion: per-iteration task bytes vs block count."""

    @staticmethod
    def _matrix(n_docs: int, n_cols: int = 64, seed: int = 0) -> CsrMatrix:
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n_docs):
            nnz = int(rng.integers(3, 9))
            cols = np.sort(rng.choice(n_cols, size=nnz, replace=False))
            vals = rng.random(nnz) + 0.1
            rows.append(SparseVector(cols.tolist(), vals.tolist()))
        return CsrMatrix.from_rows(rows, n_cols=n_cols)

    def _kmeans_task_bytes_per_iter(self, matrix: CsrMatrix, shm: bool) -> float:
        operator = KMeansOperator(n_clusters=4, max_iters=2, seed=1)
        backend = ProcessBackend(2, shm=shm)
        try:
            result = operator.fit(matrix, backend=backend)
            kmeans = backend.bill.ipc.phase_stats("kmeans")
            return kmeans.task_pickle_bytes / result.n_iters
        finally:
            backend.close()

    def test_task_bytes_independent_of_block_count(self):
        # At 32-doc grain, 1024 docs → 32 blocks and 2048 docs → 64
        # blocks; with 2 workers both exceed the 16-span cap, so each
        # iteration submits exactly 16 constant-size tokens either way.
        few_blocks = self._matrix(1024)
        many_blocks = self._matrix(2048)
        few = self._kmeans_task_bytes_per_iter(few_blocks, shm=True)
        many = self._kmeans_task_bytes_per_iter(many_blocks, shm=True)
        # Span tasks are constant-size tokens and the span count depends
        # only on the worker count, so 2x the blocks = the same bytes.
        assert many == few

    def test_shm_cuts_per_iteration_task_bytes(self):
        matrix = self._matrix(2048)
        pickled = self._kmeans_task_bytes_per_iter(matrix, shm=False)
        shm = self._kmeans_task_bytes_per_iter(matrix, shm=True)
        # One pickled K×V centroid copy per span (16 here; it was one per
        # block, 64, before the by-value route took the span shape) vs
        # as many constant-size tokens: a multiple, not a percentage.
        assert shm < pickled / 10

    def test_output_identical_with_and_without_shm(self):
        matrix = self._matrix(512, seed=3)
        results = {}
        for shm in (False, True):
            backend = ProcessBackend(2, shm=shm)
            try:
                results[shm] = KMeansOperator(
                    n_clusters=4, max_iters=4, seed=2
                ).fit(matrix, backend=backend)
            finally:
                backend.close()
        assert results[False].assignments == results[True].assignments
        assert (results[False].centroids == results[True].centroids).all()
        assert results[False].inertia_history == results[True].inertia_history


class TestBlockSpans:
    def test_covers_all_blocks_in_order(self):
        spans = _block_spans(64, 2)
        assert spans[0][0] == 0
        assert spans[-1][1] == 64
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert len(spans) == 16  # min(64, 8*2)

    def test_fewer_blocks_than_spans(self):
        assert _block_spans(3, 2) == [(0, 1), (1, 2), (2, 3)]

    def test_span_count_independent_of_block_count(self):
        assert len(_block_spans(64, 2)) == len(_block_spans(640, 2)) == 16
