"""Tests for the bounded-prefetch parallel corpus reader (paper §3.2)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.pipeline import PHASE_READ, run_pipeline
from repro.errors import ConfigurationError, StorageError
from repro.io.corpus_io import store_corpus
from repro.io.parallel_read import (
    DocumentStream,
    batch_files,
    corpus_stream,
    default_prefetch,
    read_paths,
)
from repro.io.storage import FsStorage, MemStorage
from repro.text.synth import MIX_PROFILE, generate_corpus


def _populate(storage, n=12):
    paths = [f"doc-{i:03d}.txt" for i in range(n)]
    for i, path in enumerate(paths):
        storage.write(path, f"contents of document {i} " * (i + 1))
    return paths


class SlowFirstStorage(MemStorage):
    """Earlier paths sleep longer, so later reads complete first."""

    def read(self, path):
        index = int(path.split("-")[1].split(".")[0])
        if index < 4:
            time.sleep(0.05 * (4 - index))
        return super().read(path)


class CountingStorage(MemStorage):
    """Counts reads started, so tests can bound the in-flight window."""

    def __init__(self):
        super().__init__()
        self.started = 0
        self._lock = threading.Lock()

    def read(self, path):
        with self._lock:
            self.started += 1
        return super().read(path)


class TestReadPaths:
    def test_serial_matches_storage(self):
        storage = MemStorage()
        paths = _populate(storage)
        triples = list(read_paths(storage, paths, workers=1))
        assert [p for p, _, _ in triples] == paths
        assert [t for _, t, _ in triples] == [storage.read_data(p) for p in paths]

    def test_ordered_despite_out_of_order_completion(self):
        storage = SlowFirstStorage()
        paths = _populate(storage, n=10)
        triples = list(read_paths(storage, paths, workers=4, prefetch=8))
        # Reads for later paths finished first, delivery order must not.
        assert [p for p, _, _ in triples] == paths
        assert [t for _, t, _ in triples] == [storage.read_data(p) for p in paths]

    def test_per_file_costs_preserved(self):
        storage = MemStorage()
        paths = _populate(storage)
        for _, text, cost in read_paths(storage, paths, workers=3):
            assert cost.disk_read_bytes == len(text)
            assert cost.disk_opens == 1

    def test_bounded_prefetch_backpressure(self):
        storage = CountingStorage()
        paths = _populate(storage, n=24)
        prefetch = 5
        delivered = 0
        peak = 0
        for _ in read_paths(storage, paths, workers=4, prefetch=prefetch):
            delivered += 1
            # Stall the consumer so the pool would run ahead if it could.
            time.sleep(0.002)
            peak = max(peak, storage.started - delivered)
        assert delivered == len(paths)
        # In-flight files (submitted, not yet delivered) never exceed the
        # window, even while the consumer sits on a document.
        assert peak <= prefetch

    def test_missing_file_raises_naming_path(self):
        storage = MemStorage()
        paths = _populate(storage, n=6)
        paths.insert(3, "ghost.txt")
        with pytest.raises(StorageError, match="ghost.txt"):
            list(read_paths(storage, paths, workers=2))

    def test_rejects_bad_worker_and_prefetch_counts(self):
        storage = MemStorage()
        with pytest.raises(ConfigurationError):
            list(read_paths(storage, [], workers=0))
        with pytest.raises(ConfigurationError):
            list(read_paths(storage, ["a"], workers=2, prefetch=0))

    def test_early_exit_does_not_hang(self):
        storage = MemStorage()
        paths = _populate(storage, n=20)
        reads = read_paths(storage, paths, workers=4, prefetch=4)
        assert next(reads)[0] == paths[0]
        reads.close()  # abandoning mid-stream must release the pool


class ThreadLogStorage(MemStorage):
    """Logs ``(reader thread, path)`` in the order reads start."""

    def __init__(self):
        super().__init__()
        self.log = []
        self._lock = threading.Lock()

    def read(self, path):
        with self._lock:
            self.log.append((threading.get_ident(), path))
        time.sleep(0.001)  # long enough for the other reader to interleave
        return super().read(path)


class TestBatches:
    """One reader task is a contiguous batch of files on one thread."""

    def test_batch_size_fits_the_window(self):
        assert batch_files(2, default_prefetch(2)) == 32
        assert batch_files(2, 16) == 4
        assert batch_files(4, 5) == 1

    def test_each_batch_is_read_consecutively_on_one_thread(self):
        storage = ThreadLogStorage()
        paths = _populate(storage, n=40)
        size = batch_files(2, 16)
        assert [p for p, _, _ in read_paths(
            storage, paths, workers=2, prefetch=16
        )] == paths
        by_thread: dict = {}
        for thread, path in storage.log:
            by_thread.setdefault(thread, []).append(path)
        for at in range(0, len(paths), size):
            batch = paths[at:at + size]
            readers = [t for t, run in by_thread.items() if batch[0] in run]
            assert len(readers) == 1
            run = by_thread[readers[0]]
            first = run.index(batch[0])
            assert run[first:first + len(batch)] == batch

    def test_missing_file_mid_batch_delivers_earlier_paths_then_raises(self):
        storage = MemStorage()
        paths = _populate(storage, n=20)
        assert batch_files(2, 16) == 4
        paths.insert(6, "ghost.txt")  # third file of the second batch
        delivered = []
        with pytest.raises(StorageError, match="ghost.txt"):
            for path, _, _ in read_paths(
                storage, paths, workers=2, prefetch=16
            ):
                delivered.append(path)
        assert delivered == paths[:6]


class TestDefaultPrefetch:
    def test_scales_with_workers(self):
        assert default_prefetch(1) >= 2
        assert default_prefetch(4) == 512


class TestDocumentStream:
    def test_yields_documents_in_order_with_metering(self):
        storage = MemStorage()
        paths = _populate(storage, n=8)
        stream = DocumentStream(storage, paths, workers=3)
        assert len(stream) == 8
        docs = list(stream)
        assert [d.doc_id for d in docs] == list(range(8))
        assert [d.name for d in docs] == paths
        assert stream.n_read == 8
        assert stream.bytes_read == sum(len(d.text) for d in docs)
        assert stream.total_cost.disk_read_bytes == stream.bytes_read
        assert stream.total_cost.disk_opens == 8

    def test_single_use(self):
        storage = MemStorage()
        stream = DocumentStream(storage, _populate(storage, n=3))
        list(stream)
        with pytest.raises(StorageError, match="single-use"):
            list(stream)

    @pytest.mark.parametrize("prefetch", [0, -3])
    def test_bad_prefetch_is_refused_at_construction(self, prefetch):
        # Serial reads never consult the window, so it is checked here,
        # not when the first read would use it.
        storage = MemStorage()
        _populate(storage, n=3)
        with pytest.raises(ConfigurationError, match="prefetch"):
            corpus_stream(storage, workers=1, prefetch=prefetch)

    def test_corpus_stream_lists_by_prefix(self):
        storage = MemStorage()
        _populate(storage, n=5)
        storage.write("other/unrelated.txt", "not a document")
        stream = corpus_stream(storage, prefix="doc-", workers=2)
        assert len(stream) == 5
        assert [d.name for d in stream] == [f"doc-{i:03d}.txt" for i in range(5)]

    def test_close_is_idempotent_and_safe_before_and_after_iteration(self):
        storage = MemStorage()
        stream = DocumentStream(storage, _populate(storage, n=4), workers=2)
        stream.close()  # before iteration: nothing to tear down
        docs = list(stream)
        assert len(docs) == 4
        stream.close()  # after clean exhaustion
        stream.close()  # double-close

    def test_close_mid_stream_releases_reader_threads(self):
        storage = MemStorage()
        stream = DocumentStream(storage, _populate(storage, n=20), workers=3)
        iterator = iter(stream)
        assert next(iterator).doc_id == 0
        assert _reader_threads(), "reader pool should be running mid-stream"
        stream.close()
        _assert_no_reader_threads()

    def test_records_read_spans_when_armed(self):
        from repro.exec.inline import RunBill

        storage = MemStorage()
        paths = _populate(storage, n=6)
        bill = RunBill()
        recorder = bill.spans
        recorder.begin_run()
        stream = DocumentStream(storage, paths, workers=2)
        stream.bill = bill
        docs = list(stream)
        spans = recorder.spans
        assert len(spans) == 6
        assert all(s.phase == "read" for s in spans)
        assert sorted(s.task_id for s in spans) == list(range(6))
        assert sum(s.out_bytes for s in spans) == sum(len(d.text) for d in docs)
        # Reader threads are distinct lanes; serial input would be one.
        assert recorder.n_lanes >= 1

    def test_disarmed_recorder_records_nothing(self):
        from repro.exec.inline import RunBill

        storage = MemStorage()
        stream = DocumentStream(storage, _populate(storage, n=3), workers=2)
        stream.bill = RunBill()  # spans never armed
        list(stream)
        assert stream.bill.spans.spans == []


def _reader_threads():
    return [
        t for t in threading.enumerate()
        if t.name.startswith("repro-read") and t.is_alive()
    ]


def _assert_no_reader_threads(timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _reader_threads():
            return
        time.sleep(0.01)
    raise AssertionError(
        f"reader threads leaked: {[t.name for t in _reader_threads()]}"
    )


class TestPipelineEquivalence:
    """Streamed input must be bit-identical to the materialized baseline."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(MIX_PROFILE, scale=0.002, seed=7)

    def _run_streamed(self, storage, workers, prefetch=None):
        stream = corpus_stream(storage, workers=workers, prefetch=prefetch)
        return run_pipeline(stream), stream

    def _assert_identical(self, a, b):
        ma, mb = a.tfidf.matrix, b.tfidf.matrix
        assert (ma.n_rows, ma.n_cols) == (mb.n_rows, mb.n_cols)
        for ra, rb in zip(ma.iter_rows(), mb.iter_rows()):
            assert ra.indices == rb.indices
            assert ra.values == rb.values
        assert a.kmeans.assignments == b.kmeans.assignments

    @pytest.mark.parametrize("make_storage", [MemStorage, "fs"])
    def test_parallel_read_matches_serial(self, corpus, make_storage, tmp_path):
        storage = (
            FsStorage(str(tmp_path / "corpus"))
            if make_storage == "fs"
            else make_storage()
        )
        store_corpus(storage, corpus)
        baseline = run_pipeline(corpus)
        serial, _ = self._run_streamed(storage, workers=1)
        parallel, stream = self._run_streamed(storage, workers=4, prefetch=6)
        self._assert_identical(serial, baseline)
        self._assert_identical(parallel, baseline)
        assert stream.n_read == len(corpus)

    def test_streamed_run_reports_read_phase(self, corpus, tmp_path):
        storage = FsStorage(str(tmp_path / "corpus"))
        store_corpus(storage, corpus)
        result, _ = self._run_streamed(storage, workers=2)
        assert PHASE_READ in result.phase_seconds
        assert result.phase_seconds[PHASE_READ] >= 0.0
        # A materialized corpus has no read phase (legacy accounting).
        assert PHASE_READ not in run_pipeline(corpus).phase_seconds


class TestMidRunFailureCleanup:
    """A phase that raises mid-run must not leak the stream's readers."""

    class _BoomWordcount:
        """Stands in for the wordcount step: consumes a little, then dies."""

        def run(self, corpus, backend=None):
            for i, _ in enumerate(corpus):
                if i >= 2:
                    raise RuntimeError("phase exploded mid-stream")
            raise AssertionError("stream should outlast two documents")

    def test_phase_error_mid_stream_does_not_leak_reader_threads(self):
        from repro.ops.tfidf import TfIdfOperator

        storage = MemStorage()
        paths = _populate(storage, n=30)
        stream = DocumentStream(storage, paths, workers=3, prefetch=4)
        tfidf = TfIdfOperator()
        tfidf.wordcount = self._BoomWordcount()
        with pytest.raises(RuntimeError, match="phase exploded"):
            run_pipeline(stream, tfidf=tfidf)
        _assert_no_reader_threads()

    def test_post_stream_phase_error_still_cleans_up(self):
        """An error *after* the stream is exhausted hits the same finally."""
        from repro.ops.kmeans import KMeansOperator
        from repro.ops.tfidf import TfIdfOperator

        class BoomKMeans(KMeansOperator):
            def fit(self, matrix, backend=None):
                raise RuntimeError("kmeans exploded")

        storage = MemStorage()
        stream = DocumentStream(storage, _populate(storage, n=8), workers=2)
        with pytest.raises(RuntimeError, match="kmeans exploded"):
            run_pipeline(stream, tfidf=TfIdfOperator(), kmeans=BoomKMeans())
        _assert_no_reader_threads()


class FlakyStorage(MemStorage):
    """Raises transient OSError on the first ``failures`` reads per path."""

    def __init__(self, failures=2, flaky_paths=None):
        super().__init__()
        self.failures = failures
        self.flaky_paths = flaky_paths
        self.attempts = {}
        self._lock = threading.Lock()

    def read(self, path):
        with self._lock:
            seen = self.attempts.get(path, 0)
            self.attempts[path] = seen + 1
        flaky = self.flaky_paths is None or path in self.flaky_paths
        if flaky and seen < self.failures:
            raise OSError(5, "simulated transient I/O error", path)
        return super().read(path)


class TestReaderRetry:
    """Reader threads absorb transient OSError under a retry policy."""

    def _retry(self, attempts=3):
        from repro.exec.resilience import RetryPolicy

        return RetryPolicy(max_attempts=attempts, backoff_base_s=0.0)

    def test_transient_oserror_is_absorbed(self):
        storage = FlakyStorage(failures=2, flaky_paths={"doc-003.txt"})
        paths = _populate(storage)
        triples = list(
            read_paths(storage, paths, workers=3, retry=self._retry())
        )
        assert [p for p, _, _ in triples] == paths
        assert storage.attempts["doc-003.txt"] == 3
        assert [t for _, t, _ in triples] == [storage.read_data(p) for p in paths]

    def test_exhaustion_names_the_failing_path(self):
        storage = FlakyStorage(failures=99, flaky_paths={"doc-001.txt"})
        paths = _populate(storage, n=4)
        with pytest.raises(StorageError, match=r"doc-001\.txt.*3 attempt"):
            list(read_paths(storage, paths, workers=2, retry=self._retry(3)))
        assert storage.attempts["doc-001.txt"] == 3

    def test_missing_file_stays_eager(self):
        # StorageError from the storage itself is permanent: no retries.
        storage = CountingStorage()
        _populate(storage, n=2)
        with pytest.raises(StorageError):
            list(
                read_paths(
                    storage,
                    ["doc-000.txt", "nope.txt"],
                    workers=1,
                    retry=self._retry(5),
                )
            )
        assert storage.started <= 2  # no re-reads of the missing path

    def test_stream_passes_retry_through(self):
        storage = FlakyStorage(failures=1)
        paths = _populate(storage, n=8)
        stream = DocumentStream(
            storage, paths, workers=2, retry=self._retry()
        )
        corpus = [doc for doc in stream]
        assert len(corpus) == 8
        # Every path failed once and was re-read.
        assert all(storage.attempts[p] == 2 for p in paths)

    def test_without_policy_transient_error_is_fatal(self):
        storage = FlakyStorage(failures=1)
        paths = _populate(storage, n=4)
        with pytest.raises(OSError):
            list(read_paths(storage, paths, workers=2))
