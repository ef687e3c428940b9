"""Parallel input: overlapped, ordered corpus reading with bounded prefetch.

The paper's optimization #2 (§3.2) reads the many input files of a corpus
concurrently so that disk latency overlaps with computation instead of
serializing in front of it. This module is that optimization for the real
execution path:

* :func:`read_paths` reads a list of files on a pool of **reader threads**
  — sized independently of the compute pool, since file reads release the
  GIL — and yields ``(path, text, cost)`` triples strictly in input order,
  no matter which read finished first.
* Each reader task is a **batch** of contiguous files read back to back
  on one thread, so the pool pays its per-task cost (a future, a queue
  hand-off, a consumer wake-up) once per batch, not once per file.
* A **bounded prefetch window** provides backpressure: at most ``prefetch``
  files are in flight (submitted but not yet delivered) at any moment, so
  a fast disk cannot balloon memory ahead of a slow consumer. The default
  window covers one word-count chunk, so the readers fill the next chunk
  while the consumer counts this one.
* :class:`DocumentStream` wraps the triples into
  :class:`~repro.text.corpus.Document` objects and meters the traffic: the
  per-file :class:`~repro.exec.task.TaskCost` aggregate (so simulated and
  real runs bill the same I/O) and ``wait_seconds`` — the time the consumer
  actually spent blocked on reads, which :func:`repro.core.pipeline.run_pipeline`
  reports as the ``read`` phase.

Errors propagate eagerly and in order: the files before a failing one are
delivered, then its :class:`~repro.errors.StorageError` (a missing file,
a file that is not UTF-8) is raised naming the offending path, and all
not-yet-started reads are cancelled.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Iterable, Iterator

from repro.errors import ConfigurationError, StorageError
from repro.exec.inline import RunBill
from repro.exec.resilience import RetryPolicy, run_attempts
from repro.exec.task import TaskCost
from repro.io.corpus_io import corpus_paths
from repro.io.storage import Storage
from repro.text.corpus import Document

__all__ = [
    "read_paths",
    "DocumentStream",
    "corpus_stream",
    "default_prefetch",
    "batch_files",
    "DEFAULT_PREFETCH_PER_WORKER",
]

#: Span phase label for file reads (matches
#: :data:`repro.core.pipeline.PHASE_READ`; defined here too so this
#: module does not import the pipeline).
_READ_PHASE = "read"

#: Default in-flight files per reader thread: four full batches each. Two
#: readers then hold 256 files, one whole word-count chunk of a streamed
#: corpus of ~2,000 documents (a sequential backend counts an eighth at a
#: time), so they fill the next chunk while the consumer counts this one;
#: for abstract-sized documents that is a few hundred kB of text.
DEFAULT_PREFETCH_PER_WORKER = 128

#: Most files one reader task reads back to back.
_BATCH_FILES = 32


def default_prefetch(workers: int) -> int:
    """Prefetch window used when the caller does not pick one."""
    return max(2, workers * DEFAULT_PREFETCH_PER_WORKER)


def batch_files(workers: int, prefetch: int) -> int:
    """Files per reader task: :data:`_BATCH_FILES`, shrunk so the window
    of ``prefetch`` files still holds two batches per reader."""
    return max(1, min(_BATCH_FILES, prefetch // (2 * workers)))


def read_paths(
    storage: Storage,
    paths: Iterable[str],
    *,
    workers: int = 1,
    prefetch: int | None = None,
    bill: RunBill | None = None,
    retry: RetryPolicy | None = None,
) -> Iterator[tuple[str, str, TaskCost]]:
    """Yield ``(path, contents, cost)`` for every path, in input order.

    ``workers`` is the reader-thread count; ``workers=1`` reads inline with
    no pool (the serial baseline). ``prefetch`` bounds the number of files
    in flight — submitted to the pool but not yet delivered — and defaults
    to :func:`default_prefetch`; the pool reads them in batches of
    :func:`batch_files` contiguous files per task. When ``bill``'s spans
    are armed, each file read is captured as a ``read``-phase span, with
    a task id from the bill, on the thread that performed it. A ``retry``
    policy re-reads a file whose read failed with a *transient*
    :class:`OSError` (deterministic backoff, per the policy); a read that
    exhausts the budget raises :class:`~repro.errors.StorageError` naming
    the failing path. Missing files (:class:`StorageError` from the
    storage itself) stay eager — they are not transient.
    """
    if workers < 1:
        raise ConfigurationError(f"read workers must be >= 1, got {workers}")
    paths = list(paths)
    read = _reader(storage, bill, retry)
    if workers == 1:
        for path in paths:
            text, cost = read(path)
            yield path, text, cost
        return
    if prefetch is None:
        prefetch = default_prefetch(workers)
    if prefetch < 1:
        raise ConfigurationError(f"prefetch must be >= 1, got {prefetch}")
    yield from _read_overlapped(read, paths, workers, prefetch)


def _reader(
    storage: Storage,
    bill: RunBill | None,
    retry: RetryPolicy | None = None,
):
    """Plain ``storage.read``, or a wrapper that records one span per file.

    With a ``retry`` policy, the read is additionally hardened against
    transient :class:`OSError` (EIO, EAGAIN, a flaky network mount): it is
    re-attempted under the policy's deterministic backoff, and exhaustion
    surfaces as a :class:`StorageError` that names the failing path and
    the attempt count. Only ``OSError`` is retried — a
    :class:`StorageError` from the storage itself (missing file) is a
    *permanent* condition and stays eager.
    """
    if bill is None or not bill.spans.enabled:
        base = storage.read
    else:
        recorder = bill.spans

        def traced_read(path: str) -> tuple[str, TaskCost]:
            t_start = recorder.now()
            text, cost = storage.read(path)
            recorder.record(
                t_start,
                recorder.now(),
                phase=_READ_PHASE,
                task_id=bill.next_task_id(_READ_PHASE),
                n_items=1,
                out_bytes=len(text),
            )
            return text, cost

        base = traced_read
    if retry is None or not retry.enabled:
        return base
    io_retry = replace(retry, retryable_exceptions=(OSError,))

    def resilient_read(path: str) -> tuple[str, TaskCost]:
        try:
            return run_attempts(io_retry, f"read:{path}", lambda attempt: base(path))
        except OSError as exc:
            attempts = getattr(exc, "attempts", 1)
            raise StorageError(
                f"read of {path!r} failed after {attempts} attempt(s): {exc}"
            ) from exc

    return resilient_read


def _read_batch(read, batch: list[str]):
    """Read ``batch`` in order on this thread -> ``(triples, error)``:
    the files read before the first failure, and that failure."""
    done = []
    for path in batch:
        try:
            text, cost = read(path)
        except Exception as exc:
            return done, exc
        done.append((path, text, cost))
    return done, None


def _read_overlapped(
    read, paths: list[str], workers: int, prefetch: int
) -> Iterator[tuple[str, str, TaskCost]]:
    size = batch_files(workers, prefetch)
    batches = (paths[at:at + size] for at in range(0, len(paths), size))
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-read")
    pending: deque = deque()
    try:
        for batch in itertools.islice(batches, prefetch // size):
            pending.append(pool.submit(_read_batch, read, batch))
        while pending:
            done, error = pending.popleft().result()
            if error is not None:
                for queued in pending:
                    queued.cancel()
            yield from done
            if error is not None:
                raise error
            # Top up *after* the batch is delivered: in-flight files never
            # exceed the prefetch window even while the consumer is busy.
            for batch in itertools.islice(batches, 1):
                pending.append(pool.submit(_read_batch, read, batch))
    finally:
        # Abandoned mid-iteration (consumer error / early exit): drop the
        # window before waiting out whatever already started.
        for queued in pending:
            queued.cancel()
        pool.shutdown(wait=True)


class DocumentStream:
    """Single-use, ordered stream of documents read with overlap.

    Iterating yields :class:`~repro.text.corpus.Document` objects with
    sequential ids, in path order. The length is known upfront
    (``len(stream)``), which lets consumers pick chunk grains before the
    first byte arrives. After (even partial) consumption the stream
    carries its traffic accounting:

    ``total_cost``
        Aggregate per-file :class:`TaskCost` — the same I/O bill the
        simulator charges.
    ``wait_seconds``
        Wall-clock time the *consumer* spent blocked waiting for reads;
        with enough reader threads this approaches zero and the input
        phase disappears behind compute.
    ``bytes_read`` / ``n_read``
        Text bytes and file count actually delivered.

    Setting ``bill`` to a :class:`~repro.exec.inline.RunBill` with armed
    spans before iterating captures one ``read``-phase span per file.
    :meth:`close` tears down the reader pool early — safe to call at any
    point, including after normal exhaustion — so a consumer that aborts
    mid-stream does not leak reader threads.
    """

    def __init__(
        self,
        storage: Storage,
        paths: Iterable[str],
        *,
        workers: int = 1,
        prefetch: int | None = None,
        name: str = "corpus",
        retry: RetryPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"read workers must be >= 1, got {workers}")
        if prefetch is not None and prefetch < 1:
            raise ConfigurationError(f"prefetch must be >= 1, got {prefetch}")
        self.storage = storage
        self.paths = list(paths)
        self.workers = workers
        self.prefetch = prefetch if prefetch is not None else default_prefetch(workers)
        self.name = name
        #: Optional :class:`~repro.exec.resilience.RetryPolicy` for
        #: transient read failures (see :func:`read_paths`).
        self.retry = retry
        self.total_cost = TaskCost()
        self.wait_seconds = 0.0
        self.bytes_read = 0
        self.n_read = 0
        self.bill: RunBill | None = None
        self._consumed = False
        self._active: Iterator[Document] | None = None

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Document]:
        if self._consumed:
            raise StorageError(
                f"document stream {self.name!r} is single-use; build a new one"
            )
        self._consumed = True
        self._active = self._generate()
        return self._active

    def close(self) -> None:
        """Tear down the reader pool if iteration was abandoned mid-stream.

        Closing the active generator runs its ``finally`` clause, which
        closes the underlying :func:`read_paths` generator and shuts the
        reader pool down. Idempotent; a no-op when iteration never started
        or already finished cleanly.
        """
        active, self._active = self._active, None
        if active is not None:
            active.close()  # type: ignore[attr-defined]

    def _generate(self) -> Iterator[Document]:
        reads = read_paths(
            self.storage,
            self.paths,
            workers=self.workers,
            prefetch=self.prefetch,
            bill=self.bill,
            retry=self.retry,
        )
        try:
            doc_id = 0
            while True:
                blocked = time.perf_counter()
                try:
                    path, text, cost = next(reads)
                except StopIteration:
                    self.wait_seconds += time.perf_counter() - blocked
                    return
                self.wait_seconds += time.perf_counter() - blocked
                self.total_cost.add(cost)
                self.bytes_read += len(text)
                self.n_read += 1
                yield Document(
                    doc_id=doc_id, name=path.rsplit("/", 1)[-1], text=text
                )
                doc_id += 1
        finally:
            close = getattr(reads, "close", None)
            if close is not None:
                close()


def corpus_stream(
    storage: Storage,
    prefix: str = "",
    *,
    workers: int = 1,
    prefetch: int | None = None,
    name: str = "corpus",
    retry: RetryPolicy | None = None,
) -> DocumentStream:
    """Stream every document stored under ``prefix``, in name order.

    The streaming twin of :func:`repro.io.corpus_io.load_corpus`: instead
    of materializing a :class:`~repro.text.corpus.Corpus`, documents flow
    to the consumer as reads complete, ``workers`` files at a time.
    """
    return DocumentStream(
        storage,
        corpus_paths(storage, prefix),
        workers=workers,
        prefetch=prefetch,
        name=name,
        retry=retry,
    )
