"""``ExecutionBackend.imap``: the map loop as an ordered, lazy stream.

``map`` is ``list()`` of it, so the retry, quarantine and deadline
suites in this directory hold for ``imap`` too. What only the stream
can get wrong is pinned here: the order results
come out in, that an inline item does not run before its predecessor's
result is taken, that a consumer walking away cancels what has not
started, and that a k-means fit failing mid-stream leaves no worker
state behind.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exec.inline import SequentialBackend, ThreadBackend
from repro.exec.process import make_backend
from repro.exec.shm import Placement
from repro.ops import kernels
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.sparse.matrix import ResidentRows
from repro.text.synth import MIX_PROFILE, generate_corpus

BACKENDS = (("sequential", 1), ("threads", 3), ("processes", 2))


# Module-level so the process backend can pickle it by reference.
def _slow_square(x):
    # Later items finish first on a pool: the stream must reorder them.
    time.sleep(0.002 * (10 - x))
    return x * x


@pytest.mark.parametrize("name,workers", BACKENDS)
def test_results_come_in_item_order(name, workers):
    with make_backend(name, workers) as backend:
        stream = backend.imap(_slow_square, range(10))
        assert list(stream) == [x * x for x in range(10)]


def test_inline_item_waits_for_its_predecessor_to_be_taken():
    started = []

    def record(x):
        started.append(x)
        return x

    backend = SequentialBackend()
    stream = backend.imap(record, range(4))
    assert started == []  # nothing runs before the first result is asked for
    for expected in range(4):
        assert next(stream) == expected
        assert started == list(range(expected + 1))
    assert next(stream, None) is None


class _Gate:
    """Item 0 returns at once; item 1 holds the one pool thread until
    released; every later item records that it ran. So when the consumer
    has taken result 0, items 2.. have not started."""

    def __init__(self):
        self.ran = []
        self.release = threading.Event()
        self.holding = threading.Event()

    def __call__(self, x):
        self.ran.append(x)
        if x == 1:
            self.holding.set()
            self.release.wait(timeout=30)
        return x


def _drain_after(gate, backend):
    gate.release.set()
    backend.close()  # waits for the pool: anything not cancelled runs
    return set(gate.ran)


def test_closing_the_stream_cancels_unstarted_tasks():
    gate = _Gate()
    backend = ThreadBackend(1)
    stream = backend.imap(gate, range(8))
    assert next(stream) == 0
    assert gate.holding.wait(timeout=30)
    stream.close()
    assert _drain_after(gate, backend) == {0, 1}


def test_a_consumer_error_cancels_unstarted_tasks():
    gate = _Gate()
    backend = ThreadBackend(1)
    with pytest.raises(RuntimeError, match="consumer"):
        for result in backend.imap(gate, range(8)):
            assert gate.holding.wait(timeout=30)
            raise RuntimeError(f"consumer failed on {result}")
    assert _drain_after(gate, backend) == {0, 1}


class _PoisonedRows(ResidentRows):
    """Resident rows whose document ``poisoned`` carries one value too
    many, so the block kernel's dot product raises on it (every worker
    re-poisons its copy from the placement's recipe)."""

    def __init__(self, indptr, indices, data, n_cols, poisoned):
        super().__init__(indptr, indices, data, n_cols)
        self.poisoned = poisoned
        self.values[poisoned] = np.append(self.values[poisoned], 1.0)

    def place(self, backend):
        return Placement(
            self, _PoisonedRows, (*self.arrays, self.n_cols, self.poisoned)
        )


class _Rows:
    """The one thing ``fit`` asks of a matrix: its block source."""

    def __init__(self, source):
        self._source = source

    def block_source(self):
        return self._source


@pytest.fixture(scope="module")
def matrix():
    corpus = generate_corpus(MIX_PROFILE, scale=0.006, seed=7)
    with make_backend("sequential", 1) as backend:
        return TfIdfOperator().fit_transform(corpus, backend=backend).matrix


@pytest.mark.parametrize("name,workers", BACKENDS)
def test_fit_whose_later_span_raises_leaves_no_worker_state(matrix, name, workers):
    # The last document sits in the last block, so in-process the first
    # spans' results have been merged when the failure arrives (and
    # "spread" seeding never reads it: 4 seeds, stride n // 4).
    n_docs = matrix.n_rows
    assert n_docs > 64  # several blocks of 32 rows
    rows = _Rows(_PoisonedRows(*matrix.as_arrays(), matrix.n_cols, n_docs - 1))
    with make_backend(name, workers) as backend:
        with pytest.raises(ValueError, match="matmul"):
            KMeansOperator(n_clusters=4, max_iters=2).fit(rows, backend=backend)
        assert not kernels._KMEANS
        # The backend is still good for the next fit.
        result = KMeansOperator(n_clusters=4, max_iters=2).fit(matrix, backend)
        assert len(result.assignments) == n_docs
    assert not kernels._KMEANS
