"""Real execution backends: chunking, ordering, errors, pool lifecycle."""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.exec.inline import SequentialBackend, ThreadBackend, apply_chunk
from repro.exec.process import (
    BACKEND_CHOICES,
    ProcessBackend,
    make_backend,
)
from repro.exec.resilience import ResilienceConfig, RetryPolicy

#: The two policies every cancellation test runs under: the default
#: (no retries) and one with a retry budget. Both run the same loop.
_POLICIES = (None, ResilienceConfig(retry=RetryPolicy(max_attempts=2)))
_POLICY_IDS = ("default", "retrying")

# Module-level so the process backend can pickle them by reference.
_WORKER_STATE = {}


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("boom at 3")
    return x


def _install_offset(offset):
    _WORKER_STATE["offset"] = offset


def _poison_or_touch(item):
    """Raise on the poison item; otherwise slowly touch a marker file."""
    kind, path = item
    if kind == "poison":
        raise ValueError("poisoned chunk")
    time.sleep(0.1)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("ran")
    return path


def _poison_items(tmp_path, n_markers):
    """A poison chunk followed by marker chunks that record having run."""
    return [("poison", "")] + [
        ("marker", str(tmp_path / f"marker-{i:02d}")) for i in range(n_markers)
    ]


class _Abort(BaseException):
    """Not an ``Exception``: no retry policy catches it."""


def _abort_or_touch(item):
    kind, path = item
    if kind == "poison":
        raise _Abort("aborted")
    return _poison_or_touch(item)


def _dying_producer(tmp_path, n_markers):
    """Slow marker items, then the producer itself raises."""
    yield from _poison_items(tmp_path, n_markers)[1:]
    raise RuntimeError("producer died")


def _add_offset(x):
    return x + _WORKER_STATE["offset"]


def _pid(_):
    time.sleep(0.01)  # long enough for both workers to take tasks
    return os.getpid()


class TestApplyChunk:
    def test_applies_in_order(self):
        assert apply_chunk(_square, [1, 2, 3]) == [1, 4, 9]


class TestSequentialBackend:
    def test_map(self):
        assert SequentialBackend().map(_square, range(5)) == [0, 1, 4, 9, 16]

    def test_configure_runs_inline(self):
        backend = SequentialBackend()
        backend.configure(_install_offset, (10,))
        assert backend.map(_add_offset, [1, 2]) == [11, 12]


class TestThreadBackend:
    def test_chunked_map_preserves_order(self):
        with ThreadBackend(4) as backend:
            assert backend.map(_square, range(100)) == [x * x for x in range(100)]

    def test_explicit_grain(self):
        with ThreadBackend(2) as backend:
            assert backend.map(_square, range(10), grain=3) == [
                x * x for x in range(10)
            ]

    def test_rejects_bad_grain(self):
        with ThreadBackend(2) as backend:
            with pytest.raises(ConfigurationError):
                backend.map(_square, range(10), grain=0)

    def test_exception_propagates_and_pool_survives(self):
        backend = ThreadBackend(2)
        with pytest.raises(ValueError, match="boom at 3"):
            backend.map(_fail_on_three, range(10), grain=1)
        # The pool is still usable after a failed map ...
        assert backend.map(_square, range(4), grain=1) == [0, 1, 4, 9]
        # ... and close is safe afterwards, twice.
        backend.close()
        backend.close()

    def test_close_after_failed_map(self):
        backend = ThreadBackend(2)
        with pytest.raises(ValueError):
            backend.map(_fail_on_three, range(10), grain=1)
        backend.close()
        assert backend._pool is None

    def test_pool_reused_across_maps(self):
        backend = ThreadBackend(2)
        backend.map(_square, range(10))
        pool = backend._pool
        backend.map(_square, range(10))
        assert backend._pool is pool
        backend.close()

    def test_configure_runs_inline(self):
        with ThreadBackend(2) as backend:
            backend.configure(_install_offset, (5,))
            assert backend.map(_add_offset, range(10), grain=2) == [
                x + 5 for x in range(10)
            ]

    def test_failure_cancels_chunks_submitted_after_it(self, tmp_path):
        items = _poison_items(tmp_path, n_markers=24)
        backend = ThreadBackend(2)
        try:
            with pytest.raises(ValueError, match="poisoned chunk"):
                backend.map(_poison_or_touch, items, grain=1)
        finally:
            backend.close()  # waits out chunks that had already started
        # Only chunks a worker had picked up before the poison surfaced may
        # finish; everything still queued behind them must be cancelled.
        touched = len(list(tmp_path.iterdir()))
        assert touched <= 4, f"{touched} marker chunks ran after the failure"

    def test_map_stream_matches_map(self):
        with ThreadBackend(3) as backend:
            assert backend.map_stream(_square, iter(range(20))) == [
                x * x for x in range(20)
            ]

    def test_map_stream_failure_cancels_queued_tasks(self, tmp_path):
        items = _poison_items(tmp_path, n_markers=24)
        backend = ThreadBackend(2)
        try:
            with pytest.raises(ValueError, match="poisoned chunk"):
                backend.map_stream(_poison_or_touch, iter(items))
        finally:
            backend.close()
        touched = len(list(tmp_path.iterdir()))
        assert touched <= 4, f"{touched} queued tasks ran after the failure"

    def test_map_stream_producer_error_cancels_queued_tasks(self, tmp_path):
        # Under either policy: the loop is the same one.
        for name, policy in zip(_POLICY_IDS, _POLICIES):
            out = tmp_path / name
            out.mkdir()
            backend = ThreadBackend(2, policy)
            try:
                with pytest.raises(RuntimeError, match="producer died"):
                    backend.map_stream(
                        _poison_or_touch, _dying_producer(out, n_markers=24)
                    )
            finally:
                backend.close()
            touched = len(list(out.iterdir()))
            assert touched <= 4, (
                f"{touched} tasks ran after the producer failed ({name})"
            )

    @pytest.mark.parametrize("policy", _POLICIES, ids=_POLICY_IDS)
    def test_base_exception_cancels_queued_tasks(self, tmp_path, policy):
        items = _poison_items(tmp_path, n_markers=24)
        backend = ThreadBackend(2, policy)
        try:
            with pytest.raises(_Abort):
                backend.map(_abort_or_touch, items, grain=1)
        finally:
            backend.close()
        touched = len(list(tmp_path.iterdir()))
        assert touched <= 4, f"{touched} marker chunks ran after the abort"

    def test_one_item_runs_on_the_pool(self):
        # A lone chunk is a pool task like any other, so a task deadline
        # applies to it.
        with ThreadBackend(2) as backend:
            assert backend.map(_square, [3]) == [9]
            assert backend._pool is not None


class TestProcessBackend:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(0)

    def test_map_preserves_order(self):
        with ProcessBackend(2) as backend:
            assert backend.map(_square, range(50)) == [x * x for x in range(50)]

    def test_empty_map_is_trivial(self):
        with ProcessBackend(2) as backend:
            assert backend.map(_square, []) == []
            assert backend._pool is None  # no pool was ever started

    def test_initializer_ships_state_once(self):
        with ProcessBackend(2) as backend:
            backend.configure(_install_offset, (100,))
            assert backend.map(_add_offset, range(10), grain=2) == [
                x + 100 for x in range(10)
            ]

    def test_configure_installs_into_the_live_pool(self):
        with ProcessBackend(2) as backend:
            args = (7,)
            backend.configure(_install_offset, args)
            backend.map(_add_offset, [1])
            pool = backend._pool
            pids = set(backend.map(_pid, range(8), grain=1))
            backend.configure(_install_offset, args)
            assert backend._pool is pool
            assert backend.ipc.total().configures == 1  # same state: no-op
            backend.configure(_install_offset, (8,))
            # New state goes into the same workers — no second generation.
            assert backend._pool is pool
            assert backend.map(_add_offset, range(8), grain=1) == [
                x + 8 for x in range(8)
            ]
            assert set(backend.map(_pid, range(8), grain=1)) <= pids

    def test_pool_reused_across_maps(self):
        with ProcessBackend(2) as backend:
            backend.map(_square, range(10))
            pool = backend._pool
            assert backend.map(_square, range(10)) == [x * x for x in range(10)]
            assert backend._pool is pool

    def test_worker_exception_propagates(self):
        backend = ProcessBackend(2)
        try:
            with pytest.raises(ValueError, match="boom at 3"):
                backend.map(_fail_on_three, range(10), grain=1)
            # Pool survives an ordinary task exception.
            assert backend.map(_square, range(4)) == [0, 1, 4, 9]
        finally:
            backend.close()
        backend.close()  # idempotent

    def test_failure_cancels_chunks_submitted_after_it(self, tmp_path):
        n_markers = 24
        items = _poison_items(tmp_path, n_markers)
        backend = ProcessBackend(2)
        try:
            with pytest.raises(ValueError, match="poisoned chunk"):
                backend.map(_poison_or_touch, items, grain=1)
        finally:
            backend.close()  # waits out chunks that had already started
        # ProcessPoolExecutor pre-feeds ~workers+1 chunks into its call
        # queue, and those can no longer be cancelled — but the long tail
        # behind them must never run once the poison has surfaced.
        touched = len(list(tmp_path.iterdir()))
        assert touched < n_markers, "every chunk ran despite the failure"
        assert touched <= 8, f"{touched} marker chunks ran after the failure"

    @pytest.mark.parametrize("policy", _POLICIES, ids=_POLICY_IDS)
    def test_map_stream_producer_error_cancels_queued_tasks(self, tmp_path, policy):
        n_markers = 24
        backend = ProcessBackend(2, resilience=policy)
        try:
            with pytest.raises(RuntimeError, match="producer died"):
                backend.map_stream(
                    _poison_or_touch, _dying_producer(tmp_path, n_markers),
                    grain=1,
                )
        finally:
            backend.close()
        # As above: only what the executor pre-fed may still run.
        touched = len(list(tmp_path.iterdir()))
        assert touched <= 8, f"{touched} tasks ran after the producer failed"

    def test_map_stream_matches_map(self):
        with ProcessBackend(2) as backend:
            assert backend.map_stream(_square, iter(range(20))) == [
                x * x for x in range(20)
            ]

    def test_map_stream_micro_batches_submissions(self):
        # The regression this guards: one pickled task per *item* (100
        # round trips for 100 items). With micro-batching, 2 workers get
        # a default grain of auto_grain(256, 2) = 16 → ceil(100/16) = 7
        # submitted tasks, while results stay ordered and complete.
        with ProcessBackend(2) as backend:
            assert backend.map_stream(_square, iter(range(100))) == [
                x * x for x in range(100)
            ]
            assert backend.ipc.total().tasks == 7

    def test_map_stream_explicit_grain_controls_task_count(self):
        with ProcessBackend(2) as backend:
            assert backend.map_stream(_square, iter(range(10)), grain=1) == [
                x * x for x in range(10)
            ]
            assert backend.ipc.total().tasks == 10
            with pytest.raises(ConfigurationError):
                backend.map_stream(_square, iter(range(4)), grain=0)

    def test_map_accounts_pickled_bytes(self):
        with ProcessBackend(2) as backend:
            backend.map(_square, range(20), grain=5)
            total = backend.ipc.total()
            assert total.tasks == 4
            assert total.task_pickle_bytes > 0
            assert total.result_pickle_bytes > 0


class TestMakeBackend:
    def test_choices(self):
        assert BACKEND_CHOICES == ("sequential", "threads", "processes")

    def test_builds_each_kind(self):
        assert isinstance(make_backend("sequential"), SequentialBackend)
        threads = make_backend("threads", 3)
        assert isinstance(threads, ThreadBackend) and threads.workers == 3
        processes = make_backend("processes", 2)
        assert isinstance(processes, ProcessBackend) and processes.workers == 2
        processes.close()

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_backend("gpu", 2)


class TestEmptyInput:
    """Empty inputs must not spawn worker pools and must return []."""

    @pytest.mark.parametrize("name", BACKEND_CHOICES)
    def test_map_and_map_stream_return_empty(self, name):
        backend = make_backend(name, 2)
        try:
            assert backend.map(_square, []) == []
            assert backend.map_stream(_square, iter([])) == []
        finally:
            backend.close()

    @pytest.mark.parametrize("name", ["threads", "processes"])
    def test_no_pool_spawned(self, name):
        backend = make_backend(name, 2)
        try:
            backend.map(_square, [])
            assert backend._pool is None
            backend.map_stream(_square, iter([]))
            assert backend._pool is None
            # An empty generator must be fully drained before deciding —
            # peeking one item is what keeps the pool unspawned.
            backend.map_stream(_square, (x for x in ()))
            assert backend._pool is None
        finally:
            backend.close()

    @pytest.mark.parametrize("name", ["threads", "processes"])
    def test_no_pool_spawned_resilient(self, name):
        from repro.exec.resilience import ResilienceConfig, RetryPolicy

        backend = make_backend(
            name, 2,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)),
        )
        try:
            assert backend.map(_square, []) == []
            assert backend.map_stream(_square, iter([])) == []
            assert backend._pool is None
        finally:
            backend.close()

    def test_identical_across_backends(self):
        outputs = []
        for name in BACKEND_CHOICES:
            backend = make_backend(name, 2)
            try:
                outputs.append(
                    (backend.map(_square, []),
                     backend.map_stream(_square, iter([])))
                )
            finally:
                backend.close()
        assert all(out == outputs[0] for out in outputs)
