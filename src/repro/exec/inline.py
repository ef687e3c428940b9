"""Real execution backends (no simulation).

The simulator answers "how would this scale on a 16-core node"; these
backends simply *run* the operators on the host for functional use —
examples, correctness tests, and real-data workloads. ``ThreadBackend``
uses a thread pool: the word count's byte kernel is numpy calls that
release the GIL, and the transform and k-means kernels interleave numpy
calls with per-row Python, so threads overlap real compute, not just
I/O, and pay no pickling (``docs/backends.md``). The process pool in
:mod:`repro.exec.process` bypasses the GIL at the price of pickled IPC.

All backends share one protocol:

* :meth:`ExecutionBackend.configure` installs per-worker state (tokenizer,
  vocabulary, prepared matrix) *once per phase* instead of shipping it
  with every task;
* :meth:`ExecutionBackend.map` applies a function over items in input
  order, submitting **chunks** of items per task (Cilk-style grain, via
  :func:`auto_grain`) so per-task overhead — future
  bookkeeping for threads, pickling for processes — is amortized.

Each backend has one map loop, run under its
:class:`~repro.exec.resilience.ResilienceConfig`. The default config is
that loop's no-op policy: every task runs once, its first error
propagates and cancels the tasks not started yet, and only a dead
process pool is replayed, under the restart breaker.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigurationError, PhaseTimeoutError, TaskTimeoutError
from repro.exec.resilience import (
    QuarantinedItem,
    QuarantineReport,
    ResilienceConfig,
    bisect_chunk,
    run_attempts,
)
from repro.exec.shm import REFERENCE, Broadcast, Gather, IpcStats, Plane, Segment
from repro.exec.spans import SpanRecorder

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "ThreadBackend",
    "apply_chunk",
    "auto_grain",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Target number of chunks per worker when the grain is chosen automatically;
#: enough to smooth imbalance without flooding the scheduler.
_CHUNKS_PER_WORKER = 8


def auto_grain(n_items: int, workers: int) -> int:
    """Chunk size giving ~8 chunks per worker (Cilk-style default grain)."""
    if n_items <= 0:
        return 1
    return max(1, n_items // (workers * _CHUNKS_PER_WORKER))


def apply_chunk(fn: Callable, chunk: Sequence) -> list:
    """Apply ``fn`` to every item of ``chunk`` (the per-task trampoline).

    Module-level so process backends can pickle it once per submitted
    chunk; the thread backend reuses it so all backends share one path.
    """
    return [fn(item) for item in chunk]


def _as_list(items: Iterable) -> list:
    return items if isinstance(items, list) else list(items)


def _ranges(items: list, grain: int) -> list:
    """``(start, items[start:start + grain])`` for every task of a map."""
    if grain < 1:
        raise ConfigurationError(f"grain must be >= 1, got {grain}")
    return [
        (start, items[start : start + grain])
        for start in range(0, len(items), grain)
    ]


class _ChunkTask:
    """Parent-side record of one submitted chunk, across retries/replays.

    ``item_index`` is the chunk's first item's position in the original
    map input (quarantine coordinates); ``results`` flips from ``None``
    to the chunk's result list exactly once, which is also the "done"
    flag replay logic keys on.
    """

    __slots__ = (
        "fn", "chunk", "item_index", "task_id", "phase",
        "attempt", "future", "results",
    )

    def __init__(self, fn, chunk, item_index: int, task_id: int, phase: str) -> None:
        self.fn = fn
        self.chunk = chunk
        self.item_index = item_index
        self.task_id = task_id
        self.phase = phase
        self.attempt = 1
        self.future = None
        self.results = None

    @property
    def key(self) -> str:
        return f"{self.phase}#{self.task_id}"


def _cancel(tasks: Sequence[_ChunkTask]) -> None:
    """Cancel every task that has not started (a no-op on the rest), so a
    failed map leaves nothing queued behind the caller's back."""
    for task in tasks:
        if task.future is not None:
            task.future.cancel()


class ExecutionBackend:
    """Interface: map a function over items, preserving input order."""

    name = "abstract"
    #: Degree of real parallelism the backend targets (1 for sequential).
    workers = 1
    #: The grain rule of this tier: an operator phase splits its work into
    #: about this many contiguous ranges per worker (see
    #: :meth:`phase_grain`). In-process, a range's transients are the
    #: run's peak memory, so ranges stay small.
    tasks_per_worker = 8

    def __init__(self, resilience: ResilienceConfig | None = None) -> None:
        #: Per-phase IPC accounting (see :class:`repro.exec.shm.IpcStats`).
        #: In-process backends keep it too — operators charge phases
        #: uniformly, and the zero counts are themselves the measurement.
        self.ipc = IpcStats()
        #: Where shared arrays live (see :class:`repro.exec.shm.Plane`).
        self.plane = Plane(REFERENCE)
        #: Per-task span capture (see :class:`repro.exec.spans.SpanRecorder`);
        #: disarmed by default, armed by ``spans.begin_run()`` (which
        #: ``run_pipeline(trace=True)`` does for you).
        self.spans = SpanRecorder()
        #: Fault-tolerance policy (retries, deadlines, poison handling);
        #: the default config runs every task once and fails on its first
        #: error. Plain attribute — callers may replace it between phases.
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        #: Items isolated by ``on_poison="quarantine"`` across this
        #: backend's lifetime; ``run_pipeline`` clears it per run.
        self.quarantine = QuarantineReport()
        #: Optional :class:`repro.exec.faultinject.FaultPlan` — when set,
        #: tasks consult it (in-process backends inline, the process
        #: backend via a directive shipped in the task payload).
        self.fault_plan = None
        # The one source of per-phase task ids, so fault plans, retries,
        # and spans agree on numbering whether or not tracing is armed.
        # ``run_pipeline`` restarts them with each run's bill.
        self._task_counters: dict[str, int] = {}
        self._phase_started = time.monotonic()

    def begin_phase(self, name: str) -> None:
        """Charge subsequent tasks/IPC/spans to the named pipeline phase."""
        self.ipc.set_phase(name)
        self.spans.set_phase(name)
        self._phase_started = time.monotonic()

    # -- resilience plumbing ------------------------------------------------------

    def _next_task_id(self, phase: str) -> int:
        task_id = self._task_counters.get(phase, 0)
        self._task_counters[phase] = task_id + 1
        return task_id

    def _check_phase_deadline(self, phase: str) -> None:
        limit = self.resilience.phase_timeout_s
        if limit is not None and time.monotonic() - self._phase_started > limit:
            raise PhaseTimeoutError(
                f"phase {phase!r} exceeded its {limit:.3f}s deadline on "
                f"backend {self.name!r}"
            )

    def _wait_timeout(self) -> float | None:
        """Effective timeout for one future wait: the per-task deadline,
        capped by whatever remains of the phase deadline."""
        cfg = self.resilience
        timeout = cfg.task_timeout_s
        if cfg.phase_timeout_s is not None:
            remaining = max(
                0.0, cfg.phase_timeout_s - (time.monotonic() - self._phase_started)
            )
            timeout = remaining if timeout is None else min(timeout, remaining)
        return timeout

    def _note_quarantined(
        self, phase: str, task_key: str, item_index: int,
        sub_start: int, n_units: int, exc: BaseException,
    ) -> None:
        self.quarantine.add(
            QuarantinedItem(
                phase=phase,
                task_key=task_key,
                item_index=item_index,
                sub_start=sub_start,
                n_units=n_units,
                attempts=getattr(exc, "attempts", 1),
                error=str(exc),
                error_type=type(exc).__name__,
            )
        )
        self.ipc.record_quarantined(n_units)

    def _run_item(self, fn, item, *, task_id: int, phase: str):
        """One map item under the retry policy (inline execution)."""

        def thunk(attempt: int):
            if self.fault_plan is not None:
                self.fault_plan.fire(phase, task_id)
            t_start = self.spans.now()
            result = fn(item)
            self.spans.record(
                t_start, self.spans.now(), task_id=task_id, phase=phase,
                n_items=1, attempt=attempt,
            )
            return result

        def on_retry(attempt, exc, delay_s):
            self.ipc.record_retry(0)

        return run_attempts(
            self.resilience.retry, f"{phase}#{task_id}", thunk, on_retry=on_retry
        )

    def _map_inline(self, fn, items: Iterable, bisect_items: bool) -> list:
        """Every item on the calling thread, one task each.

        Per item: check the phase deadline, fire any planned fault, retry
        under the policy, and — in quarantine mode — bisect a poisoned
        item (splitting *inside* sequence items when ``bisect_items``)
        instead of failing the map.
        """
        phase = self.spans.phase
        results: list = []
        for index, item in enumerate(items):
            self._check_phase_deadline(phase)
            task_id = self._next_task_id(phase)
            task_key = f"{phase}#{task_id}"
            self.ipc.record_tasks(1)
            try:
                results.append(self._run_item(fn, item, task_id=task_id, phase=phase))
            except Exception as exc:
                if not self.resilience.quarantining:
                    raise
                def run_sub(sub, _task_id=task_id, _phase=phase):
                    return [
                        self._run_item(fn, x, task_id=_task_id, phase=_phase)
                        for x in sub
                    ]
                def on_poisoned(i, sub_start, n_units, leaf_exc,
                                _phase=phase, _key=task_key):
                    self._note_quarantined(
                        _phase, _key, i, sub_start, n_units, leaf_exc
                    )
                results.extend(
                    bisect_chunk(
                        [item], run_sub, on_poisoned,
                        item_index=index, bisect_items=bisect_items,
                        failed_exc=exc,
                    )
                )
        return results

    # -- data plane ---------------------------------------------------------------
    #
    # The channel calls of every backend. ``self.plane`` holds the one
    # transport decision (in-process: references); segments and
    # broadcasts bill the backend's current ``ipc``.

    def share_arrays(self, tag: str, arrays) -> Segment:
        """Place phase-constant arrays where every worker can see them.

        Returns a segment that is its own picklable descriptor (it rides
        ``configure`` initargs) and whose ``close()`` releases the
        placement. In-process it holds the very same arrays: nothing is
        copied.
        """
        return self.plane.track(Segment(
            tag, arrays=arrays, shared=self.plane.shared, stats=self.ipc
        ))

    def open_broadcast(self, tag: str, template) -> Broadcast:
        """Open a channel for per-iteration array publication.

        ``template`` fixes the arity, shapes and dtypes every later
        :meth:`broadcast` must match.
        """
        return self.plane.track(
            Broadcast(tag, template, self.plane.transport, self.ipc)
        )

    def open_gather(self, tag: str, slots) -> Gather:
        """Open a channel for per-task array *results* (the mirror of
        :meth:`open_broadcast`).

        ``slots`` is a zero-argument callable returning one tuple of
        ``(dtype, capacity)`` per result slot, one pair per field. Only a
        shared arena, sized by it, calls it (the table may cost a pass
        over the source); elsewhere a slot's first ``put`` fixes what its
        later puts are checked against.
        """
        table = slots() if self.plane.shared else None
        return self.plane.track(Gather(tag, table, self.plane.transport, self.ipc))

    def allocate_arrays(self, tag: str, specs) -> Segment | None:
        """A zero-filled shared segment of ``(key, dtype, shape)`` arrays
        that workers write in place, or ``None`` when results must come
        back through the task's return value (every in-process backend,
        where returning them copies nothing)."""
        if not self.plane.shared:
            return None
        return self.plane.track(Segment(tag, specs, shared=True, stats=self.ipc))

    def broadcast(self, channel, arrays):
        """Publish this iteration's arrays; returns the token tasks carry.

        Workers read them back through the channel *descriptor* with
        ``read(token)``. The token is the generation number, or on the
        value transport the arrays themselves.
        """
        token = channel.publish(arrays)
        self.ipc.record_broadcast(channel.payload_bytes)
        return token

    def phase_grain(self, n_items: int) -> int:
        """Items per task when an operator phase maps ``n_items`` (the
        tier's grain rule; an explicit ``grain=`` overrides it)."""
        return auto_grain(n_items, self.workers)

    def configure(
        self, initializer: Callable[..., None], initargs: tuple = ()
    ) -> None:
        """Install per-worker state for the next phase of ``map`` calls.

        In-process backends (sequential, threads) run ``initializer`` once
        right here; the process backend runs it once inside every pool
        worker. Kernels retrieve the state through module-level globals
        (see :mod:`repro.ops.kernels`), so the same kernel code runs
        unchanged on every backend.
        """
        initializer(*initargs)

    def map(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Iterable[ItemT],
        *,
        grain: int | None = None,
        bisect_items: bool = False,
    ) -> list[ResultT]:
        raise NotImplementedError

    def map_stream(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Iterable[ItemT],
        *,
        grain: int | None = None,
        bisect_items: bool = False,
    ) -> list[ResultT]:
        """Apply ``fn`` to items as a lazy producer yields them, in order.

        Pooled backends start executing early tasks while the producer
        (e.g. a prefetching corpus reader) is still yielding later ones,
        overlapping input with compute; the sequential backend drains
        the producer inline. ``grain`` is items per submitted task — callers
        whose items are already chunk-sized pass ``grain=1``; the process
        backend micro-batches by default to amortize per-task pickling.
        ``bisect_items`` opts quarantine-mode bisection into splitting
        *inside* sequence-valued items (only meaningful for callers whose
        per-item results are flattened in order, like the chunked text
        kernels).
        """
        return self._map_inline(fn, items, bisect_items)

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialBackend(ExecutionBackend):
    """Runs the loop inline on the calling thread."""

    name = "sequential"

    def map(self, fn, items, *, grain=None, bisect_items=False):
        # Operators pre-chunk their items (one chunk/block per map item),
        # so an item — its span, its task count — is a logical task here.
        return self._map_inline(fn, _as_list(items), bisect_items)


class ThreadBackend(ExecutionBackend):
    """Runs the loop on a pool of OS threads.

    ``map`` submits one future per *chunk* of items, not per item: with
    small loop bodies the executor's per-future bookkeeping otherwise
    swamps the work itself. The default grain targets ~8 chunks per
    worker (:func:`auto_grain`).
    """

    def __init__(
        self, workers: int, resilience: ResilienceConfig | None = None
    ) -> None:
        super().__init__(resilience)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.name = f"threads-{workers}"
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def map(self, fn, items, *, grain=None, bisect_items=False):
        items = _as_list(items)
        if grain is None:
            # One worker: one item per task. Every chunk, even a lone
            # one, goes to the pool, so a task deadline applies to it.
            grain = auto_grain(len(items), self.workers) if self.workers > 1 else 1
        return self._run_chunks(fn, _ranges(items, grain), bisect_items)

    def map_stream(self, fn, items, *, grain=None, bisect_items=False):
        # Per-item chunks (threads pay no pickle tax); the generator keeps
        # streaming overlap — tasks are submitted as the producer yields.
        chunks = ((index, [item]) for index, item in enumerate(items))
        return self._run_chunks(fn, chunks, bisect_items)

    def _run_chunk(self, fn, chunk, task_id, phase, t_submit, attempt):
        """Chunk trampoline that fires planned faults and records its span
        on the executing thread."""
        if self.fault_plan is not None:
            self.fault_plan.fire(phase, task_id)
        t_start = self.spans.now()
        results = apply_chunk(fn, chunk)
        self.spans.record(
            t_start,
            self.spans.now(),
            task_id=task_id,
            phase=phase,
            n_items=len(chunk),
            queue_s=t_start - t_submit,
            attempt=attempt,
        )
        return results

    def _submit(self, task: _ChunkTask) -> None:
        task.future = self._ensure_pool().submit(
            self._run_chunk, task.fn, task.chunk, task.task_id, task.phase,
            self.spans.now(), task.attempt,
        )

    def _abandon_pool(self) -> None:
        """Walk away from a pool with a wedged thread.

        Threads cannot be killed; all we can do is cancel what has not
        started and stop handing the pool new work. The wedged thread
        finishes (or sleeps out) on its own.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _run_chunks(self, fn, chunks, bisect_items: bool) -> list:
        """Submit ``(start_index, chunk)`` tasks as the producer yields
        them; gather in order under the policy.

        A failed chunk is retried (resubmitted under the same task id,
        billed to ``IpcStats.retries``); a chunk that exhausts the budget
        is either raised (default) or bisected into quarantined leaves. A
        per-task deadline overrun is final on this backend — the wedged
        thread cannot be reclaimed, so the pool is abandoned and
        :class:`TaskTimeoutError` propagates. Any exception, from the
        producer or from a task, cancels every task not started yet.
        """
        phase = self.spans.phase
        tasks: list[_ChunkTask] = []
        try:
            for start, chunk in chunks:
                task = _ChunkTask(fn, chunk, start, self._next_task_id(phase), phase)
                self._submit(task)
                tasks.append(task)
            self.ipc.record_tasks(len(tasks))
            results: list = []
            for task in tasks:
                results.extend(self._gather(task, bisect_items))
            return results
        except BaseException:
            _cancel(tasks)
            raise

    def _gather(self, task: _ChunkTask, bisect_items: bool) -> list:
        """One task's results, waiting, retrying or quarantining as the
        policy says."""
        cfg = self.resilience
        while True:
            try:
                self._check_phase_deadline(task.phase)
                return task.future.result(timeout=self._wait_timeout())
            except FutureTimeoutError:
                self._abandon_pool()
                self._check_phase_deadline(task.phase)  # phase overrun? say so
                self.ipc.record_timeout()
                raise TaskTimeoutError(
                    f"task {task.key} exceeded its per-task deadline on "
                    f"backend {self.name!r}; threads cannot be reclaimed "
                    "— pool abandoned"
                ) from None
            except PhaseTimeoutError:
                self._abandon_pool()
                raise
            except Exception as exc:
                retry = cfg.retry
                if retry.is_retryable(exc) and not retry.gives_up_after(task.attempt):
                    delay = retry.backoff_s(task.key, task.attempt)
                    self.ipc.record_retry(0)
                    if delay > 0:
                        time.sleep(delay)
                    task.attempt += 1
                    self._submit(task)
                    continue
                exc.attempts = task.attempt  # type: ignore[attr-defined]
                if not cfg.quarantining:
                    raise
                return self._bisect_poisoned(task, exc, bisect_items)

    def _bisect_poisoned(self, task: _ChunkTask, exc, bisect_items: bool) -> list:
        """Isolate the poisoned item(s) of an exhausted chunk, inline."""

        def run_sub(sub):
            def thunk(attempt):
                if self.fault_plan is not None:
                    self.fault_plan.fire(task.phase, task.task_id)
                return apply_chunk(task.fn, sub)

            def on_retry(attempt, retry_exc, delay_s):
                self.ipc.record_retry(0)

            return run_attempts(
                self.resilience.retry, task.key, thunk, on_retry=on_retry
            )

        def on_poisoned(index, sub_start, n_units, leaf_exc):
            self._note_quarantined(
                task.phase, task.key, index, sub_start, n_units, leaf_exc
            )

        return bisect_chunk(
            task.chunk, run_sub, on_poisoned,
            item_index=task.item_index, bisect_items=bisect_items,
            failed_exc=exc,
        )

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
