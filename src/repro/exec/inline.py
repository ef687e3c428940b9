"""Real execution backends (no simulation).

The simulator answers "how would this scale on a 16-core node"; these
backends simply *run* the operators on the host for functional use —
examples, correctness tests, and real-data workloads. ``ThreadBackend``
uses a thread pool, which on CPython mostly helps I/O-bound stages but
keeps the operators' code paths identical to the simulated runs; the
process pool in :mod:`repro.exec.process` delivers real multi-core
speedups.

All backends share one protocol:

* :meth:`ExecutionBackend.configure` installs per-worker state (tokenizer,
  vocabulary, prepared matrix) *once per phase* instead of shipping it
  with every task;
* :meth:`ExecutionBackend.map` applies a function over items in input
  order, submitting **chunks** of items per task (Cilk-style grain, via
  :func:`repro.exec.parallel.auto_grain`) so per-task overhead — future
  bookkeeping for threads, pickling for processes — is amortized.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from itertools import chain
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import ConfigurationError, PhaseTimeoutError, TaskTimeoutError
from repro.exec.parallel import auto_grain
from repro.exec.resilience import (
    QuarantinedItem,
    QuarantineReport,
    ResilienceConfig,
    bisect_chunk,
    run_attempts,
)
from repro.exec.shm import IpcStats, LocalArrays, LocalBroadcast, LocalGather
from repro.exec.spans import SpanRecorder

__all__ = [
    "ExecutionBackend",
    "SequentialBackend",
    "ThreadBackend",
    "apply_chunk",
    "gather_ordered",
    "submit_stream",
]

ItemT = TypeVar("ItemT")

#: Sentinel for "the stream produced nothing" when peeking at a lazy
#: source — an empty input must never spin up a worker pool.
_EMPTY = object()
ResultT = TypeVar("ResultT")


def apply_chunk(fn: Callable, chunk: Sequence) -> list:
    """Apply ``fn`` to every item of ``chunk`` (the per-task trampoline).

    Module-level so process backends can pickle it once per submitted
    chunk; the thread backend reuses it so all backends share one path.
    """
    return [fn(item) for item in chunk]


def _as_list(items: Iterable) -> list:
    return items if isinstance(items, list) else list(items)


def gather_ordered(futures: Sequence) -> list:
    """Collect chunk futures in submission order, extending into one list.

    If any chunk raises, every future that has not started yet is
    cancelled before the exception propagates — a poisoned chunk must not
    leave the chunks submitted after it running (or keeping a wedged pool
    busy) once the caller has already seen the failure.
    """
    results: list = []
    try:
        for future in futures:
            results.extend(future.result())
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return results


def submit_stream(pool, fn: Callable, items: Iterable) -> list:
    """Submit one task per item as a (possibly lazy) producer yields it.

    The streaming twin of chunked ``map``: tasks start executing while the
    producer — typically a prefetching corpus reader — is still yielding,
    so compute overlaps input. Results are returned in submission order.
    If the producer *or* any task raises, all queued tasks are cancelled.
    """
    futures = []
    try:
        for item in items:
            futures.append(pool.submit(fn, item))
        return [future.result() for future in futures]
    except BaseException:
        for future in futures:
            future.cancel()
        raise


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
        #: Per-task span capture (see :class:`repro.exec.spans.SpanRecorder`);
        #: disarmed by default, armed by ``spans.begin_run()`` (which
        #: ``run_pipeline(trace=True)`` does for you).
        self.spans = SpanRecorder()
        #: Fault-tolerance policy (retries, deadlines, poison handling);
        #: the default config reproduces the pre-resilience fail-fast
        #: behavior exactly. Plain attribute — callers may replace it
        #: between phases.
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        #: Items isolated by ``on_poison="quarantine"`` across this
        #: backend's lifetime; ``run_pipeline`` clears it per run.
        self.quarantine = QuarantineReport()
        #: Optional :class:`repro.exec.faultinject.FaultPlan` — when set,
        #: tasks consult it (in-process backends inline, the process
        #: backend via a directive shipped in the task payload).
        self.fault_plan = None
        # Backend-level per-phase task ids, so fault plans, retries, and
        # spans agree on numbering whether or not tracing is armed.
        self._task_counters: dict[str, int] = {}
        self._phase_started = time.monotonic()

    def begin_phase(self, name: str) -> None:
        """Charge subsequent tasks/IPC/spans to the named pipeline phase."""
        self.ipc.set_phase(name)
        self.spans.set_phase(name)
        self._phase_started = time.monotonic()

    # -- resilience plumbing ------------------------------------------------------

    @property
    def _resilient(self) -> bool:
        """True when any fault-tolerance feature deviates from the seed
        behavior (and the hardened execution paths must be taken)."""
        cfg = self.resilience
        return (
            self.fault_plan is not None
            or cfg.retry.enabled
            or cfg.task_timeout_s is not None
            or cfg.phase_timeout_s is not None
            or cfg.quarantining
        )

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

    def _run_item_resilient(self, fn, item, *, task_id: int, phase: str):
        """One map item under the retry policy (inline execution)."""

        def thunk(attempt: int):
            if self.fault_plan is not None:
                self.fault_plan.fire(phase, task_id)
            if not self.spans.enabled:
                return fn(item)
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

    def _map_inline_resilient(self, fn, items: Iterable, bisect_items: bool) -> list:
        """Hardened inline map shared by the sequential paths.

        Per item: fire any planned fault, retry under the policy, and —
        in quarantine mode — bisect a poisoned item (splitting *inside*
        sequence items when ``bisect_items``) instead of failing the map.
        """
        phase = self.spans.phase
        results: list = []
        for index, item in enumerate(items):
            self._check_phase_deadline(phase)
            task_id = self._next_task_id(phase)
            task_key = f"{phase}#{task_id}"
            try:
                results.append(
                    self._run_item_resilient(fn, item, task_id=task_id, phase=phase)
                )
            except Exception as exc:
                if not self.resilience.quarantining:
                    raise
                def run_sub(sub, _task_id=task_id, _phase=phase):
                    return [
                        self._run_item_resilient(fn, x, task_id=_task_id, phase=_phase)
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

    def _record_inline_span(
        self, t_start: float, n_items: int, phase: str | None = None
    ) -> None:
        """Span for work just executed inline on the calling thread."""
        self.spans.record(
            t_start, self.spans.now(), n_items=n_items, phase=phase
        )

    # -- shared-array plane -------------------------------------------------------

    def share_arrays(self, tag: str, arrays) -> LocalArrays:
        """Place phase-constant arrays where every worker can see them.

        Returns a handle whose ``descriptor()`` is picklable into
        ``configure`` initargs and whose ``close()`` releases the
        placement. In-process default: a no-op wrapper around the very
        same arrays (nothing is copied).
        """
        return LocalArrays(tag, arrays)

    def open_broadcast(self, tag: str, template) -> LocalBroadcast:
        """Open a channel for per-iteration array publication.

        ``template`` fixes the shapes/dtypes every later
        :meth:`broadcast` must match. In-process default: a reference
        slot (publish stores references, readers get them back).
        """
        return LocalBroadcast(tag, stats=self.ipc)

    def open_gather(self, tag: str, slots) -> LocalGather:
        """Open a channel for per-task array *results* (the mirror of
        :meth:`open_broadcast`).

        ``slots`` is a zero-argument callable returning one tuple of
        ``(dtype, capacity)`` per result slot, one pair per field; only
        a transport that preallocates (the process backend's shared
        arena) calls it. In-process default: results are handed back by
        reference.
        """
        return LocalGather(tag)

    def allocate_arrays(self, tag: str, specs):
        """A zero-filled shared segment of ``(key, dtype, shape)`` arrays
        that workers write in place, or ``None`` when results must come
        back through the task's return value (every in-process backend,
        where returning them copies nothing)."""
        return None

    def phase_grain(self, n_items: int) -> int:
        """Items per task when an operator phase maps ``n_items`` (the
        tier's grain rule; an explicit ``grain=`` overrides it)."""
        return auto_grain(n_items, self.workers)

    def broadcast(self, channel, arrays) -> int:
        """Publish this iteration's arrays; returns their generation.

        Workers read them back through the channel *descriptor* with
        ``read(generation)`` — tasks carry only the integer token.
        """
        return channel.publish(arrays)

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
        overlapping input with compute; in-process backends drain the
        producer inline. ``grain`` is items per submitted task — callers
        whose items are already chunk-sized pass ``grain=1``; the process
        backend micro-batches by default to amortize per-task pickling.
        ``bisect_items`` opts quarantine-mode bisection into splitting
        *inside* sequence-valued items (only meaningful for callers whose
        per-item results are flattened in order, like the chunked text
        kernels).
        """
        if self._resilient:
            return self._map_inline_resilient(fn, items, bisect_items)
        if not self.spans.enabled:
            return [fn(item) for item in items]
        results = []
        for item in items:
            t_start = self.spans.now()
            results.append(fn(item))
            self._record_inline_span(t_start, n_items=1)
        return results

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
        items = _as_list(items)
        if self._resilient:
            return self._map_inline_resilient(fn, items, bisect_items)
        if not self.spans.enabled:
            return [fn(item) for item in items]
        # Operators pre-chunk their items (one chunk/block per map item),
        # so a span per item is a span per logical task here too.
        results = []
        for item in items:
            t_start = self.spans.now()
            results.append(fn(item))
            self._record_inline_span(t_start, n_items=1)
        return results


class ThreadBackend(ExecutionBackend):
    """Runs the loop on a pool of OS threads.

    ``map`` submits one future per *chunk* of items, not per item: with
    small loop bodies the executor's per-future bookkeeping otherwise
    swamps the work itself. The default grain targets ~8 chunks per
    worker (:func:`~repro.exec.parallel.auto_grain`).
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

    def _traced_chunk(self, fn, chunk, task_id, phase, t_submit):
        """Chunk trampoline that records its span on the executing thread."""
        t_start = self.spans.now()
        results = apply_chunk(fn, chunk)
        self.spans.record(
            t_start,
            self.spans.now(),
            task_id=task_id,
            phase=phase,
            n_items=len(chunk),
            queue_s=t_start - t_submit,
        )
        return results

    def _submit_chunk(self, pool, fn, chunk):
        if not self.spans.enabled:
            return pool.submit(apply_chunk, fn, chunk)
        phase = self.spans.phase
        return pool.submit(
            self._traced_chunk,
            fn,
            chunk,
            self.spans.next_task_id(phase),
            phase,
            self.spans.now(),
        )

    def map(self, fn, items, *, grain=None, bisect_items=False):
        items = _as_list(items)
        if self._resilient:
            if not items:
                return []
            if grain is None:
                grain = (
                    auto_grain(len(items), self.workers)
                    if self.workers > 1 and len(items) > 1
                    else 1
                )
            if grain < 1:
                raise ConfigurationError(f"grain must be >= 1, got {grain}")
            chunks = [
                (start, items[start : start + grain])
                for start in range(0, len(items), grain)
            ]
            return self._run_resilient(fn, chunks, bisect_items)
        if len(items) <= 1 or self.workers == 1:
            if not self.spans.enabled:
                return [fn(item) for item in items]
            results = []
            for item in items:
                t_start = self.spans.now()
                results.append(fn(item))
                self._record_inline_span(t_start, n_items=1)
            return results
        if grain is None:
            grain = auto_grain(len(items), self.workers)
        if grain < 1:
            raise ConfigurationError(f"grain must be >= 1, got {grain}")
        pool = self._ensure_pool()
        futures = [
            self._submit_chunk(pool, fn, items[start : start + grain])
            for start in range(0, len(items), grain)
        ]
        return gather_ordered(futures)

    def map_stream(self, fn, items, *, grain=None, bisect_items=False):
        if self._resilient:
            # Per-item chunks (threads pay no pickle tax); the generator
            # keeps streaming overlap — tasks are submitted as the
            # producer yields, the hardened gather starts afterwards.
            chunks = ((index, [item]) for index, item in enumerate(items))
            return self._run_resilient(fn, chunks, bisect_items)
        if self.workers == 1:
            return super().map_stream(fn, items, grain=grain)
        if not self.spans.enabled:
            # Threads pay no pickle tax, so per-item submission is fine;
            # the grain knob only matters for the process backend. Peek
            # before creating the pool: an empty stream costs nothing.
            iterator = iter(items)
            first = next(iterator, _EMPTY)
            if first is _EMPTY:
                return []
            return submit_stream(
                self._ensure_pool(), fn, chain([first], iterator)
            )
        pool = None
        futures = []
        try:
            for item in items:
                if pool is None:
                    pool = self._ensure_pool()
                futures.append(self._submit_chunk(pool, fn, [item]))
        except BaseException:
            # The *producer* failed mid-stream: drop what was queued.
            for future in futures:
                future.cancel()
            raise
        return gather_ordered(futures)

    # -- hardened execution -------------------------------------------------------

    def _resilient_chunk(self, fn, chunk, task_id, phase, t_submit, attempt):
        """Chunk trampoline that fires planned faults and stamps attempts."""
        if self.fault_plan is not None:
            self.fault_plan.fire(phase, task_id)
        if not self.spans.enabled:
            return apply_chunk(fn, chunk)
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

    def _submit_resilient(self, pool, fn, chunk, task_id, phase, attempt):
        t_submit = self.spans.now() if self.spans.enabled else 0.0
        return pool.submit(
            self._resilient_chunk, fn, chunk, task_id, phase, t_submit, attempt
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

    def _run_resilient(self, fn, chunks, bisect_items: bool) -> list:
        """Submit ``(start_index, chunk)`` tasks; gather with the policy.

        A failed chunk is retried (resubmitted under the same task id,
        billed to ``IpcStats.retries``); a chunk that exhausts the budget
        is either raised (default) or bisected into quarantined leaves. A
        per-task deadline overrun is final on this backend — the wedged
        thread cannot be reclaimed, so the pool is abandoned and
        :class:`TaskTimeoutError` propagates.
        """
        cfg = self.resilience
        phase = self.spans.phase
        pool = None  # created on the first chunk: empty input, no pool
        tasks = []  # [start_index, chunk, task_id, future]
        for start, chunk in chunks:
            if pool is None:
                pool = self._ensure_pool()
            task_id = self._next_task_id(phase)
            future = self._submit_resilient(pool, fn, chunk, task_id, phase, 1)
            tasks.append([start, chunk, task_id, future])
        results: list = []
        for position, task in enumerate(tasks):
            start, chunk, task_id, future = task
            task_key = f"{phase}#{task_id}"
            attempt = 1
            while True:
                try:
                    self._check_phase_deadline(phase)
                    results.extend(future.result(timeout=self._wait_timeout()))
                    break
                except FutureTimeoutError:
                    self._cancel_rest(tasks, position + 1)
                    self._abandon_pool()
                    self._check_phase_deadline(phase)  # phase overrun? say so
                    self.ipc.record_timeout()
                    raise TaskTimeoutError(
                        f"task {task_key} exceeded its per-task deadline on "
                        f"backend {self.name!r}; threads cannot be reclaimed "
                        "— pool abandoned"
                    ) from None
                except PhaseTimeoutError:
                    self._cancel_rest(tasks, position + 1)
                    self._abandon_pool()
                    raise
                except Exception as exc:
                    retry = cfg.retry
                    if retry.is_retryable(exc) and not retry.gives_up_after(attempt):
                        delay = retry.backoff_s(task_key, attempt)
                        self.ipc.record_retry(0)
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        future = self._submit_resilient(
                            pool, fn, chunk, task_id, phase, attempt
                        )
                        continue
                    exc.attempts = attempt  # type: ignore[attr-defined]
                    if not cfg.quarantining:
                        self._cancel_rest(tasks, position + 1)
                        raise
                    results.extend(
                        self._bisect_poisoned(
                            fn, chunk, exc,
                            item_index=start, phase=phase, task_key=task_key,
                            task_id=task_id, bisect_items=bisect_items,
                        )
                    )
                    break
        return results

    @staticmethod
    def _cancel_rest(tasks, from_position: int) -> None:
        for task in tasks[from_position:]:
            task[3].cancel()

    def _bisect_poisoned(
        self, fn, chunk, exc, *, item_index, phase, task_key, task_id, bisect_items
    ) -> list:
        """Isolate the poisoned item(s) of an exhausted chunk, inline."""

        def run_sub(sub):
            def thunk(attempt):
                if self.fault_plan is not None:
                    self.fault_plan.fire(phase, task_id)
                return apply_chunk(fn, sub)

            def on_retry(attempt, retry_exc, delay_s):
                self.ipc.record_retry(0)

            return run_attempts(
                self.resilience.retry, task_key, thunk, on_retry=on_retry
            )

        def on_poisoned(index, sub_start, n_units, leaf_exc):
            self._note_quarantined(
                phase, task_key, index, sub_start, n_units, leaf_exc
            )

        return bisect_chunk(
            chunk, run_sub, on_poisoned,
            item_index=item_index, bisect_items=bisect_items, failed_exc=exc,
        )

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
