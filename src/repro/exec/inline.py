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
* :meth:`ExecutionBackend.imap` applies a function over items — a list
  or a lazy producer — one task per item, each submitted as it is
  yielded, and yields every result in item order as soon as it is
  gathered, so a caller that folds the results holds only those not yet
  folded. :meth:`ExecutionBackend.map` is ``list()`` of it. The backends
  never re-chunk: an operator decides how much work an item carries
  (its grain rule, :meth:`ExecutionBackend.phase_grain`), so per-task
  overhead — future bookkeeping for threads, pickling for processes —
  is amortized where the work is known.

Every backend runs one task lifecycle, written once here and run under
the backend's :class:`~repro.exec.resilience.ResilienceConfig`: start a
task, wait for it under the task and phase deadlines, on failure ask the
retry policy and start it again, and when its attempts run out raise its
error or bisect it and quarantine the poisoned part. An in-process task
body fires its planned fault and records its span in one place too. A
backend brings only hooks: how a task starts (inline when it is
gathered, as a thread future, as a pickled process task), what a
deadline overrun does (threads abandon the pool and fail; processes kill
it, use up an attempt and replay) and what a dead pool does (processes
only, under the restart breaker). The default config is the no-op
policy: every task runs once, its first error propagates and cancels the
tasks not started yet, and only a dead process pool is replayed.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.errors import ConfigurationError, PhaseTimeoutError, TaskTimeoutError
from repro.exec.resilience import (
    QuarantinedItem,
    QuarantineReport,
    ResilienceConfig,
    bisect_chunk,
)
from repro.exec.shm import REFERENCE, Broadcast, Gather, IpcStats, Plane, Segment
from repro.exec.spans import SpanRecorder

__all__ = [
    "ExecutionBackend",
    "RunBill",
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

    Module-level so the process backend can pickle a task as
    ``(fn, [item])``; a bisection probe sends a slice of the item the
    same way.
    """
    return [fn(item) for item in chunk]


class _Task:
    """Parent-side record of one task across its attempts and replays:
    a map item, or a bisection probe of one.

    ``item_index`` is the map item's position in the input (quarantine
    coordinates). ``billed`` flips when the task's first start is billed
    as a task, so every later start — retry, replay — is billed as a
    retry; a probe is born billed, as each of its runs re-executes part
    of a task that already ran.
    """

    __slots__ = (
        "fn", "item", "item_index", "task_id", "phase",
        "attempt", "billed", "future",
    )

    def __init__(
        self, fn, item, item_index: int, task_id: int, phase: str,
        *, billed: bool = False,
    ) -> None:
        self.fn = fn
        self.item = item
        self.item_index = item_index
        self.task_id = task_id
        self.phase = phase
        self.attempt = 1
        self.billed = billed
        self.future = None

    @property
    def key(self) -> str:
        return f"{self.phase}#{self.task_id}"


class RunBill:
    """What one run's tasks cost: IPC counters, spans, the quarantine
    report and task ids.

    ``run_pipeline`` makes one per run and sets it on every backend the
    run uses — its own, each one a plan builds, each downgraded one — so
    the run has one continuous bill whichever backend executes. A backend
    built outside a run carries its own. The phase cursor is the one in
    ``ipc``: shm handles and tile stores bill through it.
    """

    def __init__(self) -> None:
        self.ipc = IpcStats()
        #: Disarmed until ``spans.begin_run()`` (``run_pipeline(trace=True)``).
        self.spans = SpanRecorder()
        self.quarantine = QuarantineReport()
        self._task_ids: dict[str, int] = {}
        self._lock = threading.Lock()

    def next_task_id(self, phase: str) -> int:
        """The phase's next task id (0, 1, ... per phase), shared by the
        gather loop and the reader threads, so fault plans, retries and
        spans agree on numbering whether or not tracing is armed."""
        with self._lock:
            task_id = self._task_ids.get(phase, 0)
            self._task_ids[phase] = task_id + 1
        return task_id


class ExecutionBackend:
    """Map a function over items, preserving input order; the base class
    runs every item inline on the calling thread."""

    name = "abstract"
    #: Degree of real parallelism the backend targets (1 for sequential).
    workers = 1
    #: The grain rule of this tier: an operator phase splits its work into
    #: about this many contiguous ranges per worker (see
    #: :meth:`phase_grain`). In-process, a range's transients are the
    #: run's peak memory, so ranges stay small.
    tasks_per_worker = 8
    #: Whether the loop starts every item as the producer yields it
    #: (pooled backends) or each only once the result before it has been
    #: taken (inline).
    runs_ahead = False
    #: What a wait raises when the worker pool died under it (processes
    #: only): the lost tasks are replayed (:meth:`_replay`) without using
    #: up an attempt.
    _pool_death: tuple = ()

    def __init__(self, resilience: ResilienceConfig | None = None) -> None:
        #: What the backend's tasks are billed to; ``run_pipeline`` sets a
        #: fresh one for each run on every backend the run uses.
        self.bill = RunBill()
        #: Where shared arrays live (see :class:`repro.exec.shm.Plane`).
        self.plane = Plane(REFERENCE)
        #: Fault-tolerance policy (retries, deadlines, poison handling);
        #: the default config runs every task once and fails on its first
        #: error. Plain attribute — callers may replace it between phases.
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        #: Optional :class:`repro.exec.faultinject.FaultPlan` — when set,
        #: tasks consult it (in-process backends inline, the process
        #: backend via a directive shipped in the task payload).
        self.fault_plan = None
        self._phase_started = time.monotonic()

    def begin_phase(self, name: str) -> None:
        """Charge subsequent tasks/IPC/spans to the named pipeline phase."""
        self.bill.ipc.set_phase(name)
        self._phase_started = time.monotonic()

    # -- the task lifecycle -------------------------------------------------------
    #
    # One gather loop for every backend: start a task, wait for it under
    # the task and phase deadlines, on failure ask the retry policy and
    # start it again, and when its attempts run out raise it or bisect
    # it into quarantined leaves. The hooks after it are what differs.

    def _check_phase_deadline(self, phase: str) -> None:
        limit = self.resilience.phase_timeout_s
        if limit is not None and time.monotonic() - self._phase_started > limit:
            raise PhaseTimeoutError(
                f"phase {phase!r} exceeded its {limit:.3f}s deadline on "
                f"backend {self.name!r}"
            )

    def _wait_timeout(self) -> float | None:
        """Effective timeout for one wait: the per-task deadline, capped
        by whatever remains of the phase deadline."""
        cfg = self.resilience
        timeout = cfg.task_timeout_s
        if cfg.phase_timeout_s is not None:
            remaining = max(
                0.0, cfg.phase_timeout_s - (time.monotonic() - self._phase_started)
            )
            timeout = remaining if timeout is None else min(timeout, remaining)
        return timeout

    def _loop(self, fn, items: Iterable, bisect_items: bool) -> Iterator:
        """Start each item as the producer yields it (inline: only once
        the result before it is taken); gather in item order."""
        phase = self.bill.ipc.phase
        window: deque[_Task] = deque()  # started, not yet gathered
        try:
            for index, item in enumerate(items):
                task_id = self.bill.next_task_id(phase)
                task = _Task(fn, item, index, task_id, phase)
                self._start(task)
                window.append(task)
                if not self.runs_ahead:
                    yield from self._gather(window.popleft(), window, bisect_items)
            while window:
                yield from self._gather(window.popleft(), window, bisect_items)
        except BaseException:
            for task in window:
                if task.future is not None:
                    task.future.cancel()
            raise

    def _gather(self, task: _Task, window, bisect_items: bool) -> list:
        """One task's results: its item's, or — when its attempts ran out
        in quarantine mode — the survivors of bisecting it."""
        try:
            return [self._settle(task, window)]
        except Exception as exc:
            if not self.resilience.quarantining:
                raise

            def probe(sub):  # part of the item, under the same task id
                part = _Task(
                    task.fn, sub, task.item_index, task.task_id, task.phase,
                    billed=True,
                )
                self._start(part)
                return self._settle(part, window)

            def on_poisoned(index, sub_start, n_units, leaf_exc):
                self._note_quarantined(task, index, sub_start, n_units, leaf_exc)

            return bisect_chunk(
                task.item, probe, on_poisoned,
                item_index=task.item_index, bisect_items=bisect_items,
                failed_exc=exc,
            )

    def _settle(self, task: _Task, window):
        """Wait for a started task under the deadlines; on failure ask the
        retry policy and start it again. Returns its result, or raises
        its final error (with ``exc.attempts``)."""
        while True:
            try:
                self._check_phase_deadline(task.phase)
                return self._result(task, self._wait_timeout())
            except FutureTimeoutError as caught:
                # A task may raise TimeoutError itself: a failure, not an overrun.
                future = task.future
                own = future is None or (future.done() and future.exception() is caught)
                exc = caught if own else self._overrun(task)
            except PhaseTimeoutError:
                self._reclaim()
                raise
            except self._pool_death as death:
                self._replay([task, *window], death)
                continue
            except Exception as caught:
                exc = caught
            delay = self.resilience.retry.retry_delay(exc, task.key, task.attempt)
            if delay is None:
                raise exc
            if delay > 0:
                time.sleep(delay)
            task.attempt += 1
            self._restart(task, window)

    def _overrun(self, task: _Task) -> TaskTimeoutError:
        """A wait outlived the per-task deadline: reclaim the pool, fail
        the phase if its deadline passed too, and return the task's error
        for the retry policy."""
        outcome = self._reclaim()
        self._check_phase_deadline(task.phase)
        self.bill.ipc.record_timeout()
        return TaskTimeoutError(
            f"task {task.key} exceeded its per-task deadline on backend "
            f"{self.name!r} (attempt {task.attempt}); {outcome}"
        )

    def _note_quarantined(
        self, task: _Task, item_index: int, sub_start: int, n_units: int,
        exc: BaseException,
    ) -> None:
        self.bill.quarantine.add(
            QuarantinedItem(
                phase=task.phase,
                task_key=task.key,
                item_index=item_index,
                sub_start=sub_start,
                n_units=n_units,
                attempts=getattr(exc, "attempts", 1),
                error=str(exc),
                error_type=type(exc).__name__,
            )
        )
        self.bill.ipc.record_quarantined(n_units)

    def _bill(self, task: _Task, payload_bytes: int) -> None:
        """A task's first start is billed as a task; every later one —
        retry, replay, probe — as a retry."""
        if task.billed:
            self.bill.ipc.record_retry(payload_bytes)
        else:
            task.billed = True
            self.bill.ipc.record_task(payload_bytes)

    def _run_body(self, task: _Task, attempt: int, t_submit: float):
        """An in-process task body: fire any planned fault, apply the
        function, record the span."""
        if self.fault_plan is not None:
            self.fault_plan.fire(task.phase, task.task_id)
        spans = self.bill.spans
        t_start = spans.now()
        result = task.fn(task.item)
        spans.record(
            t_start, spans.now(), task_id=task.task_id, phase=task.phase,
            n_items=1, queue_s=t_start - t_submit, attempt=attempt,
        )
        return result

    # -- per-backend hooks ----------------------------------------------------------

    def _start(self, task: _Task) -> None:
        """Start one run of ``task`` (inline: nothing runs until it is
        gathered)."""
        self._bill(task, 0)

    def _restart(self, task: _Task, window) -> None:
        """Start ``task`` again after a failed attempt."""
        self._start(task)

    def _result(self, task: _Task, timeout: float | None):
        """Wait at most ``timeout`` for the started ``task``; return its
        result or raise its error (inline: run it now)."""
        return self._run_body(task, task.attempt, self.bill.spans.now())

    def _reclaim(self) -> str:
        """Walk away from whatever a deadline overrun left running; says
        what was done (inline nothing runs behind the caller's back)."""
        return "nothing to reclaim"

    def _replay(self, tasks, cause: BaseException) -> None:
        """Restart a dead pool and the ``tasks`` it lost (processes)."""
        raise NotImplementedError

    # -- data plane ---------------------------------------------------------------
    #
    # The channel calls of every backend. ``self.plane`` holds the one
    # transport decision (in-process: references); segments and
    # broadcasts bill ``self.bill.ipc``.

    def share_arrays(self, tag: str, arrays) -> Segment:
        """Place phase-constant arrays where every worker can see them.

        Returns a segment that is its own picklable descriptor (it rides
        ``configure`` initargs) and whose ``close()`` releases the
        placement. In-process it holds the very same arrays: nothing is
        copied.
        """
        return self.plane.track(Segment(
            tag, arrays=arrays, shared=self.plane.shared, stats=self.bill.ipc
        ))

    def open_broadcast(self, tag: str, template) -> Broadcast:
        """Open a channel for per-iteration array publication.

        ``template`` fixes the arity, shapes and dtypes every later
        :meth:`broadcast` must match.
        """
        return self.plane.track(
            Broadcast(tag, template, self.plane.transport, self.bill.ipc)
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
        return self.plane.track(Gather(tag, table, self.plane.transport, self.bill.ipc))

    def allocate_arrays(self, tag: str, specs) -> Segment | None:
        """A zero-filled shared segment of ``(key, dtype, shape)`` arrays
        that workers write in place, or ``None`` when results must come
        back through the task's return value (every in-process backend,
        where returning them copies nothing)."""
        if not self.plane.shared:
            return None
        return self.plane.track(Segment(tag, specs, shared=True, stats=self.bill.ipc))

    def broadcast(self, channel, arrays):
        """Publish this iteration's arrays; returns the token tasks carry.

        Workers read them back through the channel *descriptor* with
        ``read(token)``. The token is the generation number, or on the
        value transport the arrays themselves.
        """
        token = channel.publish(arrays)
        self.bill.ipc.record_broadcast(channel.payload_bytes)
        return token

    def phase_grain(self, n_items: int) -> int:
        """Units of work per map item when an operator phase splits
        ``n_items`` into items (the tier's grain rule; the backends never
        re-chunk, so this is the only one)."""
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

    def imap(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Iterable[ItemT],
        *,
        bisect_items: bool = False,
    ) -> Iterator[ResultT]:
        """Apply ``fn`` to each item, one task per item; yield the results
        in item order, each as soon as it is gathered.

        ``items`` may be a lazy producer (e.g. a prefetching corpus
        reader): pooled backends submit each item as it is yielded, so
        early tasks run while later items are still being produced. A
        caller that folds results as they come holds only those not
        folded yet: inline, item *i + 1* starts only when result *i* has
        been taken; on threads, only the results finished ahead of the
        consumer wait (the process backend gathers eagerly). An exception
        from a task or from the producer — or the consumer closing the
        generator early — cancels every task not started yet.
        ``bisect_items`` opts quarantine-mode bisection into splitting
        *inside* sequence-valued items (only meaningful for callers whose
        per-item results are flattened in order, like the chunked text
        kernels).
        """
        return self._loop(fn, items, bisect_items)

    def map(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Iterable[ItemT],
        *,
        bisect_items: bool = False,
    ) -> list[ResultT]:
        """Every result of :meth:`imap`, in item order."""
        return list(self.imap(fn, items, bisect_items=bisect_items))

    def map_documents(
        self, fn: Callable, chunks: Iterable, starts: Sequence[int],
        doc_ids: Sequence[int] | None = None,
    ) -> tuple[list, list[int]]:
        """:meth:`map` over chunks of documents, bisected down to one
        document in quarantine mode; returns the results and the
        positions of the documents quarantined.

        ``starts[i]`` is the position of chunk ``i``'s first document,
        read after the map, so a lazy producer may fill it as it yields.
        The bill's quarantine report notes each position as a document
        id: ``doc_ids[position]``, or the position itself when
        ``doc_ids`` is ``None``.
        """
        report = self.bill.quarantine
        before = len(report.items)
        parts = self.map(fn, chunks, bisect_items=True)
        dropped = [
            at
            for item in report.items[before:]
            for at in range(
                starts[item.item_index] + item.sub_start,
                starts[item.item_index] + item.sub_start + item.n_units,
            )
        ]
        report.doc_ids.extend(
            dropped if doc_ids is None else [doc_ids[at] for at in dropped]
        )
        return parts, dropped

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SequentialBackend(ExecutionBackend):
    """Runs the loop inline on the calling thread (the base class's
    :meth:`~ExecutionBackend.imap`)."""

    name = "sequential"


class ThreadBackend(ExecutionBackend):
    """Runs the loop on a pool of OS threads, one future per task."""

    runs_ahead = True

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

    def _start(self, task: _Task) -> None:
        super()._start(task)
        task.future = self._ensure_pool().submit(
            self._run_body, task, task.attempt, self.bill.spans.now()
        )

    def _result(self, task: _Task, timeout: float | None):
        return task.future.result(timeout=timeout)

    def _reclaim(self) -> str:
        """Walk away from a pool with a wedged thread.

        Threads cannot be killed; all we can do is cancel what has not
        started and stop handing the pool new work. The wedged thread
        finishes (or sleeps out) on its own.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return "threads cannot be reclaimed — pool abandoned"

    def _overrun(self, task: _Task) -> TaskTimeoutError:
        # Final: the wedged thread still holds its item.
        raise super()._overrun(task) from None

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
