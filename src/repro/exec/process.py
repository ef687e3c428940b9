"""Process-pool execution backend: operator loops on worker processes.

:class:`~repro.exec.inline.ThreadBackend` overlaps the kernels' numpy
calls, which release the GIL, but runs their per-row Python one thread
at a time; this module runs the loops on a pool of worker *processes*
instead, which bypass the GIL entirely at the price of pickled IPC and a
serial merge in the parent (``docs/backends.md`` compares the tiers).

Design points (see ``docs/backends.md`` for the cost model):

* **Chunk-batched IPC.** ``map`` pickles one task per *chunk* of items
  (Cilk-style grain via :func:`~repro.exec.inline.auto_grain`), so the
  per-task pickle/unpickle round trip is amortized over the whole chunk
  instead of being paid per document. ``map_stream`` micro-batches the
  producer's items the same way while still submitting each batch the
  moment it fills.
* **One pool generation, installed state.** Phase-constant state
  (tokenizer, placed matrix) is shipped once per worker through
  :meth:`ProcessBackend.configure`, not serialized into every task. The
  pool is forked once per backend; later phases *install* their state
  into the live workers (one barrier-held install task per worker, see
  :func:`run_install`), dropping the previous phase's. A pool restarted
  after a crash boots with the latest state.
* **One range per worker.** Operator phases split their work into one
  contiguous range per worker (:meth:`ProcessBackend.phase_grain`): one
  pickle round trip per worker and phase, one part per worker to merge.
* **Shared-memory data plane.** The backend's only data-plane decision
  is its :class:`~repro.exec.shm.Plane`'s transport: ``shm`` (the
  default where POSIX shared memory works) or, with ``shm`` off, by
  value. The channel calls are :class:`~repro.exec.inline.ExecutionBackend`'s.
  Over shm, placed arrays sit in named segments that workers attach
  zero-copy, a broadcast writes per-iteration arrays into two stamped
  slots so tasks shrink to integer tokens, and tasks write gathered
  results and allocated arrays into segments the parent reads. By value,
  placed arrays ride the install, broadcast arrays the tasks and results
  the returns, through the same operator code. ``close()`` unlinks every
  segment, including after a worker crash.
* **IPC accounting.** Tasks round-trip through an explicit
  pickle-the-payload trampoline, so ``backend.ipc`` counts the *exact*
  bytes serialized each way, per pipeline phase — on a 1-CPU host the
  wall clock cannot show the shm win, the byte counters can.
* **Order preservation.** Results are collected in submission order, so
  ``map`` output is aligned with its input no matter which worker
  finished first.
* **One loop.** ``map`` and ``map_stream`` build their chunks and hand
  them to one gather loop run under the backend's
  :class:`~repro.exec.resilience.ResilienceConfig`. An exception raised
  by the mapped function — or by the producer — propagates to the caller
  once the policy's retries are spent (none by default), and all
  not-yet-started chunks are cancelled first. The pool stays usable for
  subsequent ``map`` calls. A crashed worker (``BrokenProcessPool``)
  restarts the pool and replays the unfinished chunks, up to
  ``max_pool_restarts`` times per phase; past that, the pool is reset and
  the shared plane unlinked, so nothing leaks.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from repro.errors import ConfigurationError, PhaseTimeoutError, TaskTimeoutError
from repro.exec.faultinject import fire_spec
from repro.exec.inline import (
    ExecutionBackend,
    SequentialBackend,
    ThreadBackend,
    _ChunkTask,
    _as_list,
    _cancel,
    _ranges,
    apply_chunk,
    auto_grain,
)
from repro.exec.resilience import ResilienceConfig, bisect_chunk, run_attempts
from repro.exec.shm import SHM, VALUE, Plane, detach_all, shm_available
from repro.exec.spans import install_worker_epoch, worker_now

__all__ = [
    "ProcessBackend", "make_backend", "BACKEND_CHOICES", "default_start_method",
    "register_worker_reset",
]

#: Names accepted by :func:`make_backend` (and the CLI ``--backend`` flag).
BACKEND_CHOICES = ("sequential", "threads", "processes")

#: Singular spellings normalize to the canonical names, so
#: ``--backend process`` does what it obviously means.
_BACKEND_ALIASES = {"process": "processes", "thread": "threads", "inline": "sequential"}

#: ``map_stream`` cannot see the producer's length up front; its default
#: micro-batch grain assumes a window of this many items.
_STREAM_WINDOW = 256


def default_start_method() -> str:
    """Pick the cheapest available start method.

    ``fork`` makes worker start-up and initializer shipping nearly free on
    Linux (pages are shared copy-on-write); elsewhere we fall back to the
    platform default (``spawn`` on macOS/Windows), which requires the
    initializer and kernels to be importable module-level functions —
    which all of :mod:`repro.ops.kernels` are.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def run_pickled_chunk(payload: bytes) -> bytes:
    """Worker-side trampoline for exact IPC accounting.

    The parent pickles ``(fn, chunk)`` itself — measuring the payload —
    and the worker pickles the results back, so both directions are
    counted without serializing anything twice. Hardened submissions
    append ``(fault, attempt)``: a planned-fault directive fired before
    the chunk runs (see :mod:`repro.exec.faultinject`) and the 1-based
    execution attempt.
    """
    loaded = pickle.loads(payload)
    fn, chunk = loaded[0], loaded[1]
    if len(loaded) > 2 and loaded[2] is not None:
        spec, state_dir = loaded[2]
        fire_spec(spec, state_dir)
    return pickle.dumps(apply_chunk(fn, chunk))


#: Seconds an install task waits at its pool's barrier for the install
#: tasks of the other workers.
_INSTALL_TIMEOUT_S = 60.0

#: Worker side: the barrier of this worker's pool generation, handed over
#: by :func:`boot_worker`.
_BARRIER = None

#: Worker side: what drops one phase's state before the next phase's is
#: installed. Modules with per-worker state register here.
_WORKER_RESETS: list[Callable[[], None]] = [detach_all]


def register_worker_reset(reset: Callable[[], None]) -> None:
    """Have every later install call ``reset()`` in each pool worker."""
    if reset not in _WORKER_RESETS:
        _WORKER_RESETS.insert(0, reset)  # before the segments detach


def _apply_state(state: tuple) -> None:
    epoch, initializer, initargs = state
    if epoch is not None:
        # Re-base the worker clock onto the parent's timeline (tracing).
        install_worker_epoch(epoch)
    if initializer is not None:
        initializer(*initargs)


def boot_worker(barrier, state: tuple) -> None:
    """Pool initializer: keep the generation's barrier, install ``state``
    — ``(epoch, initializer, initargs)``, the latest ``configure`` of the
    backend when the pool was (re)started."""
    global _BARRIER
    _BARRIER = barrier
    _apply_state(state)


def run_install(payload: bytes) -> None:
    """One worker's share of an install: drop the previous phase's state,
    install the pickled ``state``, then wait at the barrier until every
    other worker has taken its install task — so each takes exactly one."""
    for reset in _WORKER_RESETS:
        reset()
    _apply_state(pickle.loads(payload))
    _BARRIER.wait(_INSTALL_TIMEOUT_S)


def run_pickled_chunk_traced(payload: bytes) -> tuple[bytes, bytes]:
    """Traced twin of :func:`run_pickled_chunk`: same single round trip.

    The span — phase, task id, pid, re-based start/end, item count and
    exact payload bytes each way — is pickled *separately* from the
    results and piggy-backed on the same return value, so the parent can
    bill result bytes and span bytes to different counters. The results
    pickle is byte-for-byte the one the untraced trampoline produces.
    """
    t_start = worker_now()
    loaded = pickle.loads(payload)
    fn, chunk, task_id, phase, t_submit = loaded[:5]
    fault = loaded[5] if len(loaded) > 5 else None
    attempt = loaded[6] if len(loaded) > 6 else 1
    if fault is not None:
        spec, state_dir = fault
        fire_spec(spec, state_dir)
    results_blob = pickle.dumps(apply_chunk(fn, chunk))
    span = (
        phase,
        task_id,
        os.getpid(),
        t_start,
        worker_now(),
        len(chunk),
        len(payload),
        len(results_blob),
        max(0.0, t_start - t_submit),
        attempt,
    )
    return results_blob, pickle.dumps(span)


class ProcessBackend(ExecutionBackend):
    """Runs operator loops on a pool of worker processes."""

    #: One contiguous range per worker and phase: each task pays a pickle
    #: round trip and leaves one part for the parent to merge.
    tasks_per_worker = 1

    def __init__(
        self,
        workers: int,
        start_method: str | None = None,
        shm: bool | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        super().__init__(resilience)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.name = f"processes-{workers}"
        self._start_method = start_method or default_start_method()
        if shm is None:
            shm = shm_available()  # auto-fallback on platforms without it
        elif shm and not shm_available():
            raise ConfigurationError(
                "shared memory requested but unavailable on this platform"
            )
        self.plane = Plane(SHM if shm else VALUE)
        self._pool: ProcessPoolExecutor | None = None
        #: (initializer, initargs) of the latest ``configure``: installed
        #: into the live workers, and what a (re)started pool boots with.
        self._init: tuple[Callable[..., None], tuple] | None = None
        #: Trace epoch the live workers' clocks are based on (``None``:
        #: never armed); re-arming the recorder installs the new one.
        self._pool_epoch: float | None = None
        #: ``"phase#task_id"`` of the most recently submitted task — the
        #: context a :class:`BrokenProcessPool` error names.
        self._last_task: str | None = None
        #: Worker-pool deaths absorbed in the current phase; bounded by
        #: the circuit breaker (``resilience.max_pool_restarts``).
        self._pool_restarts_phase = 0

    def begin_phase(self, name: str) -> None:
        super().begin_phase(name)
        self._pool_restarts_phase = 0

    def phase_grain(self, n_items: int) -> int:
        return max(1, -(-n_items // self.workers))

    # -- pool lifecycle ----------------------------------------------------------

    def configure(self, initializer, initargs=()) -> None:
        """Install per-worker state in the live pool — one pool generation
        per backend, not per phase.

        Sameness is judged by identity (the initializer function and each
        initarg), not equality — initargs may hold numpy arrays, and
        callers that did not change the state pass the same objects.
        Without a live pool the state waits for the pool's start (under
        fork the workers inherit it, nothing is pickled); with one, every
        worker drops the previous phase's state and installs the new one
        (:func:`run_install`).
        """
        if self._init is not None:
            prev_fn, prev_args = self._init
            if (
                prev_fn is initializer
                and len(prev_args) == len(initargs)
                and all(a is b for a, b in zip(prev_args, initargs))
            ):
                return
        self._init = (initializer, initargs)
        if self._pool is not None:
            self._install()
        elif self._start_method == "fork":
            self.ipc.record_configure(0)
        else:
            # spawn/forkserver serialize the boot state into every worker.
            self.ipc.record_configure(len(pickle.dumps(initargs)) * self.workers)

    def _epoch(self) -> float | None:
        return self.spans.epoch if self.spans.enabled else None

    def _install(self) -> None:
        """Run one install task per live worker (see :func:`run_install`).

        A pool that dies under the install is dropped: the next map
        starts a fresh generation, which boots with the latest state.
        """
        epoch = self._epoch()
        payload = pickle.dumps((epoch, *(self._init or (None, ()))))
        self.ipc.record_configure(len(payload) * self.workers)
        try:
            futures = [
                self._pool.submit(run_install, payload)
                for _ in range(self.workers)
            ]
            for future in futures:
                future.result()
        except BrokenProcessPool:
            self._kill_pool()
            return
        except BaseException:
            # An install that raised (or a barrier that broke) leaves the
            # workers in mixed states: this generation cannot be trusted.
            self._kill_pool()
            raise
        self._pool_epoch = epoch

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context(self._start_method)
            epoch = self._epoch()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=boot_worker,
                initargs=(
                    context.Barrier(self.workers),
                    (epoch, *(self._init or (None, ()))),
                ),
            )
            self._pool_epoch = epoch
        elif self.spans.enabled and self._pool_epoch != self.spans.epoch:
            # Arming (or re-arming) the recorder changes the epoch every
            # worker must re-base against: the same install ships it.
            self._install()
            if self._pool is None:  # died under the install
                return self._ensure_pool()
        return self._pool

    def _close_pool(self) -> None:
        """Shut the pool down but keep shared segments alive (a replay
        re-attaches through the same descriptors)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _kill_pool(self) -> None:
        """Hard-kill every pool worker (hung-task reclamation).

        Unlike threads, processes *can* be reclaimed: SIGKILL the
        workers, abandon the executor without waiting, and let the next
        ``_ensure_pool`` start a fresh generation. Shared segments stay
        alive — the parent owns them.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        self._close_pool()
        self.plane.close()

    def _broken(self, cause: BaseException | None = None) -> BrokenProcessPool:
        # A worker died (segfault, OOM kill): the pool is unusable and its
        # workers may never have detached. Full close — pool reset *and*
        # segment unlink — so a crash cannot leak /dev/shm entries; the
        # next map starts a fresh generation. The returned error names the
        # phase and the last task handed to the pool, so a crash report
        # says *where* in the pipeline the worker died.
        self.close()
        context = f"worker pool crashed during phase {self.ipc.phase!r}"
        if self._last_task is not None:
            context += f" (last submitted task {self._last_task})"
        detail = str(cause).strip() if cause is not None else ""
        if detail:
            context += f": {detail}"
        error = BrokenProcessPool(context)
        # Marks the error as already carrying the diagnostic context, so
        # outer handlers do not wrap it a second time.
        error._repro_diagnosed = True  # type: ignore[attr-defined]
        return error

    # -- execution ---------------------------------------------------------------

    def _absorb_blob(self, blob) -> list:
        """Account one trampoline return value; unpickle its results.

        Traced futures return ``(results_blob, span_blob)``; the span is
        handed to the recorder and its bytes billed to the separate span
        counter, so result-byte accounting is identical traced or not.
        """
        if isinstance(blob, tuple):
            blob, span_blob = blob
            self.ipc.record_span_payload(len(span_blob))
            self.spans.record_worker_span(pickle.loads(span_blob))
        self.ipc.record_result(len(blob))
        return pickle.loads(blob)

    def _task_payload(self, fn, chunk, task_id: int, phase: str, attempt: int):
        """Pickle one task; returns ``(payload, trampoline)``.

        First-attempt tasks with no planned fault ship the plain shapes —
        ``(fn, chunk)``, traced ``(fn, chunk, task_id, phase, t_submit)``;
        the optional ``(fault, attempt)`` tail is appended only when it
        carries information.
        """
        fault = None
        if self.fault_plan is not None:
            spec = self.fault_plan.spec_for(phase, task_id)
            if spec is not None:
                fault = (spec, self.fault_plan.state_dir)
        extra = (fault, attempt) if (fault is not None or attempt > 1) else ()
        if self.spans.enabled:
            base = (fn, chunk, task_id, phase, self.spans.now())
            return pickle.dumps(base + extra), run_pickled_chunk_traced
        return pickle.dumps((fn, chunk) + extra), run_pickled_chunk

    def _submit_task(self, pool, task: _ChunkTask, *, resubmit: bool = False) -> None:
        payload, target = self._task_payload(
            task.fn, task.chunk, task.task_id, task.phase, task.attempt
        )
        self._last_task = task.key
        if resubmit:
            # Re-executions of any cause — retry, crash replay, bisection
            # probe — bill their pickle bytes to the recovery counters.
            self.ipc.record_retry(len(payload))
        else:
            self.ipc.record_task(len(payload))
        task.future = pool.submit(target, payload)

    def _recover_pool(self, tasks, cause: BaseException) -> None:
        """Respawn after a pool death (or hung-worker kill); replay what
        did not finish.

        Completed chunks keep their results (harvested from done futures
        before the executor is dropped); only in-flight chunks are
        resubmitted, at their current attempt — a pool death is the
        pool's fault, not the task's. Shared segments were never
        unlinked, and the new pool boots with the latest configured
        state, so respawned workers re-attach through the same
        descriptors. Bounded per phase by the ``max_pool_restarts``
        circuit breaker.
        """
        self._pool_restarts_phase += 1
        if self._pool_restarts_phase > self.resilience.max_pool_restarts:
            raise self._broken(cause) from cause
        self.ipc.record_pool_restart()
        for task in tasks:
            if task.results is None and task.future is not None and task.future.done():
                try:
                    blob = task.future.result(timeout=0)
                except Exception:
                    continue
                task.results = self._absorb_blob(blob)
        self._close_pool()
        pool = self._ensure_pool()
        for task in tasks:
            if task.results is None:
                self._submit_task(pool, task, resubmit=True)

    def _run_chunk_sync(self, task: _ChunkTask, sub: list) -> list:
        """One bisection probe through the pool, synchronously.

        Probes must run on *workers* — kernels depend on per-worker state
        installed by ``configure`` that the parent never runs — and their
        pickle bytes are recovery overhead, billed like retries.
        """
        cfg = self.resilience

        def thunk(attempt: int) -> list:
            pool = self._ensure_pool()
            payload, target = self._task_payload(
                task.fn, sub, task.task_id, task.phase, attempt
            )
            self.ipc.record_retry(len(payload))
            future = pool.submit(target, payload)
            try:
                return self._absorb_blob(future.result(timeout=self._wait_timeout()))
            except FutureTimeoutError:
                self.ipc.record_timeout()
                self._kill_pool()
                raise TaskTimeoutError(
                    f"bisection probe for task {task.key} exceeded its "
                    "deadline; worker killed"
                ) from None
            except BrokenProcessPool as exc:
                self._pool_restarts_phase += 1
                if self._pool_restarts_phase > cfg.max_pool_restarts:
                    raise self._broken(exc) from exc
                self.ipc.record_pool_restart()
                self._close_pool()
                raise

        return run_attempts(cfg.retry, task.key, thunk)

    def _bisect_poisoned(self, task: _ChunkTask, exc: Exception, bisect_items: bool):
        def on_poisoned(index, sub_start, n_units, leaf_exc):
            self._note_quarantined(
                task.phase, task.key, index, sub_start, n_units, leaf_exc
            )

        return bisect_chunk(
            task.chunk,
            lambda sub: self._run_chunk_sync(task, sub),
            on_poisoned,
            item_index=task.item_index,
            bisect_items=bisect_items,
            failed_exc=exc,
        )

    def _collect(self, tasks, bisect_items: bool) -> list:
        """Ordered gather: retry, replay, reclaim, quarantine.

        Worker-raised exceptions consume the task's retry budget; pool
        deaths and hung-worker kills do not (they are bounded by the
        restart breaker instead). A task that exhausts its budget either
        raises (default) or is bisected into quarantined leaves.
        """
        cfg = self.resilience
        position = 0
        while position < len(tasks):
            task = tasks[position]
            if task.results is not None:
                position += 1
                continue
            try:
                self._check_phase_deadline(task.phase)
                blob = task.future.result(timeout=self._wait_timeout())
            except FutureTimeoutError:
                try:
                    self._check_phase_deadline(task.phase)
                except PhaseTimeoutError:
                    self._kill_pool()
                    raise
                self.ipc.record_timeout()
                self._kill_pool()
                if cfg.retry.gives_up_after(task.attempt):
                    raise TaskTimeoutError(
                        f"task {task.key} exceeded its "
                        f"{cfg.task_timeout_s:.3f}s deadline on backend "
                        f"{self.name!r} (attempt {task.attempt}); worker killed"
                    ) from None
                task.attempt += 1
                self._recover_pool(
                    tasks, TaskTimeoutError(f"hung task {task.key}; worker killed")
                )
                continue
            except PhaseTimeoutError:
                raise  # final: the caller cancels what is left
            except BrokenProcessPool as exc:
                self._recover_pool(tasks, exc)
                continue
            except Exception as exc:
                if cfg.retry.is_retryable(exc) and not cfg.retry.gives_up_after(
                    task.attempt
                ):
                    delay = cfg.retry.backoff_s(task.key, task.attempt)
                    if delay > 0:
                        time.sleep(delay)
                    task.attempt += 1
                    self._submit_task(self._ensure_pool(), task, resubmit=True)
                    continue
                exc.attempts = task.attempt  # type: ignore[attr-defined]
                if not cfg.quarantining:
                    raise
                task.results = self._bisect_poisoned(task, exc, bisect_items)
                position += 1
                continue
            task.results = self._absorb_blob(blob)
            position += 1
        return [result for task in tasks for result in task.results]

    def _run_chunks(self, fn, chunks, bisect_items: bool) -> list:
        """Submit ``(item_index, chunk)`` tasks as the producer yields
        them; gather with the policy (:meth:`_collect`).

        A pool that dies under a submission is recovered like one that
        dies under the gather. Any exception, from the producer or from a
        task, cancels every unfinished task before it propagates.
        """
        phase = self.ipc.phase
        tasks: list[_ChunkTask] = []
        try:
            for item_index, chunk in chunks:
                task = _ChunkTask(
                    fn, chunk, item_index, self._next_task_id(phase), phase
                )
                tasks.append(task)
                try:
                    self._submit_task(self._ensure_pool(), task)
                except BrokenProcessPool as exc:
                    self._recover_pool(tasks, exc)
            return self._collect(tasks, bisect_items)
        except BrokenProcessPool as exc:
            if getattr(exc, "_repro_diagnosed", False):
                raise
            raise self._broken(exc) from exc
        except BaseException:
            _cancel(tasks)
            raise

    def map(self, fn, items, *, grain=None, bisect_items=False):
        items = _as_list(items)
        if grain is None:
            grain = auto_grain(len(items), self.workers)
        return self._run_chunks(fn, _ranges(items, grain), bisect_items)

    def map_stream(self, fn, items, *, grain=None, bisect_items=False):
        """Micro-batched streaming map: one pickled task per *batch*.

        Items are grouped into batches of ``grain`` as the producer
        yields them, and each batch is submitted the moment it fills —
        delivery stays ordered and submit-as-produced, but a slow
        producer of many small items no longer pays one pickle round
        trip per item.
        """
        if grain is None:
            grain = auto_grain(_STREAM_WINDOW, self.workers)
        if grain < 1:
            raise ConfigurationError(f"grain must be >= 1, got {grain}")

        def batches():
            offset = 0
            batch: list = []
            for item in items:
                batch.append(item)
                if len(batch) >= grain:
                    yield offset, batch
                    offset += len(batch)
                    batch = []
            if batch:
                yield offset, batch

        return self._run_chunks(fn, batches(), bisect_items)


def make_backend(
    name: str,
    workers: int = 1,
    shm: bool | None = None,
    resilience: ResilienceConfig | None = None,
) -> ExecutionBackend:
    """Build a backend from its CLI name (one of :data:`BACKEND_CHOICES`).

    ``shm`` applies to the process backend (``None`` = use it where
    available); the in-process backends share an address space, so for
    them the flag is a no-op by construction. ``resilience`` installs a
    fault-tolerance policy (default: no retries, no deadlines, fail on
    the first task error; a dead pool is still restarted, see
    ``docs/resilience.md``).
    Singular spellings (``process``, ``thread``) are accepted as aliases.
    """
    name = _BACKEND_ALIASES.get(name, name)
    if name == "sequential":
        return SequentialBackend(resilience)
    if name == "threads":
        return ThreadBackend(workers, resilience)
    if name == "processes":
        return ProcessBackend(workers, shm=shm, resilience=resilience)
    raise ConfigurationError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKEND_CHOICES)}"
    )
