"""Process-pool execution backend: operator loops on worker processes.

:class:`~repro.exec.inline.ThreadBackend` overlaps the kernels' numpy
calls, which release the GIL, but runs their per-row Python one thread
at a time; this module runs the loops on a pool of worker *processes*
instead, which bypass the GIL entirely at the price of pickled IPC and a
serial merge in the parent (``docs/backends.md`` compares the tiers).

Design points (see ``docs/backends.md`` for the cost model):

* **One item, one task.** ``imap`` pickles one task per item, as
  ``(fn, [item])``. The backend never re-chunks: operators hand it
  items already cut to the tier's grain
  (:meth:`ProcessBackend.phase_grain`), so the pickle round trip is
  amortized over a whole range of documents, not paid per document.
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
  pickle-the-payload trampoline, so ``backend.bill.ipc`` counts the *exact*
  bytes serialized each way, per pipeline phase — on a 1-CPU host the
  wall clock cannot show the shm win, the byte counters can.
* **Order preservation.** Results are collected in submission order, so
  ``map`` output is aligned with its input no matter which worker
  finished first.
* **One lifecycle, its own hooks.** Retries, deadlines, fault plans and
  quarantine are :class:`~repro.exec.inline.ExecutionBackend`'s one
  gather loop. This module adds only what is a process pool's own: a
  task — a bisection probe too, since kernels read the worker state
  ``configure`` installed — starts as a pickled payload on a worker; a
  deadline overrun kills the pool, uses up the task's attempt and
  replays; a dead pool (``BrokenProcessPool``) restarts and replays the
  unfinished tasks without using up attempts, up to
  ``max_pool_restarts`` times per phase, past which the pool is reset
  and the shared plane unlinked, so nothing leaks. The gather is eager:
  ``imap`` runs the loop to the end, then hands the results out.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from repro.errors import ConfigurationError, TaskTimeoutError
from repro.exec.faultinject import fire_spec
from repro.exec.inline import (
    ExecutionBackend,
    SequentialBackend,
    ThreadBackend,
    _Task,
    apply_chunk,
)
from repro.exec.resilience import ResilienceConfig
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

    The parent pickles ``(fn, [item])`` itself — measuring the payload —
    and the worker pickles the results back, so both directions are
    counted without serializing anything twice. Hardened submissions
    append ``(fault, attempt)``: a planned-fault directive fired before
    the task runs (see :mod:`repro.exec.faultinject`) and the 1-based
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
    runs_ahead = True
    _pool_death = (BrokenProcessPool,)

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
            self.bill.ipc.record_configure(0)
        else:
            # spawn/forkserver serialize the boot state into every worker.
            self.bill.ipc.record_configure(len(pickle.dumps(initargs)) * self.workers)

    def _epoch(self) -> float | None:
        return self.bill.spans.epoch if self.bill.spans.enabled else None

    def _install(self) -> None:
        """Run one install task per live worker (see :func:`run_install`).

        A pool that dies under the install is dropped: the next map
        starts a fresh generation, which boots with the latest state.
        """
        epoch = self._epoch()
        payload = pickle.dumps((epoch, *(self._init or (None, ()))))
        self.bill.ipc.record_configure(len(payload) * self.workers)
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
        elif self.bill.spans.enabled and self._pool_epoch != self.bill.spans.epoch:
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
        context = f"worker pool crashed during phase {self.bill.ipc.phase!r}"
        if self._last_task is not None:
            context += f" (last submitted task {self._last_task})"
        detail = str(cause).strip() if cause is not None else ""
        if detail:
            context += f": {detail}"
        return BrokenProcessPool(context)

    # -- execution ---------------------------------------------------------------

    def _absorb_blob(self, blob):
        """Account one trampoline return value; unpickle its one result.

        Traced futures return ``(results_blob, span_blob)``; the span is
        handed to the recorder and its bytes billed to the separate span
        counter, so result-byte accounting is identical traced or not.
        """
        if isinstance(blob, tuple):
            blob, span_blob = blob
            self.bill.ipc.record_span_payload(len(span_blob))
            self.bill.spans.record_worker_span(pickle.loads(span_blob))
        self.bill.ipc.record_result(len(blob))
        (result,) = pickle.loads(blob)
        return result

    def _task_payload(self, task: _Task):
        """Pickle one task; returns ``(payload, trampoline)``.

        The payload carries ``[task.item]`` (a bisection probe's item is
        its slice). First-attempt tasks with no planned fault ship the
        plain shapes — ``(fn, [item])``, traced ``(fn, [item], task_id,
        phase, t_submit)``; the optional ``(fault, attempt)`` tail is
        appended only when it carries information.
        """
        fault = None
        if self.fault_plan is not None:
            spec = self.fault_plan.spec_for(task.phase, task.task_id)
            if spec is not None:
                fault = (spec, self.fault_plan.state_dir)
        extra = (fault, task.attempt) if (fault is not None or task.attempt > 1) else ()
        chunk = [task.item]
        if self.bill.spans.enabled:
            base = (task.fn, chunk, task.task_id, task.phase, self.bill.spans.now())
            return pickle.dumps(base + extra), run_pickled_chunk_traced
        return pickle.dumps((task.fn, chunk) + extra), run_pickled_chunk

    def _start(self, task: _Task) -> None:
        """Pickle ``task`` and hand it to a worker. A pool that is already
        dead fails the task's future, so the gather replays it like any
        other pool death."""
        payload, target = self._task_payload(task)
        self._last_task = task.key
        self._bill(task, len(payload))
        try:
            task.future = self._ensure_pool().submit(target, payload)
        except BrokenProcessPool as exc:
            task.future = Future()
            task.future.set_exception(exc)

    def _result(self, task: _Task, timeout: float | None):
        return self._absorb_blob(task.future.result(timeout=timeout))

    def _reclaim(self) -> str:
        self._kill_pool()
        return "worker killed"

    def _restart(self, task: _Task, window) -> None:
        if self._pool is not None:
            self._start(task)
        else:  # a deadline overrun killed the pool under the whole window
            cause = TaskTimeoutError(f"hung task {task.key}; worker killed")
            self._replay([task, *window], cause)

    def _replay(self, tasks, cause: BaseException) -> None:
        """Respawn after a pool death (or hung-worker kill); start again
        every task that did not finish.

        A finished task keeps its result (its future outlives the
        executor); the rest restart at their current attempt — a pool
        death is the pool's fault, not the task's. Shared segments were
        never unlinked, and the new pool boots with the latest configured
        state, so respawned workers re-attach through the same
        descriptors. Bounded per phase by the ``max_pool_restarts``
        circuit breaker.
        """
        self._pool_restarts_phase += 1
        if self._pool_restarts_phase > self.resilience.max_pool_restarts:
            raise self._broken(cause) from cause
        self.bill.ipc.record_pool_restart()
        self._close_pool()
        for task in tasks:
            future = task.future
            if not future.done() or future.cancelled() or future.exception():
                self._start(task)

    def imap(self, fn, items, *, bisect_items=False):
        """The base loop, gathered eagerly: it runs to the end, then hands
        the results out one by one. On shm a k-means fit's block results
        sit in its gather arena, sized for every block, whichever way
        they are handed out."""
        return iter(list(super().imap(fn, items, bisect_items=bisect_items)))


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
