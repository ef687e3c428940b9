"""The serve daemon: admission control, warm pools, crash recovery.

One :class:`ServeDaemon` owns a state directory
(:mod:`repro.serve.transport` layout). Its main loop scans the inbox,
journals and admits (or sheds) each submission, and a small crew of
executor threads runs admitted jobs over *warm* execution backends that
persist across jobs — the pool-spawn cost is paid once per breaker
replacement, not once per run. Every completed job feeds the persistent
run ledger and, when the daemon started with a calibration store,
:meth:`~repro.plan.CalibrationStore.observe_run`, so the planner's
constants sharpen under live traffic.

Reliability stance (proved by the crash-matrix test and the CI smoke):

* **exactly-once** — the durable ``done`` append is the commit point;
  recovery replays the journal and re-runs only jobs without a terminal
  record, and deterministic pipelines make the re-run bit-identical;
* **backpressure** — a bounded queue sheds with a recorded reason once
  depth or (when calibration exists) predicted cost exceeds budget;
* **isolation** — a poisoned or crashing job fails alone: its error is
  journaled, its broken pool is replaced, and a circuit breaker trips
  the daemon into drain mode only after repeated pool losses;
* **graceful lifecycle** — SIGTERM (or a drain marker) stops admission,
  lets in-flight jobs finish under a deadline, journals ``shutdown``,
  and re-delivers the signal (the shm plane's cleanup-handler idiom,
  :func:`repro.exec.shm.register_cleanup_resource`); queued jobs
  stay ``admitted`` in the journal and are recovered on the next start.

``REPRO_SERVE_KILL_AT={queued,admitted,running,completing}`` arms a
deterministic ``os._exit`` immediately after the corresponding journal
append (once per state dir, marker-guarded) — the hook the crash matrix
drives, in the spirit of :mod:`repro.exec.faultinject`.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, ReproError
from repro.exec.process import BrokenProcessPool, make_backend
from repro.exec.resilience import ResilienceConfig, RetryPolicy
from repro.io.atomic import atomic_write_json
from repro.io.corpus_io import load_corpus
from repro.io.storage import FsStorage
from repro.obs.ledger import RunLedger
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.plan.calibration import CalibrationStore
from repro.plan.planner import AdaptivePlanner
from repro.serve import transport
from repro.serve.journal import JobJournal, JobView, read_journal, replay

__all__ = ["ServeConfig", "ServeDaemon", "CRASH_EXIT_CODE", "KILL_STAGES"]

#: Exit code of an armed crash (mirrors ``repro.exec.faultinject``).
CRASH_EXIT_CODE = 86

#: Lifecycle stages at which ``REPRO_SERVE_KILL_AT`` can fire: right
#: after the matching journal append (``completing`` = result file
#: written, ``done`` not yet appended — the nastiest window).
KILL_STAGES = ("queued", "admitted", "running", "completing")

_KILL_ENV = "REPRO_SERVE_KILL_AT"
_KILLPOINTS_DIR = "killpoints"


@dataclass
class ServeConfig:
    """Policy knobs for one daemon. Defaults favor small test rigs."""

    state: str
    backend: str = "threads"
    workers: int = 2
    executors: int = 1
    #: Admission: queue depth budget (queued, not yet running).
    max_depth: int = 8
    #: Admission: total predicted seconds of queued work tolerated; only
    #: enforced when a calibration store can actually price a job.
    cost_budget_s: float | None = None
    #: Per-job deadline, enforced phase-granularly via the resilient
    #: backend's ``phase_timeout_s``; ``None`` waits forever.
    job_timeout_s: float | None = None
    #: Run attempts per job (first try + recoveries) before ``failed``.
    max_attempts: int = 3
    #: Pool losses tolerated before the circuit breaker trips to drain.
    max_pool_losses: int = 3
    drain_deadline_s: float = 10.0
    heartbeat_s: float = 0.5
    #: Heartbeat age beyond which a daemon is presumed dead (orphan
    #: detection and lock takeover both key off this).
    stale_after_s: float = 5.0
    poll_s: float = 0.05
    #: Exit once inbox + queue + executors have been idle this long
    #: (``None`` = run until drained/signalled). Test/CI convenience.
    idle_exit_s: float | None = None
    #: Calibration store path — loaded when present, observed into as
    #: jobs complete, saved on shutdown. Absent, the daemon observes
    #: nothing and writes no store. Default lives in the state dir.
    calibration: str | None = None
    ledger: str | None = None
    #: ``"retry"`` re-runs orphans (attempt budget permitting);
    #: ``"fail"`` marks them failed on recovery.
    orphan_policy: str = "retry"

    def __post_init__(self) -> None:
        if not self.state:
            raise ConfigurationError("serve state directory must be non-empty")
        if self.max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        if self.executors < 1:
            raise ConfigurationError("executors must be >= 1")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.orphan_policy not in ("retry", "fail"):
            raise ConfigurationError(
                f"orphan_policy must be 'retry' or 'fail', "
                f"got {self.orphan_policy!r}"
            )

    @property
    def calibration_path(self) -> str:
        return self.calibration or os.path.join(self.state, "calibration.json")

    @property
    def ledger_path(self) -> str:
        return self.ledger or os.path.join(self.state, "ledger")


@dataclass
class _QueuedJob:
    job_id: str
    spec: dict
    attempt: int = 0
    cost_s: float | None = None


@dataclass
class ServeStats:
    done: int = 0
    failed: int = 0
    shed: int = 0
    recovered: int = 0
    pool_losses: int = 0

    def as_dict(self) -> dict:
        return {
            "done": self.done,
            "failed": self.failed,
            "shed": self.shed,
            "recovered": self.recovered,
            "pool_losses": self.pool_losses,
        }


class ServeDaemon:
    """Run loop + policy around one serve state directory."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.state_dir = config.state
        os.makedirs(os.path.join(self.state_dir, transport.INBOX_DIR),
                    exist_ok=True)
        os.makedirs(os.path.join(self.state_dir, transport.RESULTS_DIR),
                    exist_ok=True)
        os.makedirs(os.path.join(self.state_dir, _KILLPOINTS_DIR),
                    exist_ok=True)
        self.journal = JobJournal(self.state_dir)
        self.ledger = RunLedger(config.ledger_path)
        self.stats = ServeStats()
        self._queue: queue.Queue[_QueuedJob] = queue.Queue()
        self._known: set[str] = set()
        self._state_lock = threading.Lock()
        self._queued_cost = 0.0
        self._queued_depth = 0
        self._inflight = 0
        self._draining = False
        self._drain_reason: str | None = None
        self._stop = threading.Event()
        #: Set on SIGTERM / client drain: executors finish their current
        #: job but pick up nothing new (queued work stays ``admitted`` in
        #: the journal for the next daemon). Breaker drain does *not* set
        #: it — the backlog was already accepted and still runs.
        self._halt_new = threading.Event()
        self._term_signum: int | None = None
        self._prev_handlers: dict[int, object] = {}
        self._beat_seq = 0
        self._last_beat = 0.0
        self._last_activity = time.monotonic()
        self._calib_lock = threading.Lock()
        self._calib: CalibrationStore | None = None
        if os.path.isfile(config.calibration_path):
            try:
                self._calib = CalibrationStore.load(config.calibration_path)
            except ConfigurationError:
                # A corrupt store must not keep the service down; pricing
                # is simply unavailable until jobs rebuild it.
                self._calib = None

    # -- crash hook ---------------------------------------------------------------

    def _maybe_kill(self, stage: str) -> None:
        """Deterministic SIGKILL-equivalent for the crash matrix.

        Fires once per (state dir, stage): the marker file is created
        and fsynced *before* ``os._exit``, so a restarted daemon with
        the same environment sails past the stage it already died at.
        """
        if os.environ.get(_KILL_ENV) != stage:
            return
        marker = os.path.join(self.state_dir, _KILLPOINTS_DIR, stage)
        if os.path.exists(marker):
            return
        fd = os.open(marker, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            os.fsync(fd)
        finally:
            os.close(fd)
        os._exit(CRASH_EXIT_CODE)

    # -- admission ----------------------------------------------------------------

    def _estimate_cost_s(self, spec: dict) -> float | None:
        """Predicted job seconds from live calibration; ``None`` = unpriced."""
        store = self._calib
        if store is None or self.config.cost_budget_s is None:
            return None
        try:
            names = [
                name for name in os.listdir(spec["input"])
                if not name.startswith(".")
            ]
            if not names:
                return None
            plan = AdaptivePlanner(store).plan(
                n_docs=len(names),
                kmeans_iters=int(spec.get("iters", 10)),
            )
            return plan.predicted_total_s
        except (ReproError, OSError, ValueError, TypeError):
            return None

    def _shed(self, job_id: str, reason: str) -> None:
        self.journal.job_event(job_id, "shed", reason=reason)
        self.stats.shed += 1

    def _admit(self, job: _QueuedJob, *, journal: bool = True) -> bool:
        """Admission control: journal ``admitted`` (or ``shed``) + enqueue.

        ``journal=False`` re-enqueues recovered work that is already
        ``admitted``/``requeued`` in the journal — recovery must not
        re-shed a job the previous daemon already accepted.
        """
        if journal:
            if self._draining:
                self._shed(job.job_id, f"draining ({self._drain_reason})")
                return False
            if self._queued_depth >= self.config.max_depth:
                self._shed(
                    job.job_id,
                    f"queue-full (depth {self._queued_depth} >= "
                    f"{self.config.max_depth})",
                )
                return False
            job.cost_s = self._estimate_cost_s(job.spec)
            budget = self.config.cost_budget_s
            if (
                job.cost_s is not None
                and budget is not None
                and self._queued_cost + job.cost_s > budget
            ):
                self._shed(
                    job.job_id,
                    f"over-budget (queued {self._queued_cost:.3f}s + "
                    f"predicted {job.cost_s:.3f}s > {budget:.3f}s)",
                )
                return False
            self.journal.job_event(
                job.job_id, "admitted", cost_s=job.cost_s, attempt=job.attempt
            )
            self._maybe_kill("admitted")
        with self._state_lock:
            self._queued_depth += 1
            self._queued_cost += job.cost_s or 0.0
        self._queue.put(job)
        self._last_activity = time.monotonic()
        return True

    def _scan_inbox(self) -> None:
        inbox = os.path.join(self.state_dir, transport.INBOX_DIR)
        try:
            names = sorted(os.listdir(inbox))
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(inbox, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    spec = json.load(handle)
                if not isinstance(spec, dict) or not spec.get("input"):
                    raise ValueError("spec must be an object with 'input'")
            except (OSError, ValueError) as exc:
                # Unreadable submission: quarantine the file so the scan
                # does not spin on it, and leave a diagnostic breadcrumb.
                try:
                    os.replace(path, path + ".bad")
                except OSError:
                    pass
                job_id = name[: -len(".json")]
                self.journal.job_event(
                    job_id, "submitted", spec={"invalid": True}
                )
                self.journal.job_event(
                    job_id, "shed", reason=f"unreadable submission: {exc}"
                )
                self.stats.shed += 1
                continue
            job_id = str(spec.get("job_id") or name[: -len(".json")])
            if job_id in self._known:
                # Duplicate or crash-survivor: already journaled.
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            self._known.add(job_id)
            self.journal.job_event(job_id, "submitted", spec=spec)
            self._maybe_kill("queued")
            # The submitted append is durable — now the inbox copy is
            # redundant and may go (dedupe handles a crash in between).
            try:
                os.unlink(path)
            except OSError:
                pass
            self._admit(_QueuedJob(job_id=job_id, spec=spec))

    # -- recovery -----------------------------------------------------------------

    def recover(self) -> dict:
        """Replay the journal and re-own every non-terminal job.

        Queued jobs (``submitted``/``admitted``/``requeued``) re-enter
        the in-memory queue without new records — their journal state is
        still accurate. ``running`` jobs are orphans (their daemon died
        mid-run: the stale heartbeat that let this process take the lock
        proves it) and are ``requeued`` or ``failed`` per policy.
        """
        records, problems = read_journal(self.state_dir)
        jobs = replay(records)
        queued = orphaned = failed = 0
        for view in sorted(jobs.values(), key=lambda v: v.submitted_ts):
            self._known.add(view.job_id)
            if view.terminal:
                continue
            if view.state == "running":
                orphaned += 1
                next_attempt = view.attempt  # re-run reuses the attempt slot
                if (
                    self.config.orphan_policy == "fail"
                    or view.attempt >= self.config.max_attempts
                ):
                    self.journal.job_event(
                        view.job_id, "failed", attempt=view.attempt,
                        error=(
                            "orphaned mid-run (stale heartbeat) and "
                            f"{'policy=fail' if self.config.orphan_policy == 'fail' else 'attempt budget spent'}"
                        ),
                    )
                    self.stats.failed += 1
                    failed += 1
                    continue
                self.journal.job_event(
                    view.job_id, "requeued", attempt=next_attempt,
                    reason="orphaned mid-run (stale heartbeat)",
                )
                self._admit(
                    _QueuedJob(view.job_id, view.spec, attempt=next_attempt),
                    journal=False,
                )
            elif view.state == "submitted":
                # Crashed between the submitted append and admission:
                # run admission now (it was never decided).
                queued += 1
                self._admit(_QueuedJob(view.job_id, view.spec))
            else:  # admitted / requeued — still queued, decision stands
                queued += 1
                self._admit(
                    _QueuedJob(view.job_id, view.spec, attempt=view.attempt),
                    journal=False,
                )
        recovered = queued + orphaned
        self.stats.recovered += recovered
        if recovered or failed or problems:
            self.journal.daemon_event(
                "recovered", queued=queued, orphaned=orphaned,
                failed=failed, journal_problems=len(problems),
            )
        return {
            "queued": queued, "orphaned": orphaned,
            "failed": failed, "problems": problems,
        }

    # -- execution ----------------------------------------------------------------

    def _resilience(self, spec: dict) -> ResilienceConfig:
        timeout = spec.get("timeout_s", self.config.job_timeout_s)
        return ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            phase_timeout_s=float(timeout) if timeout else None,
            on_poison="quarantine",
        )

    def _warm_backend(self, cache: dict, spec: dict):
        name = str(spec.get("backend") or self.config.backend)
        workers = int(spec.get("workers") or self.config.workers)
        timeout = spec.get("timeout_s", self.config.job_timeout_s)
        key = (name, workers, timeout)
        backend = cache.get(key)
        if backend is None:
            backend = make_backend(name, workers,
                                   resilience=self._resilience(spec))
            cache[key] = backend
        return key, backend

    def _run_job(self, job: _QueuedJob, backend) -> dict:
        spec = job.spec
        corpus = load_corpus(
            FsStorage(str(spec["input"])), "", name=job.job_id
        )
        if len(corpus) == 0:
            raise ConfigurationError(f"empty corpus at {spec['input']!r}")
        tfidf = TfIdfOperator(min_df=int(spec.get("min_df", 1)))
        kmeans = KMeansOperator(
            n_clusters=int(spec.get("clusters", 8)),
            max_iters=int(spec.get("iters", 10)),
            seed=int(spec.get("seed", 0)),
        )
        from repro.core.pipeline import output_digest, run_pipeline

        result = run_pipeline(
            corpus, backend=backend, tfidf=tfidf, kmeans=kmeans,
            trace=True, ledger=self.ledger,
        )
        digest = output_digest(result)
        record = result.to_record()
        payload = {
            "job_id": job.job_id,
            "attempt": job.attempt + 1,
            "digest": digest,
            "n_docs": len(corpus),
            "total_s": record["total_s"],
            "phases": record["phases"],
            "backend": record["backend"],
            "quarantine": record["quarantine"],
            "downgrades": record["downgrades"],
        }
        # Observing sharpens a store that has constants; an empty one
        # would only count samples it cannot price with.
        with self._calib_lock:
            if self._calib is not None:
                self._calib.observe_run(result, n_docs=len(corpus))
        return payload

    def _executor_loop(self, index: int) -> None:
        warm: dict[tuple, object] = {}
        try:
            while not self._stop.is_set():
                if self._halt_new.is_set():
                    break
                try:
                    job = self._queue.get(timeout=self.config.poll_s)
                except queue.Empty:
                    continue
                with self._state_lock:
                    self._queued_depth -= 1
                    self._queued_cost = max(
                        0.0, self._queued_cost - (job.cost_s or 0.0)
                    )
                    self._inflight += 1
                try:
                    self._execute(job, warm)
                finally:
                    with self._state_lock:
                        self._inflight -= 1
                    self._last_activity = time.monotonic()
        finally:
            for backend in warm.values():
                try:
                    backend.close()
                except Exception:
                    pass

    def _execute(self, job: _QueuedJob, warm: dict) -> None:
        attempt = job.attempt + 1
        job.attempt = attempt
        self.journal.job_event(job.job_id, "running", attempt=attempt)
        self._maybe_kill("running")
        key = None
        try:
            key, backend = self._warm_backend(warm, job.spec)
            payload = self._run_job(job, backend)
        except BrokenProcessPool as exc:
            # The warm pool died under this job. Replace the pool, bill
            # a loss toward the breaker, and retry the job if budget
            # remains — one crashing job must not take the service down.
            if key is not None:
                broken = warm.pop(key, None)
                if broken is not None:
                    try:
                        broken.close()
                    except Exception:
                        pass
            self.stats.pool_losses += 1
            if self.stats.pool_losses >= self.config.max_pool_losses:
                self._trip_breaker(str(exc))
            if attempt < self.config.max_attempts:
                self.journal.job_event(
                    job.job_id, "requeued", attempt=attempt,
                    reason=f"pool loss: {exc}",
                )
                self._admit(job, journal=False)
            else:
                self.journal.job_event(
                    job.job_id, "failed", attempt=attempt,
                    error=f"pool loss: {exc}",
                )
                self.stats.failed += 1
            return
        except Exception as exc:  # per-job isolation: journal and move on
            self.journal.job_event(
                job.job_id, "failed", attempt=attempt,
                error=f"{type(exc).__name__}: {exc}",
            )
            self.stats.failed += 1
            return
        atomic_write_json(
            transport.result_path(self.state_dir, job.job_id), payload
        )
        self._maybe_kill("completing")
        quarantine = payload.get("quarantine") or {}
        self.journal.job_event(
            job.job_id, "done", attempt=attempt,
            digest=payload["digest"], total_s=payload["total_s"],
            quarantined=len(quarantine.get("doc_ids", ())),
        )
        self.stats.done += 1

    def _trip_breaker(self, reason: str) -> None:
        if self._draining:
            return
        self._draining = True
        self._drain_reason = f"circuit breaker: {reason}"
        self.journal.daemon_event(
            "breaker-open", reason=reason,
            pool_losses=self.stats.pool_losses,
        )

    # -- lifecycle ----------------------------------------------------------------

    def _acquire_lock(self) -> None:
        lock_path = os.path.join(self.state_dir, transport.LOCK_FILE)
        if os.path.exists(lock_path) and not transport.heartbeat_stale(
            self.state_dir, self.config.stale_after_s
        ):
            beat = transport.read_heartbeat(self.state_dir) or {}
            raise ConfigurationError(
                f"another daemon (pid {beat.get('pid')}) is live on "
                f"{self.state_dir}; stop it or wait for its heartbeat "
                f"to go stale"
            )
        atomic_write_json(
            lock_path, {"pid": os.getpid(), "started": time.time()}
        )

    def _release_lock(self) -> None:
        try:
            os.unlink(os.path.join(self.state_dir, transport.LOCK_FILE))
        except OSError:
            pass

    def _on_term(self, signum, frame) -> None:
        self._term_signum = signum
        if not self._draining:
            self._draining = True
            self._drain_reason = f"signal {signum}"
        self._halt_new.set()

    def _install_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._prev_handlers[signum] = signal.signal(
                    signum, self._on_term
                )
            except (ValueError, OSError):  # non-main thread / platform
                pass

    def _restore_signal_handlers(self) -> None:
        for signum, prev in self._prev_handlers.items():
            try:
                signal.signal(signum, prev)  # type: ignore[arg-type]
            except (ValueError, OSError, TypeError):
                pass

    def _beat(self, state: str, *, force: bool = False) -> None:
        now = time.monotonic()
        if force or now - self._last_beat >= self.config.heartbeat_s:
            self._beat_seq += 1
            transport.write_heartbeat(self.state_dir, state, self._beat_seq)
            self._last_beat = now

    def _idle(self) -> bool:
        with self._state_lock:
            busy = self._queued_depth > 0 or self._inflight > 0
        if busy:
            return False
        inbox = os.path.join(self.state_dir, transport.INBOX_DIR)
        try:
            if any(n.endswith(".json") for n in os.listdir(inbox)):
                return False
        except OSError:
            pass
        return True

    def run(self) -> int:
        """Main loop; returns an exit code. Blocks until drained/signalled."""
        self._acquire_lock()
        self._install_signal_handlers()
        exit_code = 0
        try:
            self._beat("starting", force=True)
            recovery = self.recover()
            self.journal.daemon_event(
                "start",
                backend=self.config.backend,
                workers=self.config.workers,
                executors=self.config.executors,
                max_depth=self.config.max_depth,
                cost_budget_s=self.config.cost_budget_s,
                recovered=recovery["queued"] + recovery["orphaned"],
            )
            threads = [
                threading.Thread(
                    target=self._executor_loop, args=(i,),
                    name=f"serve-exec-{i}", daemon=True,
                )
                for i in range(self.config.executors)
            ]
            for thread in threads:
                thread.start()

            while True:
                if transport.drain_requested(self.state_dir):
                    if not self._draining:
                        self._draining = True
                        self._drain_reason = "drain requested"
                    self._halt_new.set()
                    break
                if self._term_signum is not None:
                    break
                if not self._draining:
                    self._scan_inbox()
                elif self._idle():
                    break  # breaker-drain finished its backlog
                self._beat("draining" if self._draining else "serving")
                if (
                    self.config.idle_exit_s is not None
                    and self._idle()
                    and time.monotonic() - self._last_activity
                    >= self.config.idle_exit_s
                ):
                    self._drain_reason = self._drain_reason or "idle"
                    break
                time.sleep(self.config.poll_s)

            # Drain: no new admissions; in-flight jobs get the deadline.
            self.journal.daemon_event(
                "drain", reason=self._drain_reason or "stop",
                deadline_s=self.config.drain_deadline_s,
            )
            deadline = time.monotonic() + self.config.drain_deadline_s
            while time.monotonic() < deadline:
                with self._state_lock:
                    if self._inflight == 0:
                        break
                self._beat("draining")
                time.sleep(self.config.poll_s)
            self._stop.set()
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)
            with self._calib_lock:
                if self._calib is not None and self._calib.samples > 0:
                    try:
                        self._calib.save(self.config.calibration_path)
                    except OSError:
                        pass
            with self._state_lock:
                left_inflight = self._inflight
            self.journal.daemon_event(
                "shutdown", reason=self._drain_reason or "stop",
                stats=self.stats.as_dict(), inflight_abandoned=left_inflight,
            )
            transport.clear_drain(self.state_dir)
            self._beat("stopped", force=True)
        finally:
            self._release_lock()
            self._restore_signal_handlers()
        if self._term_signum is not None:
            # Re-deliver with the original disposition restored, so the
            # process reports the honest signal exit (shm plane idiom).
            os.kill(os.getpid(), self._term_signum)
        return exit_code
