"""The seven workloads: constants, and how one operation is issued.

Everything that sizes a workload lives here and is identical on every
commit; ``--seed`` changes the generated corpus and nothing else. The
program is driven through its public functions only (``make_backend``,
``run_pipeline``, ``corpus_stream``, ``repro serve run`` +
``submit_job``/``read_result``) and never sees the seed.

One *operation* is one complete TF/IDF -> K-means request as a user
would issue it: build the backend, ``run_pipeline(...)``, close the
backend — pool spawn is inside the op, as it is for ``repro pipeline``.
For ``serve-closed`` it is ``submit_job`` -> result file readable.
"""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from repro.core.pipeline import run_pipeline
from repro.exec.process import make_backend
from repro.io import FsStorage, corpus_stream
from repro.ops import KMeansOperator, TfIdfOperator
from repro.serve import read_heartbeat, read_result, request_drain, submit_job

from digest import output_digest
from spans import NullRecorder

#: Operator configuration of every op (dict kind ``map``, K=8, seed 0 are
#: the operators' own defaults).
KMEANS_ITERS = 10
#: Untimed ops before the first timed one (imports, allocator, page cache).
WARMUP_OPS = 2
#: The timed loop runs for ``--seconds`` but never fewer ops than this.
MIN_TIMED_OPS = 3
#: Ops of the traced pass (each: one spanned real op + one decomposed op).
TRACED_OPS = 2
#: A serve job whose result is not readable after this long has failed.
OP_TIMEOUT_S = 60.0
SERVE_CLIENTS = 2
SERVE_POLL_S = 0.005
DAEMON_ARGS = (
    "--backend", "threads", "--workers", "2",
    "--executors", "1", "--max-depth", "8",
)
#: Tiled runs get a quarter of the reference matrix as their budget.
OOCORE_BUDGET_DIVISOR = 4
#: ``--selftest`` divides every scale by this.
SELFTEST_SCALE_DIVISOR = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: what is on the blocking path here and nowhere else.
    why: str
    profile: str
    scale: float
    backend: str = "sequential"
    workers: int = 1
    #: ``run_pipeline(plan="auto")`` over the committed calibration.
    planned: bool = False
    #: Input streamed from disk with this many read workers (0 = in memory).
    read_workers: int = 0
    tiled: bool = False
    #: ``"cold"`` (store removed before every op) or ``"warm"`` (pre-filled).
    cache: str | None = None
    served: bool = False

    def constants(self) -> dict:
        return asdict(self)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mix-seq",
            "single-threaded baseline: text, dicts, ops and sparse do all "
            "the work; io, pools, cache, tiles, plan and serve do none",
            "mix", 0.05,
        ),
        Workload(
            "mix-procs",
            "same corpus on processes x2 with a fresh pool per op: pool "
            "spawn, pickling, shm and merge now sit on the blocking path",
            "mix", 0.05, backend="processes", workers=2,
        ),
        Workload(
            "mix-planned",
            "same corpus through plan=auto on a frozen calibration: the "
            "planner and the second pipeline driver are on the path",
            "mix", 0.05, planned=True,
        ),
        Workload(
            "nsf-oocore",
            "many small files streamed from disk, matrix tiled under a "
            "quarter-size budget: parallel read and tile I/O block the op",
            "nsf-abstracts", 0.02, read_workers=2, tiled=True,
        ),
        Workload(
            "cache-cold",
            "cache directory removed before every op: the store's write "
            "path (fingerprint, payloads, shards) on top of full compute",
            "mix", 0.05, cache="cold",
        ),
        Workload(
            "cache-warm",
            "pre-filled cache: zero operator work, all time in "
            "fingerprinting and store reads; bypasses every compute layer",
            "mix", 0.05, cache="warm",
        ),
        Workload(
            "serve-closed",
            "daemon with 2 closed-loop clients, so one job always waits: "
            "inbox scan, admission, journal fsync, ledger, result publish",
            "mix", 0.01, backend="threads", workers=2, served=True,
        ),
    )
}


@dataclass
class Context:
    """What set-up hands to every op of one workload."""

    workload: Workload
    corpus_dir: str
    scratch: str
    #: The stored corpus, loaded back (disk order) — in-memory workloads.
    corpus: object = None
    calibration: object = None
    memory_budget: int | None = None
    daemon: "Daemon | None" = None

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.scratch, "cache")


def operators(planned: bool = False):
    """The op's operators. A planned op leaves the dictionary kind to the
    planner, as ``repro pipeline --plan auto`` does."""
    tfidf = None if planned else TfIdfOperator()
    return tfidf, KMeansOperator(max_iters=KMEANS_ITERS)


def batch_op(ctx: Context, rec, op_id: str | None = None):
    """One timed op of a batch workload -> ``(seconds, result)``.

    The caller owns ``result`` and must release a tiled matrix with
    :func:`release`. Removing a cold cache happens before the clock
    starts: the user's request begins with an empty directory.
    """
    w = ctx.workload
    if w.cache == "cold":
        shutil.rmtree(ctx.cache_dir, ignore_errors=True)
    tfidf, kmeans = operators(w.planned)
    options: dict = {}
    if w.cache:
        options["cache"] = ctx.cache_dir
    if w.tiled:
        options["memory_budget"] = ctx.memory_budget
    # Every op starts from the same collector state, as a fresh request
    # would: without this, which op pays a full collection depends on the
    # garbage the ops before it left (cache-warm ops jitter by +-15 %).
    # The collector stays on during the op.
    gc.collect()
    start = time.perf_counter()
    with rec.span("op", op_id):
        if w.planned:
            with rec.span("core.run_pipeline"):
                result = run_pipeline(
                    ctx.corpus, tfidf=tfidf, kmeans=kmeans, plan="auto",
                    calibration=ctx.calibration, observe=False, **options,
                )
        else:
            with rec.span("exec.make_backend"):
                backend = make_backend(w.backend, w.workers)
            try:
                source = ctx.corpus
                if w.read_workers:
                    source = corpus_stream(
                        FsStorage(ctx.corpus_dir), workers=w.read_workers
                    )
                with rec.span("core.run_pipeline"):
                    result = run_pipeline(
                        source, backend=backend, tfidf=tfidf, kmeans=kmeans,
                        **options,
                    )
            finally:
                with rec.span("exec.close"):
                    backend.close()
    return time.perf_counter() - start, result


def release(result) -> None:
    """Drop a tiled result's spill directory (no-op for resident runs)."""
    close = getattr(result.tfidf.matrix, "close", None)
    if close is not None:
        close()


def check(ctx, result, reference: dict) -> tuple[str, str | None]:
    """Verify one batch op -> ``(digest, error)``; ``error`` is ``None``
    when the output is the reference's and the workload did what its
    name says (the tile budget held, the cache was cold or warm)."""
    digest = output_digest(result)
    error = None
    w = ctx.workload
    if digest != reference["digest"]:
        error = f"digest {digest[:12]} != reference {reference['digest'][:12]}"
    elif w.tiled and (
        result.tiles is None
        or result.tiles["peak_pinned_bytes"] > ctx.memory_budget
    ):
        error = f"tile budget {ctx.memory_budget} not held: {result.tiles}"
    elif w.cache == "warm" and not (
        result.cache["hits"] == 3 and result.cache["misses"] == 0
    ):
        error = f"warm cache op was not served: {result.cache}"
    elif w.cache == "cold" and result.cache["hits"] != 0:
        error = f"cold cache op hit the store: {result.cache}"
    return digest, error


def one_batch_op(ctx, rec, reference: dict, op_id: str | None = None) -> dict:
    """Issue, verify and release one batch op -> its record."""
    try:
        seconds, result = batch_op(ctx, rec, op_id)
    except Exception as exc:  # the op failed; the run goes on and says so
        return {"seconds": None, "ok": False, "error": repr(exc)}
    try:
        digest, error = check(ctx, result, reference)
        record = {
            "seconds": seconds, "ok": error is None, "error": error,
            "digest": digest,
        }
        if result.plan is not None:
            record["plan"] = result.plan.describe()
            record["plan_phases"] = {
                name: {"backend": phase.backend, "workers": phase.workers,
                       "dict_kind": phase.dict_kind}
                for name, phase in result.plan.phases.items()
            }
        if result.tiles is not None:
            record["tile_rows"] = result.tfidf.matrix.manifest.tiles[0].n_rows
        return record
    finally:
        release(result)


def one_serve_op(ctx, job_id: str, reference: dict, rec=NullRecorder()) -> dict:
    """Issue and verify one serve job -> its record. The daemon reports
    the digest of what it computed; it must be the reference's."""
    seconds, payload = ctx.daemon.job(ctx.corpus_dir, job_id, rec)
    if payload is None:
        return {"seconds": seconds, "ok": False,
                "error": f"job {job_id}: no result (shed, failed or timed out)"}
    digest = payload.get("digest")
    ok = digest == reference["digest"]
    return {
        "seconds": seconds, "ok": ok, "digest": digest,
        "service_s": payload.get("total_s"),
        "error": None if ok else f"job {job_id}: digest {digest} != reference",
    }


def closed_loop(ctx, reference: dict, seconds: float, min_ops: int,
                clients: int, prefix: str, op=one_serve_op) -> list[dict]:
    """``clients`` closed-loop clients: each submits its next job only
    after reading its previous result. Runs for ``seconds`` (and at
    least ``min_ops`` jobs); a client finishes its in-flight job."""
    records: list[dict] = []
    lock = threading.Lock()
    issued = [0]
    t0 = time.perf_counter()

    def client(index: int) -> None:
        while True:
            with lock:
                if (issued[0] >= min_ops
                        and time.perf_counter() - t0 >= seconds):
                    return
                number = issued[0]
                issued[0] += 1
            start = time.perf_counter()
            record = op(ctx, f"{prefix}-c{index}-{number}", reference)
            record["start"] = start
            record["end"] = time.perf_counter()
            with lock:
                records.append(record)

    with ThreadPoolExecutor(max_workers=clients) as pool:
        for future in [pool.submit(client, i) for i in range(clients)]:
            future.result()  # a client that raised fails the run
    return records


def peak_rss_kb(pid: int | str = "self") -> int | None:
    """A process's resident-set high-water mark (``VmHWM``), in kB.

    Not ``ru_maxrss``: Linux carries the spawning process's high-water
    mark across ``exec`` into the child's ``ru_maxrss``, so a child
    started by a large parent would report the parent's peak. ``VmHWM``
    belongs to the new address space alone.
    """
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


class Daemon:
    """``python -m repro serve run`` in a subprocess, drained and reaped."""

    def __init__(self, state: str, src_root: str) -> None:
        self.state = state
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log = open(state + ".log", "wb")
        self.peak_rss_kb: int | None = None
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run", "--state", state,
             *DAEMON_ARGS],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            while True:
                beat = read_heartbeat(state)
                if beat is not None and beat.get("state") == "serving":
                    break
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"serve daemon exited {self.proc.returncode} "
                        f"before its first heartbeat"
                    )
                if time.perf_counter() - started > OP_TIMEOUT_S:
                    raise RuntimeError("serve daemon never sent a heartbeat")
                time.sleep(SERVE_POLL_S)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def job(self, corpus_dir: str, job_id: str, rec=NullRecorder()):
        """Submit one job and poll for its result -> ``(seconds, payload)``;
        ``payload`` is ``None`` when the job was shed, failed or timed out."""
        start = time.perf_counter()
        with rec.span("op", job_id):
            with rec.span("serve.submit"):
                submit_job(self.state, {
                    "input": corpus_dir, "iters": KMEANS_ITERS,
                    "job_id": job_id,
                })
            with rec.span("serve.wait"):
                while True:
                    payload = read_result(self.state, job_id)
                    elapsed = time.perf_counter() - start
                    if payload is not None or elapsed > OP_TIMEOUT_S:
                        return elapsed, payload
                    if self.proc.poll() is not None:
                        return elapsed, None
                    time.sleep(SERVE_POLL_S)

    def stop(self) -> int | None:
        """Drain and reap the daemon; returns its peak RSS in kB (read
        just before the drain request, while the process is still there),
        or ``None`` when the daemon had already died."""
        if self.proc.returncode is None:
            self.peak_rss_kb = peak_rss_kb(self.proc.pid)
            request_drain(self.state)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.log.close()
        return self.peak_rss_kb
