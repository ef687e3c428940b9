"""Wall-clock benchmarks: backends × workers, and read-worker sweeps.

Unlike the virtual-time benchmarks under ``benchmarks/`` (which reproduce
the paper's figures deterministically), this harness measures *actual*
seconds on the host. It has two modes:

* :func:`bench_wallclock` — sweeps execution backends and worker counts
  over the synthetic Mix corpus held in memory, running the real fused
  TF/IDF → K-means pipeline (PR 1's compute trajectory).
* :func:`bench_read_sweep` — writes the corpus to an on-disk directory
  and sweeps **read-worker counts** through the bounded-prefetch parallel
  reader (:mod:`repro.io.parallel_read`), measuring how much of the input
  phase hides behind compute — the paper's optimization #2 (§3.2).
* :func:`bench_ipc_sweep` — sweeps the process backend's shared-memory
  plane on/off × worker counts and records each run's full IPC-accounting
  snapshot (bytes pickled per phase, segments, broadcasts). On a 1-CPU
  host wall-clock deltas read as noise; the pickled-byte counters show
  the shm win unambiguously.
* :func:`bench_fault_recovery` — injects deterministic faults (transient
  exceptions, a worker crash, a poisoned task) into process-backend runs
  under a retry policy and measures the recovery bill: re-executed tasks,
  re-pickled bytes, pool restarts, quarantined documents, and the
  wall-clock overhead against a fault-free run with the same policy.
  Recovered runs must stay bit-identical to the fault-free baseline;
  quarantine runs must differ by exactly the quarantined documents.
* :func:`bench_plan` — runs the pipeline under the measured-cost
  adaptive planner (``plan="auto"``) against hard-coded fixed
  configurations; the planned total must land within
  :data:`PLAN_TOLERANCE` of the best fixed total.
* :func:`bench_cache` — cold → warm → incremental triple through the
  phase-level result cache: the warm run must serve all three phases
  from disk bit-identically (zero operator recompute), and the
  incremental run (tail-edited + appended corpus) must recompute only
  the changed word-count shards while matching an uncached run on the
  modified corpus exactly.
* :func:`bench_oocore` — out-of-core tiled data plane: runs the same
  pipeline in fresh child processes (one per configuration, so each
  gets its own ``ru_maxrss`` high-water mark) first untiled, then under
  several memory budgets including budgets *smaller than the matrix*.
  Budgeted runs must stay bit-identical to the untiled reference
  (struct-packed output digest) and must keep the spill plane's
  ``peak_pinned_bytes`` under the budget.

``tools/bench_wallclock.py`` wraps these into a CLI that appends records
to ``BENCH_wallclock.json`` — the repo's performance trajectory: every
future perf PR reruns it and appends a comparable record. All modes
share one envelope (``benchmark``/``mode``/``host``/``config``/``runs``),
enforced by ``tools/validate_bench.py``.

Every run also cross-checks that the operator output (TF/IDF matrix and
K-means assignments) is identical to the baseline configuration's, so the
benchmark doubles as an end-to-end equivalence check on real hardware.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Callable, Sequence

from repro.cache import DEFAULT_SHARD_DOCS, PipelineCache
from repro.core.pipeline import RealRunResult, run_pipeline
from repro.errors import BenchmarkError
from repro.exec.faultinject import FaultPlan, FaultSpec
from repro.exec.process import make_backend
from repro.exec.resilience import ResilienceConfig, RetryPolicy
from repro.exec.shm import shm_available
from repro.io.corpus_io import load_corpus, store_corpus
from repro.io.parallel_read import corpus_stream
from repro.io.storage import FsStorage
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import PHASE_TRANSFORM, TfIdfOperator
from repro.ops.wordcount import PHASE_INPUT_WC
from repro.plan import CalibrationStore
from repro.text.corpus import Document
from repro.text.synth import MIX_PROFILE, NSF_ABSTRACTS_PROFILE, generate_corpus

__all__ = [
    "bench_wallclock",
    "bench_read_sweep",
    "bench_ipc_sweep",
    "bench_fault_recovery",
    "bench_plan",
    "bench_cache",
    "bench_oocore",
    "bench_serve",
    "BENCH_SCHEMA",
    "DEFAULT_OOCORE_FRACTIONS",
    "DEFAULT_WORKER_SWEEP",
    "DEFAULT_READ_WORKER_SWEEP",
    "PLAN_TOLERANCE",
]

_PROFILES = {"mix": MIX_PROFILE, "nsf-abstracts": NSF_ABSTRACTS_PROFILE}

#: Envelope schema version. 1 (implicit, historical records carry no
#: ``schema`` key): the original shape. 2: adds a required top-level
#: ``peak_rss_kb`` — the benchmarking process's ``ru_maxrss`` — so every
#: appended record carries its memory envelope alongside wall time.
BENCH_SCHEMA = 2

#: Memory budgets swept by :func:`bench_oocore`, as fractions of the
#: measured matrix footprint. Must include at least one fraction < 1 —
#: the whole point is a run whose budget cannot hold the matrix.
DEFAULT_OOCORE_FRACTIONS = (2.0, 0.5, 0.25)

#: Worker counts swept for the pooled backends.
DEFAULT_WORKER_SWEEP = (1, 2, 4)

#: Read-worker counts swept over the on-disk corpus (1 = serial input).
DEFAULT_READ_WORKER_SWEEP = (1, 2, 4, 8)


def _matrices_equal(a: RealRunResult, b: RealRunResult) -> bool:
    ma, mb = a.tfidf.matrix, b.tfidf.matrix
    return (
        ma.n_rows == mb.n_rows
        and ma.n_cols == mb.n_cols
        and all(
            ra.indices == rb.indices and ra.values == rb.values
            for ra, rb in zip(ma.iter_rows(), mb.iter_rows())
        )
        and a.kmeans.assignments == b.kmeans.assignments
    )


def _best_of(
    repeats: int, run_once: Callable[[], RealRunResult], label: str
) -> tuple[float, RealRunResult, dict[str, float]]:
    """Repeat a configuration; return the best run *with its own* result.

    The minimum total time is the standard noise filter for wall-clock
    benchmarks — but the recorded phases, output-equivalence result and
    reference must all come from that same best run, never be mixed
    across repeats. Pipeline failures surface as
    :class:`~repro.errors.BenchmarkError` naming the configuration.
    """
    best: tuple[float, RealRunResult, dict[str, float]] | None = None
    for _ in range(max(1, repeats)):
        try:
            start = time.perf_counter()
            result = run_once()
            elapsed = time.perf_counter() - start
        except BenchmarkError:
            raise
        except Exception as exc:
            raise BenchmarkError(f"pipeline failed on {label}: {exc}") from exc
        if best is None or elapsed < best[0]:
            best = (elapsed, result, dict(result.phase_seconds))
    assert best is not None  # repeats >= 1
    return best


def _floor_of(
    repeats: int, run_once: Callable[[], RealRunResult], label: str
) -> tuple[float, RealRunResult, dict[str, float], dict[str, float]]:
    """:func:`_best_of`, plus each phase's minimum across the repeats.

    Min-of-total needs one run where *every* phase is simultaneously
    fast — on a loaded 1-CPU host that almost never happens, so two
    identical configurations can read 30% apart at small scales. The
    per-phase floor converges much faster and is what the planned-vs-
    fixed tolerance gate compares; the best single run still supplies
    the recorded result (phases, output, IPC) so no fields mix repeats.
    """
    best: tuple[float, RealRunResult, dict[str, float]] | None = None
    floors: dict[str, float] = {}
    for _ in range(max(1, repeats)):
        total, result, phases = _best_of(1, run_once, label)
        if best is None or total < best[0]:
            best = (total, result, phases)
        for phase, value in phases.items():
            floors[phase] = min(value, floors.get(phase, value))
    return best[0], best[1], best[2], floors


def _host() -> dict:
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }


def _envelope(
    mode: str,
    profile: str,
    scale: float,
    n_docs: int,
    repeats: int,
    kmeans_iters: int,
    config: dict,
    runs: list[dict],
    **extras,
) -> dict:
    """The uniform record envelope every bench mode appends.

    All modes share ``benchmark="wallclock"`` and are distinguished by
    ``mode``; backend-side knobs live under ``config``; the sweep's
    measurements under ``runs``. ``tools/validate_bench.py`` enforces
    this shape on ``BENCH_wallclock.json``.
    """
    record = {
        "benchmark": "wallclock",
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "profile": profile,
        "scale": scale,
        "n_docs": n_docs,
        "repeats": repeats,
        "kmeans_iters": kmeans_iters,
        "host": _host(),
        # ru_maxrss is kB on Linux; it is the *harness process's* peak —
        # per-configuration peaks (child processes) live in each run.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "config": config,
        "runs": runs,
    }
    record.update(extras)
    return record


def _run_fields(result: RealRunResult) -> dict:
    """Shared measurement fields for one benchmark run entry.

    Built on :meth:`~repro.core.pipeline.RealRunResult.to_record` — the
    same serializer behind the CLI summary and the run ledger — so a
    phase timing, IPC counter or utilization figure means the same thing
    in every artifact. Bench entries keep the flattened
    ``utilization`` / ``straggler_ratio`` maps that the trajectory
    plots read.
    """
    record = result.to_record()
    fields: dict = {"phases": record["phases"], "ipc": record["ipc"]}
    summary = record["trace"]
    if summary is not None:
        fields["trace"] = summary
        fields["utilization"] = {
            phase: stats["utilization"] for phase, stats in summary.items()
        }
        fields["straggler_ratio"] = {
            phase: stats["straggler_ratio"] for phase, stats in summary.items()
        }
    return fields


def bench_wallclock(
    profile: str = "mix",
    scale: float = 0.01,
    backends: Sequence[str] = ("sequential", "threads", "processes"),
    workers: Sequence[int] = DEFAULT_WORKER_SWEEP,
    repeats: int = 1,
    seed: int = 0,
    kmeans_iters: int = 5,
    trace: bool = False,
    ledger: str | None = None,
) -> dict:
    """Sweep backends × workers; return the benchmark record.

    ``repeats`` re-runs each configuration and keeps the *minimum*-time
    run (phases, output and all from that one run). The sequential
    backend anchors the sweep: it runs once (worker count is meaningless
    for it) and every other configuration reports a speedup against it.
    ``trace=True`` runs every configuration with span tracing and embeds
    the per-phase utilization/straggler summary in each record (the
    timings then include the small tracing overhead — keep it off when
    the point is the cleanest possible wall clock).
    ``ledger`` appends every repeat of every configuration to a run
    ledger directory (``docs/ledger.md``), seeding ``repro analytics``
    with a dense duration history in one sweep.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    corpus = generate_corpus(_PROFILES[profile], scale=scale, seed=seed)

    runs: list[dict] = []
    reference: RealRunResult | None = None
    reference_total: float | None = None
    for backend_name in backends:
        sweep = (1,) if backend_name == "sequential" else tuple(workers)
        for n_workers in sweep:
            label = f"backend {backend_name!r} with {n_workers} worker(s)"

            def run_once() -> RealRunResult:
                backend = make_backend(backend_name, n_workers)
                try:
                    return run_pipeline(
                        corpus,
                        backend=backend,
                        tfidf=TfIdfOperator(),
                        kmeans=KMeansOperator(max_iters=kmeans_iters),
                        trace=trace,
                        ledger=ledger,
                    )
                finally:
                    backend.close()

            total, result, phases = _best_of(repeats, run_once, label)
            if reference is None:
                reference, reference_total = result, total
            runs.append(
                {
                    "backend": backend_name,
                    "workers": n_workers,
                    "total_s": total,
                    "speedup_vs_sequential": (
                        reference_total / total if reference_total else 1.0
                    ),
                    "output_identical": (
                        result is reference or _matrices_equal(result, reference)
                    ),
                    **_run_fields(result),
                }
            )

    return _envelope(
        "backends", profile, scale, len(corpus), repeats, kmeans_iters,
        config={
            "backends": list(backends),
            "workers": list(workers),
            "trace": trace,
            "shm_available": shm_available(),
        },
        runs=runs,
    )


def bench_read_sweep(
    profile: str = "mix",
    scale: float = 0.01,
    read_workers: Sequence[int] = DEFAULT_READ_WORKER_SWEEP,
    prefetch: int | None = None,
    backend: str = "processes",
    workers: int | None = None,
    repeats: int = 1,
    seed: int = 0,
    kmeans_iters: int = 5,
    corpus_dir: str | None = None,
) -> dict:
    """Sweep read-worker counts over an on-disk corpus (paper §3.2).

    The synthetic corpus is written to ``corpus_dir`` (a temporary
    directory when ``None``, removed afterwards); each configuration then
    runs the fused pipeline with documents streamed through the parallel
    reader. ``read_workers=1`` is the serial-input baseline the other
    counts report a speedup against; ``backend``/``workers`` fix the
    compute side (default: one process per core) so only the input stage
    varies. Output must stay bit-identical across read-worker counts.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if workers is None:
        workers = max(1, os.cpu_count() or 1)
    corpus = generate_corpus(_PROFILES[profile], scale=scale, seed=seed)

    n_docs = len(corpus)
    own_dir = corpus_dir is None
    root = corpus_dir or tempfile.mkdtemp(prefix="repro-read-bench-")
    try:
        storage = FsStorage(root)
        store_corpus(storage, corpus)
        del corpus  # the pipeline must read from disk, not memory

        runs: list[dict] = []
        reference: RealRunResult | None = None
        reference_total: float | None = None
        for n_read in read_workers:
            label = (
                f"read_workers={n_read} (backend {backend!r}, "
                f"{workers} worker(s))"
            )

            def run_once() -> RealRunResult:
                compute = make_backend(backend, workers)
                try:
                    return run_pipeline(
                        corpus_stream(
                            storage, workers=n_read, prefetch=prefetch
                        ),
                        backend=compute,
                        tfidf=TfIdfOperator(),
                        kmeans=KMeansOperator(max_iters=kmeans_iters),
                    )
                finally:
                    compute.close()

            total, result, phases = _best_of(repeats, run_once, label)
            if reference is None:
                reference, reference_total = result, total
            runs.append(
                {
                    "read_workers": n_read,
                    "total_s": total,
                    "read_s": phases.get("read", 0.0),
                    "speedup_vs_serial_input": (
                        reference_total / total if reference_total else 1.0
                    ),
                    "output_identical": (
                        result is reference or _matrices_equal(result, reference)
                    ),
                    **_run_fields(result),
                }
            )
    finally:
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)

    return _envelope(
        "read", profile, scale, n_docs, repeats, kmeans_iters,
        config={
            "backend": backend,
            "workers": workers,
            "prefetch": prefetch,
            "read_workers": list(read_workers),
            "shm_available": shm_available(),
        },
        runs=runs,
    )


def bench_ipc_sweep(
    profile: str = "mix",
    scale: float = 0.01,
    workers: Sequence[int] = DEFAULT_WORKER_SWEEP,
    shm_modes: Sequence[bool] = (False, True),
    repeats: int = 1,
    seed: int = 0,
    kmeans_iters: int = 5,
) -> dict:
    """Sweep the shared-memory plane on/off × worker counts.

    Each run records wall-clock phases *and* the IPC-accounting snapshot
    (:attr:`~repro.core.pipeline.RealRunResult.ipc`) — per-phase tasks,
    bytes pickled each way, segments and broadcasts — plus the derived
    ``kmeans_task_bytes_per_iter``, the number the tentpole targets:
    with shm it is a few hundred token bytes regardless of block count,
    without it one dense K×V centroid copy per block per iteration.
    Runs are span-traced, so each record also carries the per-phase
    ``utilization`` / ``straggler_ratio`` summary — the IPC byte counters
    say what crossed the process boundary, the trace says whether the
    workers were actually busy. Output must stay bit-identical shm
    on/off (and traced runs use the same code path as untraced ones).
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if not shm_available():
        shm_modes = tuple(mode for mode in shm_modes if not mode)
    corpus = generate_corpus(_PROFILES[profile], scale=scale, seed=seed)

    runs: list[dict] = []
    reference: RealRunResult | None = None
    for use_shm in shm_modes:
        for n_workers in workers:
            label = f"shm={use_shm} with {n_workers} process worker(s)"

            def run_once() -> RealRunResult:
                backend = make_backend("processes", n_workers, shm=use_shm)
                try:
                    return run_pipeline(
                        corpus,
                        backend=backend,
                        tfidf=TfIdfOperator(),
                        kmeans=KMeansOperator(max_iters=kmeans_iters),
                        trace=True,
                    )
                finally:
                    backend.close()

            total, result, phases = _best_of(repeats, run_once, label)
            if reference is None:
                reference = result
            kmeans_ipc = (result.ipc or {}).get("phases", {}).get("kmeans", {})
            runs.append(
                {
                    "shm": use_shm,
                    "workers": n_workers,
                    "total_s": total,
                    "kmeans_task_bytes_per_iter": (
                        kmeans_ipc.get("task_pickle_bytes", 0)
                        / max(1, result.kmeans.n_iters)
                    ),
                    "output_identical": (
                        result is reference or _matrices_equal(result, reference)
                    ),
                    **_run_fields(result),
                }
            )

    return _envelope(
        "ipc", profile, scale, len(corpus), repeats, kmeans_iters,
        config={
            "workers": list(workers),
            "shm_modes": list(shm_modes),
            "shm_available": shm_available(),
        },
        runs=runs,
    )


#: Counters that make up one run's recovery bill (from ``PhaseIpc``).
_RECOVERY_KEYS = (
    "retries", "retry_pickle_bytes", "timeouts", "pool_restarts", "quarantined",
)


def _rows_equal_minus(
    result: RealRunResult, reference: RealRunResult, dropped: set[int]
) -> bool:
    """True when ``result``'s matrix is ``reference``'s minus ``dropped`` rows."""
    ref_rows = [
        row
        for index, row in enumerate(reference.tfidf.matrix.iter_rows())
        if index not in dropped
    ]
    rows = list(result.tfidf.matrix.iter_rows())
    return len(rows) == len(ref_rows) and all(
        a.indices == b.indices and a.values == b.values
        for a, b in zip(rows, ref_rows)
    )


def bench_fault_recovery(
    profile: str = "mix",
    scale: float = 0.01,
    workers: int = 2,
    repeats: int = 1,
    seed: int = 0,
    kmeans_iters: int = 5,
    shm: bool | None = None,
    max_attempts: int = 3,
) -> dict:
    """Measure the cost of surviving injected faults on the process backend.

    Four scenarios run the fused pipeline under the same
    :class:`~repro.exec.resilience.RetryPolicy`:

    * ``baseline`` — no faults; the reference output and wall clock (also
      shows the hardened code path's overhead is paid only when armed).
    * ``transient-errors`` — one planned exception in phase 1 and one in
      the transform; both must be absorbed by retries.
    * ``worker-crash`` — a worker hard-exits mid-phase; the pool is
      respawned and the in-flight chunks replayed.
    * ``poison-quarantine`` — a transform task fails on *every* attempt;
      under ``on_poison="quarantine"`` its documents are isolated and the
      run completes without them.

    Recovered runs must be bit-identical to ``baseline``; the quarantine
    run must differ by exactly its quarantined rows. Each record carries
    the recovery counters (re-executions, re-pickled bytes, pool
    restarts, quarantined units) and the wall-clock overhead ratio.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    corpus = generate_corpus(_PROFILES[profile], scale=scale, seed=seed)

    retry = RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.0)
    cfg = ResilienceConfig(retry=retry)
    cfg_quarantine = ResilienceConfig(retry=retry, on_poison="quarantine")
    scenarios: list[tuple[str, Callable[[str], FaultPlan] | None, ResilienceConfig]] = [
        ("baseline", None, cfg),
        (
            "transient-errors",
            lambda state: FaultPlan(
                [
                    FaultSpec(PHASE_INPUT_WC, 1, "raise"),
                    FaultSpec(PHASE_TRANSFORM, 0, "raise"),
                ],
                state,
            ),
            cfg,
        ),
        (
            "worker-crash",
            lambda state: FaultPlan([FaultSpec(PHASE_INPUT_WC, 1, "exit")], state),
            cfg,
        ),
        (
            "poison-quarantine",
            lambda state: FaultPlan(
                [FaultSpec(PHASE_TRANSFORM, 0, "raise", times=1_000_000)], state
            ),
            cfg_quarantine,
        ),
    ]

    runs: list[dict] = []
    reference: RealRunResult | None = None
    reference_total: float | None = None
    for name, make_plan, config in scenarios:
        label = f"fault scenario {name!r} ({workers} process worker(s))"

        def run_once() -> RealRunResult:
            state = tempfile.mkdtemp(prefix="repro-faults-")
            plan = make_plan(state) if make_plan is not None else None
            backend = make_backend("processes", workers, shm=shm, resilience=config)
            if plan is not None:
                backend.fault_plan = plan
            try:
                result = run_pipeline(
                    corpus,
                    backend=backend,
                    tfidf=TfIdfOperator(),
                    kmeans=KMeansOperator(max_iters=kmeans_iters),
                    trace=True,
                )
                result.faults_fired = (  # type: ignore[attr-defined]
                    plan.total_fired() if plan is not None else 0
                )
                return result
            finally:
                backend.close()
                shutil.rmtree(state, ignore_errors=True)

        total, result, phases = _best_of(repeats, run_once, label)
        if reference is None:
            reference, reference_total = result, total
        quarantining = config.quarantining
        dropped = set(result.quarantine.doc_ids) if result.quarantine else set()
        identical = result is reference or _matrices_equal(result, reference)
        if quarantining and dropped:
            ok = _rows_equal_minus(result, reference, dropped)
        else:
            ok = identical
        ipc_total = (result.ipc or {}).get("total", {})
        runs.append(
            {
                "scenario": name,
                "workers": workers,
                "total_s": total,
                "overhead_vs_baseline": (
                    total / reference_total if reference_total else 1.0
                ),
                "faults_fired": getattr(result, "faults_fired", 0),
                "recovery": {key: ipc_total.get(key, 0) for key in _RECOVERY_KEYS},
                "retried_spans": (
                    sum(1 for span in result.trace.spans if span.attempt > 1)
                    if result.trace is not None
                    else 0
                ),
                "on_poison": config.on_poison,
                "quarantined_docs": sorted(dropped),
                "output_identical": identical,
                "ok": ok,
                **_run_fields(result),
            }
        )

    return _envelope(
        "faults", profile, scale, len(corpus), repeats, kmeans_iters,
        config={
            "workers": workers,
            "max_attempts": max_attempts,
            "shm": shm,
            "shm_available": shm_available(),
        },
        runs=runs,
    )


#: Planned total may exceed the best fixed configuration's by this much
#: before ``--mode plan`` fails (wall-clock noise allowance).
PLAN_TOLERANCE = 0.10


def bench_plan(
    profile: str = "mix",
    scale: float = 0.01,
    repeats: int = 1,
    seed: int = 0,
    kmeans_iters: int = 5,
    calibration: CalibrationStore | str | None = None,
    process_workers: int | None = None,
    tolerance: float = PLAN_TOLERANCE,
) -> dict:
    """Planned execution vs fixed configurations.

    Two comparisons in one record:

    * **planned vs fixed** — the fused pipeline runs on two hard-coded
      configurations (sequential, and the process backend at
      ``process_workers``) and once under ``plan="auto"``; the planned
      run must land within ``tolerance`` of the best fixed
      configuration. The gate compares each configuration's *phase
      floor* — the sum over phases of the minimum time across repeats —
      because phase times are measured identically on both paths (the
      outer wall clock also bills planning time and pool teardown) and
      per-phase minima converge on a noisy host where min-of-total does
      not. Planning time is recorded separately and amortizes across
      runs with a persisted calibration store; all totals land in the
      record.
    * **equivalence** — every run's output must be bit-identical to the
      sequential reference (minus nothing; no quarantine here).

    Each run entry carries ``ok``; the CLI exits nonzero if any is false.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if process_workers is None:
        process_workers = max(1, os.cpu_count() or 1)
    # The tolerance check is a ratio of two small time measurements; a
    # single sample of each is far too noisy to gate CI on.
    repeats = max(3, repeats)
    corpus = generate_corpus(_PROFILES[profile], scale=scale, seed=seed)
    store = CalibrationStore.ensure(calibration, corpus)

    # Pinned operators across every run: the comparison is about
    # execution configuration, not dictionary choice.
    def operators() -> tuple[TfIdfOperator, KMeansOperator]:
        return TfIdfOperator(), KMeansOperator(max_iters=kmeans_iters)

    runs: list[dict] = []
    reference: RealRunResult | None = None

    def fixed_run(backend_name: str, workers: int, use_shm: bool | None):
        def run_once() -> RealRunResult:
            backend = make_backend(backend_name, workers, shm=use_shm)
            tfidf, kmeans = operators()
            try:
                return run_pipeline(
                    corpus, backend=backend, tfidf=tfidf, kmeans=kmeans
                )
            finally:
                backend.close()

        return run_once

    # Untimed warm-up: the first pipeline run pays one-off costs (imports,
    # allocator growth, branch warm-up) that would bias whichever
    # configuration happens to go first in a planned-vs-fixed comparison.
    fixed_run("sequential", 1, None)()

    fixed_totals: dict[str, float] = {}
    fixed_phase_totals: dict[str, float] = {}
    for label, backend_name, workers in (
        ("sequential", "sequential", 1),
        (f"processes-{process_workers}", "processes", process_workers),
    ):
        total, result, phases, floors = _floor_of(
            repeats, fixed_run(backend_name, workers, None), label
        )
        if reference is None:
            reference = result
        identical = result is reference or _matrices_equal(result, reference)
        fixed_totals[label] = total
        fixed_phase_totals[label] = sum(floors.values())
        runs.append(
            {
                "config": label,
                "planned": False,
                "total_s": total,
                "output_identical": identical,
                "ok": identical,
                **_run_fields(result),
            }
        )

    def planned_once() -> RealRunResult:
        tfidf, kmeans = operators()
        return run_pipeline(
            corpus, plan="auto", calibration=store, tfidf=tfidf, kmeans=kmeans
        )

    planned_total, planned, planned_phases, planned_floors = _floor_of(
        repeats, planned_once, "planned (auto)"
    )
    planned_phase_total = sum(planned_floors.values())
    best_fixed = min(fixed_phase_totals, key=fixed_phase_totals.get)
    within = (
        planned_phase_total <= (1.0 + tolerance) * fixed_phase_totals[best_fixed]
    )
    identical = _matrices_equal(planned, reference)
    runs.append(
        {
            "config": "planned",
            "planned": True,
            "plan": planned.plan.summary_dict(),
            "plan_seconds": planned.plan_seconds,
            "total_s": planned_total,
            "output_identical": identical,
            "ok": identical and within,
            **_run_fields(planned),
        }
    )
    planned_vs_fixed = {
        "planned_total_s": planned_total,
        "planned_phase_floor_s": planned_phase_total,
        "best_fixed_config": best_fixed,
        "best_fixed_total_s": fixed_totals[best_fixed],
        "best_fixed_phase_floor_s": fixed_phase_totals[best_fixed],
        "ratio": planned_phase_total / max(fixed_phase_totals[best_fixed], 1e-9),
        "tolerance": tolerance,
        "within_tolerance": within,
    }

    return _envelope(
        "plan", profile, scale, len(corpus), repeats, kmeans_iters,
        config={
            "process_workers": process_workers,
            "tolerance": tolerance,
            "calibration": store.describe(),
            "shm_available": shm_available(),
        },
        runs=runs,
        planned_vs_fixed=planned_vs_fixed,
        # An explicit null, so that frozen records (which carry a
        # fused-vs-unfused section here) and new ones share one schema;
        # tools/validate_bench.py accepts it.
        fusion=None,
    )


def _results_identical(a: RealRunResult, b: RealRunResult) -> bool:
    """Bit-identity including the raw centroid bytes (stricter than
    :func:`_matrices_equal`, which caching must not be allowed to relax)."""
    return (
        _matrices_equal(a, b)
        and a.kmeans.centroids.tobytes() == b.kmeans.centroids.tobytes()
        and a.tfidf.vocabulary == b.tfidf.vocabulary
    )


def bench_cache(
    profile: str = "mix",
    scale: float = 0.01,
    repeats: int = 1,
    seed: int = 0,
    kmeans_iters: int = 5,
    cache_dir: str | None = None,
) -> dict:
    """Cold → warm → incremental triple through the phase-level cache.

    Four scenarios per repeat, all sequential (the cache is proven
    backend-invariant by the equivalence tests; the benchmark measures
    serving, not parallelism):

    * ``uncached`` — no cache; the reference output and wall clock.
    * ``cold`` — empty cache directory: every phase must miss, compute,
      and store (the recorded overhead of populating the cache).
    * ``warm`` — same corpus, same cache: all three phases must be
      served from disk (3 hits, 0 misses — zero operator recompute)
      bit-identically, with bytes/seconds-saved from the accounting.
    * ``incremental`` — the corpus is tail-edited (last document's text
      amended) and extended with appended documents, then run against
      the warm cache: the output must match an uncached run on the
      modified corpus exactly, and — when the corpus spans more than one
      content shard — at least one unchanged word-count shard must be
      reused rather than recomputed.

    ``repeats`` re-runs the whole triple against a fresh cache directory
    and keeps the triple with the fastest warm run (the headline
    number); a triple's scenarios are never mixed across repeats.
    Each entry carries ``ok``; the CLI exits nonzero if any is false.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    corpus = generate_corpus(_PROFILES[profile], scale=scale, seed=seed)
    base = list(corpus)
    if not base:
        raise BenchmarkError(f"empty corpus at scale {scale}")

    tail = base[-1]
    modified = base[:-1] + [
        Document(
            doc_id=tail.doc_id, name=tail.name,
            text=tail.text + " amended benchmark tail",
        )
    ]
    for i, doc in enumerate(base[: min(8, len(base))]):
        modified.append(
            Document(
                doc_id=len(modified), name=f"added-{i:06d}", text=doc.text
            )
        )

    def run(docs, cache: PipelineCache | None) -> RealRunResult:
        return run_pipeline(
            docs,
            tfidf=TfIdfOperator(),
            kmeans=KMeansOperator(max_iters=kmeans_iters),
            cache=cache,
        )

    def timed(docs, cache, label):
        try:
            start = time.perf_counter()
            result = run(docs, cache)
            return time.perf_counter() - start, result
        except BenchmarkError:
            raise
        except Exception as exc:
            raise BenchmarkError(f"pipeline failed on {label}: {exc}") from exc

    # Deterministic outputs: the uncached references run once, outside
    # the repeat loop.
    uncached_s, reference = timed(base, None, "uncached")
    incr_ref_s, incr_reference = timed(modified, None, "uncached (modified)")

    best: dict | None = None
    for _ in range(max(1, repeats)):
        own_dir = cache_dir is None
        root = cache_dir or tempfile.mkdtemp(prefix="repro-cache-bench-")
        try:
            if not own_dir:
                # A triple must start cold even on a caller-kept directory.
                shutil.rmtree(root, ignore_errors=True)
            cache = PipelineCache(root)
            cold_s, cold = timed(base, cache, "cold cache run")
            warm_s, warm = timed(base, cache, "warm cache run")
            incr_s, incr = timed(modified, cache, "incremental cache run")
        finally:
            if own_dir:
                shutil.rmtree(root, ignore_errors=True)
        if best is None or warm_s < best["warm_s"]:
            best = {
                "cold_s": cold_s, "cold": cold,
                "warm_s": warm_s, "warm": warm,
                "incr_s": incr_s, "incr": incr,
            }
    assert best is not None

    cold, warm, incr = best["cold"], best["warm"], best["incr"]
    cold_c, warm_c, incr_c = cold.cache, warm.cache, incr.cache
    cold_ok = (
        _results_identical(cold, reference)
        and cold_c["misses"] == 3
        and cold_c["hits"] == 0
        and cold_c["stored"] > 0
    )
    warm_ok = (
        _results_identical(warm, reference)
        and warm_c["hits"] == 3
        and warm_c["misses"] == 0
    )
    multi_shard = len(base) > DEFAULT_SHARD_DOCS
    incr_identical = _results_identical(incr, incr_reference)
    incr_ok = incr_identical and (
        incr_c["phases"][PHASE_INPUT_WC]["shard_hits"] > 0
        if multi_shard
        else True
    )
    runs = [
        {
            "scenario": "uncached",
            "total_s": uncached_s,
            "phases": dict(reference.phase_seconds),
            "output_identical": True,
            "ok": True,
        },
        {
            "scenario": "cold",
            "total_s": best["cold_s"],
            "phases": dict(cold.phase_seconds),
            "cache": cold_c,
            "output_identical": _results_identical(cold, reference),
            "ok": cold_ok,
        },
        {
            "scenario": "warm",
            "total_s": best["warm_s"],
            "phases": dict(warm.phase_seconds),
            "cache": warm_c,
            "output_identical": _results_identical(warm, reference),
            "ok": warm_ok,
        },
        {
            "scenario": "incremental",
            "total_s": best["incr_s"],
            "phases": dict(incr.phase_seconds),
            "cache": incr_c,
            "uncached_total_s": incr_ref_s,
            "wc_shard_hits": incr_c["phases"][PHASE_INPUT_WC]["shard_hits"],
            "output_identical": incr_identical,
            "ok": incr_ok,
        },
    ]
    return _envelope(
        "cache", profile, scale, len(base), repeats, kmeans_iters,
        config={
            "shard_docs": DEFAULT_SHARD_DOCS,
            "modified_docs": len(modified),
            "multi_shard": multi_shard,
        },
        runs=runs,
        cache_summary={
            "warm_speedup_vs_uncached": uncached_s / max(best["warm_s"], 1e-9),
            "warm_bytes_served": warm_c["bytes_saved"],
            "warm_seconds_saved": warm_c["seconds_saved"],
            "cold_store_overhead_s": best["cold_s"] - uncached_s,
        },
    )

# -- out-of-core tiled execution ---------------------------------------------------


def _oocore_child(config: dict, label: str) -> dict:
    """Run one pipeline configuration in a fresh child process.

    A child per configuration is not optional: ``ru_maxrss`` is a
    process-lifetime high-water mark, so an in-process untiled reference
    would inflate every later budgeted reading. The child regenerates the
    corpus deterministically from (profile, scale, seed) and reports its
    output digest plus memory envelope as one JSON line.
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.oocore_child", json.dumps(config)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip()[-500:]
        raise BenchmarkError(f"oocore child failed on {label}: {tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchmarkError(f"oocore child produced no JSON on {label}") from exc


def _oocore_best(repeats: int, config: dict, label: str) -> dict:
    best: dict | None = None
    for _ in range(max(1, repeats)):
        out = _oocore_child(config, label)
        if best is None or out["total_s"] < best["total_s"]:
            best = out
    assert best is not None
    return best


def bench_oocore(
    profile: str = "mix",
    scale: float = 0.05,
    repeats: int = 1,
    seed: int = 0,
    kmeans_iters: int = 3,
    budget_fractions: Sequence[float] = DEFAULT_OOCORE_FRACTIONS,
) -> dict:
    """Bounded-memory execution against an untiled reference.

    One child process runs the pipeline untiled and supplies the
    reference digest and the measured matrix footprint; one child per
    budget fraction then reruns it with ``memory_budget = fraction *
    matrix_bytes``. Two hard gates, both raising
    :class:`~repro.errors.BenchmarkError` rather than recording a bad
    run:

    * every budgeted run's output digest equals the reference — tiling
      is a data-plane change, never a result change;
    * every budgeted run kept ``tiles.peak_pinned_bytes <= budget`` —
      the spill plane's deterministic bounded-memory witness.

    ``budget_fractions`` must include at least one value < 1 so the
    record always contains a run whose budget cannot hold the matrix.
    """
    if profile not in _PROFILES:
        raise BenchmarkError(f"unknown profile {profile!r}")
    fractions = [float(f) for f in budget_fractions]
    if not fractions:
        raise BenchmarkError("budget_fractions must not be empty")
    if min(fractions) >= 1.0:
        raise BenchmarkError(
            "budget_fractions must include a fraction < 1 (a budget that "
            f"cannot hold the matrix); got {fractions}"
        )
    base = {
        "profile": profile,
        "scale": scale,
        "seed": seed,
        "kmeans_iters": kmeans_iters,
        "backend": "sequential",
        "workers": 1,
    }

    ref = _oocore_best(repeats, base, "oocore untiled reference")
    matrix_bytes = int(ref["matrix_bytes"])
    runs = [
        {
            "label": "untiled",
            "memory_budget": None,
            "budget_fraction": None,
            "total_s": ref["total_s"],
            "phases": ref["phases"],
            "peak_rss_kb": ref["peak_rss_kb"],
            "vm_peak_kb": ref["vm_peak_kb"],
            "digest": ref["digest"],
            "tiles": None,
            "output_identical": True,
            "pinned_under_budget": True,
            "ok": True,
        }
    ]
    for fraction in fractions:
        budget = max(1, int(matrix_bytes * fraction))
        label = f"oocore budget={budget} ({fraction:g}x matrix)"
        out = _oocore_best(repeats, {**base, "memory_budget": budget}, label)
        tiles = out.get("tiles")
        identical = out["digest"] == ref["digest"]
        if not identical:
            raise BenchmarkError(f"output diverged from untiled reference on {label}")
        if tiles is None:
            raise BenchmarkError(f"budgeted run reported no tile stats on {label}")
        pinned_ok = int(tiles["peak_pinned_bytes"]) <= budget
        if not pinned_ok:
            raise BenchmarkError(
                f"peak_pinned_bytes {tiles['peak_pinned_bytes']} exceeded "
                f"budget {budget} on {label}"
            )
        runs.append(
            {
                "label": f"budget-{fraction:g}x",
                "memory_budget": budget,
                "budget_fraction": fraction,
                "total_s": out["total_s"],
                "phases": out["phases"],
                "peak_rss_kb": out["peak_rss_kb"],
                "vm_peak_kb": out["vm_peak_kb"],
                "digest": out["digest"],
                "tiles": tiles,
                "output_identical": identical,
                "pinned_under_budget": pinned_ok,
                "ok": identical and pinned_ok,
            }
        )
    return _envelope(
        "oocore", profile, scale, int(ref["n_docs"]), repeats, kmeans_iters,
        config={
            "backend": "sequential",
            "workers": 1,
            "seed": seed,
            "budget_fractions": fractions,
        },
        runs=runs,
        oocore_summary={
            "matrix_bytes": matrix_bytes,
            "reference_digest": ref["digest"],
            "reference_peak_rss_kb": ref["peak_rss_kb"],
            "min_budget_fraction": min(fractions),
            "all_identical": all(r["output_identical"] for r in runs),
            "all_under_budget": all(r["pinned_under_budget"] for r in runs),
        },
    )


# -- serve: pipeline-as-a-service under load -------------------------------------


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted, non-empty list."""
    index = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[index]


def _serve_daemon(
    state: str, args: list[str], *, kill_at: str | None = None,
    timeout_s: float = 300.0,
) -> int:
    """Run one daemon incarnation to completion; returns its exit code.

    The daemon runs with ``--idle-exit`` so it drains the pre-submitted
    load and exits on its own; ``kill_at`` arms the deterministic crash
    hook (``REPRO_SERVE_KILL_AT``) for the fault-injected scenario.
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    if kill_at is not None:
        env["REPRO_SERVE_KILL_AT"] = kill_at
    else:
        env.pop("REPRO_SERVE_KILL_AT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "run", "--state", state]
        + args,
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout_s,
    )
    if proc.returncode not in (0, 86):
        tail = proc.stderr.strip()[-500:]
        raise BenchmarkError(
            f"serve daemon exited {proc.returncode}: {tail}"
        )
    return proc.returncode


def _serve_scenario_stats(state: str, job_ids: list[str]) -> dict:
    """Fold the journal into the scenario's load-test measurements."""
    from repro.serve.journal import read_journal, replay

    records, problems = read_journal(state)
    views = replay(records)
    submitted: dict[str, float] = {}
    done: dict[str, float] = {}
    done_counts: dict[str, int] = {}
    for record in records:
        if record.get("kind") != "job":
            continue
        job_id = record["job_id"]
        if record["event"] == "submitted" and job_id not in submitted:
            submitted[job_id] = record["ts"]
        if record["event"] == "done":
            done[job_id] = record["ts"]
            done_counts[job_id] = done_counts.get(job_id, 0) + 1
    latencies = sorted(
        done[job_id] - submitted[job_id]
        for job_id in job_ids
        if job_id in done and job_id in submitted
    )
    states = {job_id: views[job_id].state if job_id in views else "lost"
              for job_id in job_ids}
    span_s = (
        max(done.values()) - min(submitted.values())
        if done and submitted else 0.0
    )
    return {
        "jobs": len(job_ids),
        "done": sum(1 for s in states.values() if s == "done"),
        "failed": sum(1 for s in states.values() if s == "failed"),
        "shed": sum(1 for s in states.values() if s == "shed"),
        "lost": sum(1 for s in states.values() if s == "lost"),
        "double_completed": sum(1 for c in done_counts.values() if c > 1),
        "recovered": sum(
            1 for job_id in job_ids
            if job_id in views and "requeued" in views[job_id].events
        ),
        "latency_p50_s": _percentile(latencies, 0.50) if latencies else None,
        "latency_p95_s": _percentile(latencies, 0.95) if latencies else None,
        "throughput_jobs_per_s": (len(done) / span_s) if span_s > 0 else None,
        "journal_problems": len(problems),
        "digests": sorted({
            views[job_id].digest for job_id in job_ids
            if job_id in views and views[job_id].digest
        }),
    }


def bench_serve(
    profile: str = "mix",
    scale: float = 0.01,
    n_jobs: int = 8,
    executors: int = 2,
    workers: int = 2,
    backend: str = "threads",
    repeats: int = 1,
    seed: int = 0,
    kmeans_iters: int = 5,
    shed_depth: int | None = None,
    fault: bool = True,
) -> dict:
    """Load-test the serve daemon and prove its reliability envelope.

    Three scenarios drive ``n_jobs`` concurrent submissions over one
    corpus against a fresh state directory each:

    * ``steady`` — depth budget >= the load; every job must complete
      with the reference digest. Records throughput and latency
      percentiles (submitted → done, from journal timestamps).
    * ``backpressure`` — the queue budget is squeezed to
      ``shed_depth`` (default ``max(1, n_jobs // 4)``), so admission
      control must shed the overflow with recorded reasons while every
      *admitted* job still completes bit-identically.
    * ``crash-recovery`` (``fault=True``) — the daemon is killed at the
      ``running`` journal append mid-load, then restarted over the same
      state directory. No job may be lost or double-completed: every
      job finishes exactly once with the reference digest, and the
      recovered (requeued) count is reported.

    The reference digest comes from one in-process run of the same
    pipeline — the serve path must reproduce one-shot execution bit for
    bit. ``repeats`` is accepted for CLI uniformity; the scenarios are
    single-shot by design (a load test, not a best-of timing sweep).
    """
    if profile not in _PROFILES:
        raise BenchmarkError(f"unknown profile {profile!r}")
    from repro.bench.oocore_child import output_digest
    from repro.serve.transport import submit_job

    corpus = generate_corpus(_PROFILES[profile], scale=scale, seed=seed)

    root = tempfile.mkdtemp(prefix="repro_serve_bench_")
    runs: list[dict] = []
    try:
        corpus_dir = os.path.join(root, "corpus")
        store_corpus(FsStorage(corpus_dir), corpus)
        # The reference must match what jobs actually see: the corpus
        # round-tripped through storage (disk order, not generation
        # order) and the same parallel backend kind — the serial path
        # assembles grains in a different order, so hashing it would
        # flag a spurious mismatch.
        stored = load_corpus(FsStorage(corpus_dir), "", name="reference")
        reference_backend = make_backend(backend, workers)
        try:
            reference = run_pipeline(
                stored,
                backend=reference_backend,
                tfidf=TfIdfOperator(),
                kmeans=KMeansOperator(max_iters=kmeans_iters),
            )
        finally:
            reference_backend.close()
        reference_digest = output_digest(reference)
        daemon_args = [
            "--backend", backend,
            "--workers", str(workers),
            "--executors", str(executors),
            "--idle-exit", "1.0",
            "--drain-deadline", "60",
        ]

        def scenario(
            label: str, *, depth: int, kill_at: str | None
        ) -> dict:
            state = os.path.join(root, f"state_{label}")
            job_ids = [
                submit_job(state, {
                    "input": corpus_dir,
                    "iters": kmeans_iters,
                    "job_id": f"{label}-{index}",
                })
                for index in range(n_jobs)
            ]
            t0 = time.perf_counter()
            crashed = False
            if kill_at is not None:
                code = _serve_daemon(
                    state, daemon_args + ["--max-depth", str(depth)],
                    kill_at=kill_at,
                )
                crashed = code == 86
            _serve_daemon(state, daemon_args + ["--max-depth", str(depth)])
            total_s = time.perf_counter() - t0
            stats = _serve_scenario_stats(state, job_ids)
            digest_ok = stats["digests"] in ([], [reference_digest])
            exactly_once = (
                stats["lost"] == 0 and stats["double_completed"] == 0
            )
            expected_done = stats["jobs"] - stats["shed"] - stats["failed"]
            run = {
                "scenario": label,
                "total_s": total_s,
                "crash_injected": kill_at,
                "crashed": crashed,
                "max_depth": depth,
                "output_identical": digest_ok,
                "exactly_once": exactly_once,
                "ok": (
                    digest_ok
                    and exactly_once
                    and stats["journal_problems"] == 0
                    and stats["done"] == expected_done
                    and (kill_at is None or crashed)
                ),
            }
            run.update(stats)
            return run

        runs.append(scenario("steady", depth=n_jobs, kill_at=None))
        depth = shed_depth or max(1, n_jobs // 4)
        runs.append(scenario("backpressure", depth=depth, kill_at=None))
        if fault:
            runs.append(
                scenario("crash-recovery", depth=n_jobs, kill_at="running")
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)

    steady = runs[0]
    return _envelope(
        "serve", profile, scale, len(corpus), repeats, kmeans_iters,
        config={
            "backend": backend,
            "workers": workers,
            "executors": executors,
            "n_jobs": n_jobs,
            "seed": seed,
            "fault": fault,
        },
        runs=runs,
        serve_summary={
            "reference_digest": reference_digest,
            "jobs_per_scenario": n_jobs,
            "latency_p50_s": steady["latency_p50_s"],
            "latency_p95_s": steady["latency_p95_s"],
            "throughput_jobs_per_s": steady["throughput_jobs_per_s"],
            "shed": sum(r["shed"] for r in runs),
            "recovered": sum(r["recovered"] for r in runs),
            "lost": sum(r["lost"] for r in runs),
            "double_completed": sum(r["double_completed"] for r in runs),
            "all_ok": all(r["ok"] for r in runs),
        },
    )
