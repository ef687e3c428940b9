"""Real (wall-clock) fused pipeline: TF/IDF → K-means on a backend.

The simulated workflow (:mod:`repro.sim.workflow`) answers scaling
questions in virtual time; this module is its real-execution twin. It
runs the same fused TF/IDF → K-means composition — scores handed over in
memory, no ARFF round trip — on an actual
:class:`~repro.exec.inline.ExecutionBackend`, timing each phase with the
host's wall clock. It is the engine behind ``python -m repro pipeline``,
the serve daemon's jobs and ``perfbench/``.

There is one driver, :func:`run_pipeline`, and every run is a plan: a
fixed backend (or none — a :class:`SequentialBackend` the driver builds)
is the trivial plan with all three phases on it, ``plan="auto"`` asks the
:class:`~repro.plan.AdaptivePlanner`, a :class:`~repro.plan.RealPlan` is
executed verbatim. Tracing, caching, tiling, the ledger and graceful
degradation wrap the same three phases on every route and never change
the output bits; no option combination is rejected.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.cache import NullCacheSession, PipelineCache
from repro.errors import ConfigurationError
from repro.exec.inline import (
    ExecutionBackend,
    RunBill,
    SequentialBackend,
    ThreadBackend,
)
from repro.exec.process import ProcessBackend, make_backend
from repro.exec.resilience import DowngradeEvent, QuarantineReport
from repro.exec.shm import SHM
from repro.exec.spans import RunTrace
from repro.io.parallel_read import DocumentStream
from repro.obs.ledger import RunLedger, WallAnchor
from repro.ops.kmeans import PHASE_KMEANS, KMeansOperator, KMeansResult
from repro.ops.tfidf import PHASE_TRANSFORM, TfIdfOperator, TfIdfResult
from repro.ops.wordcount import PHASE_INPUT_WC
from repro.plan import AdaptivePlanner, CalibrationStore, PhasePlan, RealPlan
from repro.text.corpus import Corpus
from repro.tiles.store import TileStore

__all__ = ["RealRunResult", "output_digest", "run_pipeline", "PHASE_READ"]

#: Phase and plan time is read through this one clock (tests substitute
#: a deterministic one).
_clock = time.perf_counter

def _downgraded(backend: ExecutionBackend) -> ExecutionBackend | None:
    """The next tier down (processes → threads → sequential), or ``None``."""
    if isinstance(backend, ProcessBackend):
        return ThreadBackend(backend.workers, backend.resilience)
    if isinstance(backend, ThreadBackend):
        return SequentialBackend(backend.resilience)
    return None


#: Phase label for time the pipeline spent blocked on input reads. Only
#: reported for streamed input (a :class:`DocumentStream`); a materialized
#: corpus has no read phase.
PHASE_READ = "read"

_PHASES = (PHASE_INPUT_WC, PHASE_TRANSFORM, PHASE_KMEANS)


def _slot(backend: ExecutionBackend) -> tuple[str, int, bool]:
    """The ``(tier, workers, shm)`` a plan step would name for ``backend``."""
    if isinstance(backend, ProcessBackend):
        return "processes", backend.workers, backend.plane.transport == SHM
    if isinstance(backend, ThreadBackend):
        return "threads", backend.workers, False
    return "sequential", 1, False


@dataclass
class RealRunResult:
    """Outcome of one real fused run, with wall-clock phase timings."""

    tfidf: TfIdfResult
    kmeans: KMeansResult
    #: Wall-clock seconds per phase, keyed by the paper's phase names.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    backend_name: str = "sequential"
    #: IPC-accounting snapshot of the run (``{"phases": ..., "total": ...}``,
    #: see :class:`repro.exec.shm.IpcStats`).
    ipc: dict | None = None
    #: Per-task span trace (:class:`repro.exec.spans.RunTrace`) when the run
    #: was traced; ``None`` otherwise.
    trace: RunTrace | None = None
    #: Items isolated by ``on_poison="quarantine"`` during this run
    #: (:class:`repro.exec.resilience.QuarantineReport`); ``None`` when
    #: nothing was quarantined (including every fail-fast run).
    quarantine: QuarantineReport | None = None
    #: Backend downgrades performed because ``degrade=True`` absorbed a
    #: dead worker pool, in order.
    downgrades: list[DowngradeEvent] = field(default_factory=list)
    #: The :class:`~repro.plan.RealPlan` this run executed, when it was
    #: launched via ``run_pipeline(plan=...)``; ``None`` for fixed-backend
    #: runs.
    plan: RealPlan | None = None
    #: Seconds spent planning (probe + candidate costing), outside
    #: ``phase_seconds`` — planning is amortized across runs via the
    #: persisted calibration store, so it is billed separately.
    plan_seconds: float = 0.0
    #: Result-cache accounting for the run (hits, misses, shard reuse,
    #: bytes/seconds saved — see
    #: :meth:`repro.cache.pipeline_cache.RunCacheSession.snapshot`);
    #: ``None`` when the run had no cache.
    cache: dict | None = None
    #: Spill accounting when the run went through the tiled data plane
    #: (tile counts/bytes, pinned-byte peak, evictions, spill dir — see
    #: :meth:`repro.tiles.matrix.TiledCsrMatrix.spill_stats`); ``None``
    #: for resident-matrix runs. The matrix on ``tfidf.matrix`` still
    #: maps these tiles — call its ``close()`` when done with the result.
    tiles: dict | None = None
    #: Where this run's ledger append landed (``{"run_id", "dir",
    #: "records", "append_s"}``) when ``run_pipeline(ledger=...)`` was
    #: given; ``None`` for unledgered runs.
    ledger: dict | None = None

    @property
    def total_s(self) -> float:
        return sum(self.phase_seconds.values())

    def to_record(self) -> dict:
        """The run's accounting as one JSON-able dict.

        The single serializer behind every surface that reports a run —
        the CLI summary, benchmark run entries, and the persistent run
        ledger — so the accounting fields cannot drift apart. Carries
        numbers only, never live objects: ``trace`` is the per-phase
        stats summary, ``trace_totals`` the calibration-grade sums
        (``busy_s``/``n_items``/bytes per phase), ``plan`` the planner's
        summary dict.
        """
        return {
            "backend": self.backend_name,
            "phases": dict(self.phase_seconds),
            "total_s": self.total_s,
            "ipc": self.ipc,
            "trace": self.trace.summary_dict() if self.trace else None,
            "trace_totals": self.trace.phase_totals() if self.trace else None,
            "plan": self.plan.summary_dict() if self.plan else None,
            "plan_seconds": self.plan_seconds,
            "cache": self.cache,
            "tiles": self.tiles,
            "downgrades": [event.as_dict() for event in self.downgrades],
            "quarantine": (
                {
                    "slices": len(self.quarantine),
                    "doc_ids": list(self.quarantine.doc_ids),
                }
                if self.quarantine
                else None
            ),
        }


def output_digest(result: RealRunResult) -> str:
    """One hash over rows, assignments, and raw centroid bytes.

    Struct-packed (not ``repr``) so equal doubles hash equally and any
    last-ulp drift between tiled and resident execution changes the
    digest — this is the cross-process form of the bit-identity check.
    """
    h = hashlib.sha256()
    matrix = result.tfidf.matrix
    h.update(struct.pack("<qq", matrix.n_rows, matrix.n_cols))
    for row in matrix.iter_rows():
        idx = [int(i) for i in row.indices]
        val = [float(v) for v in row.values]
        h.update(struct.pack(f"<q{len(idx)}q", len(idx), *idx))
        h.update(struct.pack(f"<{len(val)}d", *val))
    assignments = result.kmeans.assignments
    h.update(struct.pack(f"<q{len(assignments)}q", len(assignments), *assignments))
    h.update(result.kmeans.centroids.tobytes())
    return h.hexdigest()


def run_pipeline(
    corpus: Corpus | DocumentStream,
    backend: ExecutionBackend | None = None,
    tfidf: TfIdfOperator | None = None,
    kmeans: KMeansOperator | None = None,
    *,
    trace: bool = False,
    degrade: bool = False,
    plan: RealPlan | str | None = None,
    calibration: CalibrationStore | str | None = None,
    cache: PipelineCache | str | None = None,
    memory_budget: int | None = None,
    ledger: RunLedger | str | None = None,
    observe: bool = True,
) -> RealRunResult:
    """Run the fused workflow for real and time its phases.

    ``corpus`` is either a materialized :class:`Corpus` or a
    :class:`~repro.io.parallel_read.DocumentStream` — with a stream, the
    input files are read concurrently (bounded prefetch) while phase 1
    tokenizes, and the time the pipeline actually spent *blocked* on reads
    is reported as its own ``read`` phase; the remainder of the wall time
    of phase 1 stays under ``input+wc``, so the phase totals still sum to
    end-to-end wall time. ``backend=None`` runs every phase on a
    :class:`SequentialBackend` built (and closed) here. Operators
    default to the paper's configuration (``map`` dictionaries, K=8).

    ``trace=True`` records one span per executed task (including file
    reads for streamed input) and attaches the resulting
    :class:`~repro.exec.spans.RunTrace` to the result. If a phase raises
    mid-run with streamed input, the stream's reader pool is torn down
    before the error propagates — no reader threads are leaked.

    ``degrade=True`` absorbs a dead worker pool (a
    ``BrokenProcessPool`` that survived the backend's own restart
    breaker) by rebuilding the failed phase one backend tier down —
    processes → threads → sequential — billed to the same run; each step
    is recorded as a :class:`~repro.exec.resilience.DowngradeEvent` on
    the result, and every later phase planned on the same backend stays
    on the lower tier. Phase 1 over *streamed* input cannot be replayed
    (the stream is partially consumed), so there the error still
    propagates.

    ``plan`` switches to adaptive execution: ``"auto"`` lets an
    :class:`~repro.plan.AdaptivePlanner` pick each phase's configuration
    from measured cost constants (``calibration``: a
    :class:`~repro.plan.CalibrationStore`, a path to one, or ``None`` to
    probe the corpus) and drains a stream up front (the planner needs
    the document count); a prebuilt :class:`~repro.plan.RealPlan` is
    executed verbatim and keeps the read overlap. Phases may run on
    different backends — built once per tier × workers × shm, closed
    here — under one bill; the executed plan is recorded on the result,
    and planned outputs are bit-identical to every fixed-configuration
    run. ``backend`` (or the sequential one built here) is still the
    run's own: every backend the plan builds takes its ``resilience``
    policy, and it runs every phase planned on its own tier × workers ×
    shm.

    Every run bills a fresh :class:`~repro.exec.inline.RunBill`, set as
    ``.bill`` on each backend it uses (and left on ``backend``), so a
    later run leaves this result's accounting as it is.

    ``cache`` (a :class:`~repro.cache.PipelineCache` or a store
    directory) memoizes each phase's result on disk, keyed on corpus
    content × operator config × code version: a warm run serves all
    three phases with zero operator recompute and bit-identical output,
    and a changed corpus recomputes only changed document shards (see
    ``docs/caching.md``). Caching materializes streamed input up front
    (content must be hashed before it can be served) and the run's
    hit/miss/savings accounting lands on ``result.cache``.

    ``memory_budget`` (bytes) switches the matrix phases to the tiled
    data plane: the transform spills binary row-range tiles to disk as
    it produces them and k-means streams them back chunk-at-a-time, so
    the matrix is never resident and the tile reader pins at most the
    budget — with bit-identical output. The budget bounds the matrix
    only: the word count's block grows with the corpus and sets a
    budgeted run's peak, while the k-means fit merges each block's
    partial as it arrives and holds about one span of them in-process
    (``docs/data_plane.md``). On the fixed
    path the budget tiles unconditionally; on the planned path it is
    handed to the planner, which only tiles when the estimated matrix
    exceeds the budget. ``result.tiles`` carries the spill accounting.

    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger` or a directory
    path) appends one wall-anchored record per executed step to the
    persistent run ledger — including a ``failed`` record for the step
    that raised, when one does — and notes the append on
    ``result.ledger``. See ``docs/ledger.md``.

    ``observe`` (default on) lets a ``plan="auto"`` run feed its
    measured span/IPC totals back into the calibration store when it
    finishes — embedded callers sharpen planning exactly like the CLI
    does. Pass ``observe=False`` for runs that must not move the
    constants (A/B comparisons against a frozen store).
    """
    if not (plan is None or plan == "auto" or isinstance(plan, RealPlan)):
        raise ConfigurationError(
            f'plan must be "auto" or a RealPlan, got {plan!r}'
        )
    planned = plan is not None
    kind = "planned" if planned else "pipeline"
    kmeans = kmeans or KMeansOperator()
    run_ledger = RunLedger.ensure(ledger)
    anchor = WallAnchor.capture() if run_ledger is not None else None
    seconds: dict[str, float] = {}
    downgrades: list[DowngradeEvent] = []
    plan_t0 = _clock()

    #: Backends built here (every planned one, every downgraded one, and
    #: the sequential default), closed here; the caller's is borrowed.
    owned: list[ExecutionBackend] = []
    if backend is None:
        backend = SequentialBackend()
        owned.append(backend)
    # One bill for the whole run, set on every backend it uses, and one
    # policy: the run's own backend's, lent to every backend built here.
    # The fault plan is not lent: its directives target the caller's
    # backend (an ``exit`` fault fired in-process would kill the parent).
    bill = backend.bill = RunBill()
    home = _slot(backend)
    streamed = isinstance(corpus, DocumentStream)
    if trace:
        bill.spans.begin_run()
    if streamed:
        corpus.bill = bill

    source = corpus
    pipeline_cache = PipelineCache.ensure(cache)
    if streamed and (pipeline_cache is not None or plan == "auto"):
        # The one place a stream is drained up front: content must be
        # hashed before the cache can serve it, and the planner needs
        # the document count (and a probe sample). The reads still
        # overlap each other, and the blocked time is the read phase.
        # Every other run overlaps its reads with phase 1.
        source = list(corpus)
        seconds[PHASE_READ] = corpus.wait_seconds
        corpus.close()
        streamed = False
    tfidf = tfidf or TfIdfOperator()
    session = NullCacheSession()
    if pipeline_cache is not None:
        session = pipeline_cache.begin_run(source, tfidf, kmeans) or session

    store: CalibrationStore | None = None
    if plan == "auto":
        # Cached phases need no routing: a served phase never builds the
        # backend its plan names (backends are built on first use).
        store = CalibrationStore.ensure(calibration, source)
        plan = AdaptivePlanner(store).plan(
            n_docs=len(source),
            kmeans_iters=kmeans.max_iters,
            memory_budget=memory_budget,
        )
    if planned:
        steps, budget = plan.phases, plan.memory_budget
        for phase in _PHASES:
            if phase not in steps:
                raise ConfigurationError(f"plan has no entry for phase {phase!r}")
        # Input blocking is the read phase; only the probing/enumeration
        # remainder is billed to planning.
        plan_seconds = max(
            0.0, _clock() - plan_t0 - seconds.get(PHASE_READ, 0.0)
        )
    else:
        # The trivial plan: every phase on the run's own backend, tiled
        # iff budgeted.
        steps = {
            phase: PhasePlan(phase, *home, tiled=memory_budget is not None)
            for phase in _PHASES
        }
        budget, plan_seconds = None, 0.0
    if budget is None:
        budget = memory_budget

    #: (tier, workers, shm) → its live backend; every entry but the
    #: run's own backend is built on first use and listed in ``owned``.
    pool: dict[tuple, ExecutionBackend] = {home: backend}

    def backend_name() -> str:
        return "planned" if planned else pool[home].name

    # The step a raising run bills its failure record to.
    current_step = PHASE_INPUT_WC

    def run_phase(phase: str, thunk, *, replayable: bool = True):
        """One phase attempt on its planned backend (built on first
        use), degrading through the tiers if allowed."""
        nonlocal current_step
        current_step = phase
        step = steps[phase]
        slot = (step.backend, step.workers, step.shm)
        if slot not in pool:
            pool[slot] = make_backend(
                step.backend, step.workers,
                shm=step.shm if step.backend == "processes" else None,
                resilience=backend.resilience,
            )
            pool[slot].bill = bill
            owned.append(pool[slot])
        while True:
            live = pool[slot]
            try:
                return thunk(live)
            except BrokenProcessPool as exc:
                lower = _downgraded(live) if degrade and replayable else None
                if lower is None:
                    raise
                lower.bill = bill
                owned.append(lower)
                downgrades.append(DowngradeEvent(
                    phase=phase, from_backend=live.name,
                    to_backend=lower.name, reason=str(exc),
                ))
                # Sticky: whatever else is planned on this slot follows.
                pool[slot] = lower

    try:
        t0 = _clock()

        def count(texts):
            return run_phase(
                PHASE_INPUT_WC,
                lambda backend: tfidf.wordcount.run(texts, backend=backend),
                replayable=not streamed,
            )

        wc = session.wordcount(
            compute_all=lambda: count(source),
            compute_subset=count,
        )
        t1 = _clock()
        if streamed:
            seconds[PHASE_READ] = corpus.wait_seconds
            seconds[PHASE_INPUT_WC] = max(
                0.0, (t1 - t0) - corpus.wait_seconds
            )
        else:
            seconds[PHASE_INPUT_WC] = t1 - t0

        tile_store = None
        if steps[PHASE_TRANSFORM].tiled:
            # Tiled data plane: the transform spills row-range tiles as
            # it goes, k-means streams them back. The result's matrix
            # owns the spill store; tiles live until it is closed.
            tile_store = TileStore(memory_budget=budget, stats=bill.ipc)

            def transform(backend):
                return tfidf.transform_wordcount_tiled(
                    wc, tile_store, backend=backend
                )
        else:
            def transform(backend):
                return tfidf.transform_wordcount(wc, backend=backend)

        scores = session.transform(
            tfidf, wc, lambda: run_phase(PHASE_TRANSFORM, transform),
            tiles=tile_store,
        )
        t2 = _clock()
        seconds[PHASE_TRANSFORM] = t2 - t1

        clusters = session.kmeans_fit(
            lambda: run_phase(
                PHASE_KMEANS,
                lambda backend: kmeans.fit(scores.matrix, backend=backend),
            )
        )
        seconds[PHASE_KMEANS] = _clock() - t2
    finally:
        # A phase that raised mid-run must not leak the stream's reader
        # threads: closing is idempotent and a no-op after clean exhaustion.
        if streamed:
            corpus.close()
        if trace:
            bill.spans.end_run()
        for built in owned:
            built.close()
        session.finish()
        if run_ledger is not None and sys.exc_info()[1] is not None:
            run_ledger.record_failed_run(
                anchor=anchor,
                phase_seconds=seconds,
                failed_step=current_step,
                error=sys.exc_info()[1],
                backend=backend_name(),
                kind=kind,
                n_docs=len(source) if hasattr(source, "__len__") else 0,
            )

    run_trace = RunTrace.from_recorder(
        bill.spans,
        phase_wall_s=dict(seconds),
        backend_name=backend_name(),
        workers=max(be.workers for be in (backend, *owned)),
    ) if trace else None
    spill_stats = getattr(scores.matrix, "spill_stats", None)
    result = RealRunResult(
        tfidf=scores,
        kmeans=clusters,
        phase_seconds=seconds,
        backend_name=backend_name(),
        ipc=bill.ipc.snapshot(),
        trace=run_trace,
        quarantine=bill.quarantine or None,
        downgrades=downgrades,
        plan=plan,
        plan_seconds=plan_seconds,
        cache=session.snapshot(),
        # Set when the matrix went through the tile plane.
        tiles=spill_stats() if spill_stats is not None else None,
    )
    if run_ledger is not None:
        result.ledger = run_ledger.record_run(
            result,
            anchor=anchor,
            kind=kind,
            config={
                "trace": trace,
                "degrade": degrade,
                "cached": result.cache is not None,
                "memory_budget": memory_budget,
            },
        )
    if store is not None and observe:
        # Keep learning from whatever executed: cached phases ran no
        # tasks (no spans, no IPC bytes), so their constants are left
        # untouched; executed phases sharpen the model for the next plan.
        store.observe_run(result, n_docs=len(source))
        if isinstance(calibration, str):
            store.save(calibration)
    return result
