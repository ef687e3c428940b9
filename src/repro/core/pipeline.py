"""Real (wall-clock) fused pipeline: TF/IDF → K-means on a backend.

The simulated workflow (:mod:`repro.core.workflow`) answers scaling
questions in virtual time; this module is its real-execution twin. It
runs the same fused TF/IDF → K-means composition — scores handed over in
memory, no ARFF round trip — on an actual
:class:`~repro.exec.inline.ExecutionBackend`, timing each phase with the
host's wall clock. It is the engine behind ``python -m repro pipeline``
and the wall-clock benchmark (:mod:`repro.bench.wallclock`).

With ``trace=True`` the backend's :class:`~repro.exec.spans.SpanRecorder`
is armed for the run and the result carries a
:class:`~repro.exec.spans.RunTrace`: one span per executed task, on every
worker, from which per-phase utilization, queue wait, and straggler ratio
are derived. Tracing never changes the computation — outputs are
bit-identical with tracing on or off.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.cache import PipelineCache
from repro.cache.pipeline_cache import RunCacheSession
from repro.errors import ConfigurationError
from repro.exec.inline import ExecutionBackend, SequentialBackend, ThreadBackend
from repro.exec.process import ProcessBackend, make_backend
from repro.exec.resilience import DowngradeEvent, QuarantineReport
from repro.exec.spans import RunTrace, SpanRecorder
from repro.io.parallel_read import DocumentStream
from repro.obs.ledger import RunLedger, WallAnchor
from repro.ops import kernels
from repro.ops.kmeans import PHASE_KMEANS, KMeansOperator, KMeansResult
from repro.ops.tfidf import PHASE_TRANSFORM, TfIdfOperator, TfIdfResult
from repro.ops.wordcount import PHASE_INPUT_WC
from repro.plan import AdaptivePlanner, CalibrationStore, RealPlan
from repro.text.corpus import Corpus

__all__ = ["RealRunResult", "run_pipeline", "PHASE_READ"]


def _downgraded(backend: ExecutionBackend) -> ExecutionBackend | None:
    """The next tier down (processes → threads → sequential), or ``None``."""
    if isinstance(backend, ProcessBackend):
        return ThreadBackend(backend.workers, backend.resilience)
    if isinstance(backend, ThreadBackend):
        return SequentialBackend(backend.resilience)
    return None


def _transplant(old: ExecutionBackend, new: ExecutionBackend) -> None:
    """Carry one run's accounting state onto a downgraded backend.

    IPC counters, span recorder, quarantine report, and task-id counters
    move over so the run's bill stays continuous across the downgrade.
    The fault plan deliberately does *not* move: its directives targeted
    the dead backend's workers (an ``exit`` fault re-fired in-process
    would kill the parent), and the point of degrading is to finish.
    """
    new.ipc = old.ipc
    new.spans = old.spans
    new.quarantine = old.quarantine
    new._task_counters = old._task_counters
    # The shm plane captured a stats reference at construction and hands
    # it to every ShmArrays/ShmBroadcast it creates — rebind it too, or
    # shm traffic on ``new`` would bill a counter nobody reads.
    plane = getattr(new, "_plane", None)
    if plane is not None:
        plane._stats = old.ipc

#: Phase label for time the pipeline spent blocked on input reads. Only
#: reported for streamed input (a :class:`DocumentStream`); a materialized
#: corpus has no read phase.
PHASE_READ = "read"


@dataclass
class RealRunResult:
    """Outcome of one real fused run, with wall-clock phase timings."""

    tfidf: TfIdfResult
    kmeans: KMeansResult
    #: Wall-clock seconds per phase, keyed by the paper's phase names.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    backend_name: str = "sequential"
    #: IPC-accounting snapshot of the run (``{"phases": ..., "total": ...}``,
    #: see :class:`repro.exec.shm.IpcStats`); ``None`` for the inline path.
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
    #: and inline runs.
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
    end-to-end wall time. ``backend=None`` runs the legacy inline path
    (the reference for the bit-identical-output guarantee). Operators
    default to the paper's configuration (``map`` dictionaries, K=8).

    ``trace=True`` records one span per executed task (including file
    reads for streamed input) and attaches the resulting
    :class:`~repro.exec.spans.RunTrace` to the result; it requires a
    backend. If a phase raises mid-run with streamed input, the stream's
    reader pool is torn down before the error propagates — no reader
    threads are leaked.

    ``degrade=True`` absorbs a dead worker pool (a
    ``BrokenProcessPool`` that survived the backend's own restart
    breaker) by rebuilding the failed phase one backend tier down —
    processes → threads → sequential — with the run's accounting
    transplanted; each step is recorded as a
    :class:`~repro.exec.resilience.DowngradeEvent` on the result. Phase 1
    over *streamed* input cannot be replayed (the stream is partially
    consumed), so there the error still propagates.

    ``plan`` switches to adaptive execution and is mutually exclusive
    with ``backend``: pass ``"auto"`` to let an
    :class:`~repro.plan.AdaptivePlanner` pick each phase's configuration
    from measured cost constants (``calibration`` is then a
    :class:`~repro.plan.CalibrationStore`, a path to one, or ``None`` to
    probe the corpus), or pass a prebuilt :class:`~repro.plan.RealPlan`
    to execute it verbatim. Different phases may run on different
    backends; one IPC/span/quarantine bill spans them all, and the
    executed plan is recorded on the result. Planned outputs are
    bit-identical to every fixed-configuration run.

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
    peak residency is O(tile + centroids) instead of O(matrix) — with
    bit-identical output (see ``docs/data_plane.md``). On the fixed
    path the budget tiles unconditionally; on the planned path it is
    handed to the planner, which only tiles when the estimated matrix
    exceeds the budget. The tiled transform is fail-fast (no quarantine
    bisection), and ``result.tiles`` carries the spill accounting.

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
    if plan is not None:
        if backend is not None:
            raise ConfigurationError(
                "pass either backend= or plan=, not both"
            )
        return _run_planned(
            corpus, plan, tfidf=tfidf, kmeans=kmeans,
            trace=trace, degrade=degrade, calibration=calibration,
            cache=cache, memory_budget=memory_budget, ledger=ledger,
            observe=observe,
        )
    if trace and backend is None:
        raise ConfigurationError("tracing requires an execution backend")
    tfidf = tfidf or TfIdfOperator()
    kmeans = kmeans or KMeansOperator()
    seconds: dict[str, float] = {}
    run_ledger = RunLedger.ensure(ledger)
    anchor = WallAnchor.capture() if run_ledger is not None else None
    # The step a raising run bills its failure record to — run_phase
    # keeps it current, so mid-flight errors land on the right step.
    current_step = {"name": PHASE_INPUT_WC}
    streamed = isinstance(corpus, DocumentStream)
    downgrades: list[DowngradeEvent] = []
    created: list[ExecutionBackend] = []
    if backend is not None:
        backend.ipc.reset()  # this run's bill only
        backend.quarantine.clear()
        if trace:
            backend.spans.begin_run()
            if streamed:
                corpus.spans = backend.spans

    source = corpus
    session: RunCacheSession | None = None
    pipeline_cache = PipelineCache.ensure(cache)
    if pipeline_cache is not None:
        if streamed:
            # Content must be hashed before it can be served: drain the
            # stream (reads still overlap via its prefetch pool, and
            # traced reader spans were armed above) and bill the blocked
            # time as the read phase, exactly as the planned path does.
            source = list(corpus)
            seconds[PHASE_READ] = corpus.wait_seconds
            corpus.close()
            streamed = False
        session = pipeline_cache.begin_run(source, tfidf, kmeans)

    def run_phase(phase: str, thunk, *, replayable: bool = True):
        """One phase attempt, degrading through the tiers if allowed."""
        nonlocal backend
        current_step["name"] = phase
        while True:
            try:
                return thunk(backend)
            except BrokenProcessPool as exc:
                if backend is None or not degrade or not replayable:
                    raise
                lower = _downgraded(backend)
                if lower is None:
                    raise
                _transplant(backend, lower)
                created.append(lower)
                downgrades.append(
                    DowngradeEvent(
                        phase=phase,
                        from_backend=backend.name,
                        to_backend=lower.name,
                        reason=str(exc),
                    )
                )
                backend = lower

    try:
        t0 = time.perf_counter()
        if session is not None:
            wc = session.wordcount(
                tfidf.wordcount,
                compute_all=lambda: run_phase(
                    PHASE_INPUT_WC,
                    lambda be: tfidf.wordcount.run(source, backend=be),
                ),
                compute_subset=lambda sub: run_phase(
                    PHASE_INPUT_WC,
                    lambda be: tfidf.wordcount.run(sub, backend=be),
                ),
            )
        else:
            wc = run_phase(
                PHASE_INPUT_WC,
                lambda be: tfidf.wordcount.run(source, backend=be),
                replayable=not streamed,
            )
        t1 = time.perf_counter()
        if streamed:
            read_s = corpus.wait_seconds
            seconds[PHASE_READ] = read_s
            seconds[PHASE_INPUT_WC] = max(0.0, (t1 - t0) - read_s)
        else:
            seconds[PHASE_INPUT_WC] = t1 - t0

        if memory_budget is not None:
            # Tiled data plane: the transform spills row-range tiles as
            # it goes, k-means streams them back. The result's matrix
            # owns the spill store; tiles live until it is closed.
            from repro.tiles.store import TileStore

            tile_store = TileStore(
                memory_budget=memory_budget,
                stats=backend.ipc if backend is not None else None,
            )
            tile_docs = _tile_docs(wc, memory_budget)

            def compute_tiled():
                return run_phase(
                    PHASE_TRANSFORM,
                    lambda be: tfidf.transform_wordcount_tiled(
                        wc, tile_store, backend=be, tile_docs=tile_docs
                    ),
                )

            if session is not None:
                scores = session.transform_tiled(
                    tfidf, wc, tile_store, compute_all=compute_tiled
                )
            else:
                scores = compute_tiled()
        elif session is not None:
            scores = session.transform(
                tfidf,
                wc,
                compute_all=lambda: run_phase(
                    PHASE_TRANSFORM,
                    lambda be: tfidf.transform_wordcount(wc, backend=be),
                ),
                compute_rows=lambda chunks: run_phase(
                    PHASE_TRANSFORM,
                    lambda be: _transform_chunks(be, chunks),
                ),
            )
        else:
            scores = run_phase(
                PHASE_TRANSFORM,
                lambda be: tfidf.transform_wordcount(wc, backend=be),
            )
        t2 = time.perf_counter()
        seconds[PHASE_TRANSFORM] = t2 - t1

        if session is not None:
            clusters = session.kmeans_fit(
                lambda: run_phase(
                    PHASE_KMEANS,
                    lambda be: kmeans.fit(scores.matrix, backend=be),
                )
            )
        else:
            clusters = run_phase(
                PHASE_KMEANS, lambda be: kmeans.fit(scores.matrix, backend=be)
            )
        t3 = time.perf_counter()
        seconds[PHASE_KMEANS] = t3 - t2
    finally:
        # A phase that raised mid-run must not leak the stream's reader
        # threads: closing is idempotent and a no-op after clean exhaustion.
        if streamed:
            corpus.close()
        if trace:
            backend.spans.end_run()
        for lower in created:
            lower.close()
        if session is not None:
            session.finish()
        if run_ledger is not None and sys.exc_info()[1] is not None:
            run_ledger.record_failed_run(
                anchor=anchor,
                phase_seconds=seconds,
                failed_step=current_step["name"],
                error=sys.exc_info()[1],
                backend=backend.name if backend is not None else "inline",
                n_docs=len(source) if hasattr(source, "__len__") else 0,
            )

    run_trace: RunTrace | None = None
    if trace:
        run_trace = RunTrace.from_recorder(
            backend.spans,
            phase_wall_s=dict(seconds),
            backend_name=backend.name,
            workers=backend.workers,
        )

    quarantine = None
    if backend is not None and backend.quarantine:
        quarantine = backend.quarantine

    result = RealRunResult(
        tfidf=scores,
        kmeans=clusters,
        phase_seconds=seconds,
        backend_name=backend.name if backend is not None else "inline",
        ipc=backend.ipc.snapshot() if backend is not None else None,
        trace=run_trace,
        quarantine=quarantine,
        downgrades=downgrades,
        cache=session.snapshot() if session is not None else None,
        tiles=_spill_snapshot(scores),
    )
    if run_ledger is not None:
        result.ledger = run_ledger.record_run(
            result,
            anchor=anchor,
            config={
                "trace": trace,
                "degrade": degrade,
                "cached": session is not None,
                "memory_budget": memory_budget,
            },
        )
    return result


def _spill_snapshot(scores: TfIdfResult) -> dict | None:
    """The matrix's spill accounting, when it went through the tile plane."""
    spill_stats = getattr(scores.matrix, "spill_stats", None)
    return spill_stats() if spill_stats is not None else None


def _must_tile(
    store: CalibrationStore, n_docs: int, memory_budget: int | None
) -> bool:
    """The planner's tiling test, shared so cache routing agrees with it."""
    if memory_budget is None:
        return False
    constants = store.phases.get("transform")
    if constants is None:
        return False
    return int(n_docs * constants.result_bytes_per_doc) > memory_budget


def _tile_docs(wc, memory_budget: int) -> int:
    """Rows per tile under ``memory_budget``, from phase-1 statistics.

    Deliberately an *overestimate* of per-document bytes (every token
    priced as a distinct nonzero), so a tile plus its working copies
    land well inside the budget — the target is a quarter of it.
    """
    n = wc.n_docs
    if n <= 0:
        return 1
    per_doc = 24.0 * (wc.total_tokens / n) + 40.0
    docs = int((memory_budget / 4) // per_doc)
    return max(1, min(n, docs))


def _transform_chunks(backend, chunks):
    """Transform bound row ranges (the cache's changed shards) on
    ``backend``, bit-identically to the full transform."""
    if backend is None:
        return [kernels.transform_chunk(chunk) for chunk in chunks]
    backend.begin_phase(PHASE_TRANSFORM)
    return backend.map(kernels.transform_chunk, chunks, grain=1)


def _run_planned(
    corpus: Corpus | DocumentStream,
    plan: RealPlan | str,
    *,
    tfidf: TfIdfOperator | None,
    kmeans: KMeansOperator | None,
    trace: bool,
    degrade: bool,
    calibration: CalibrationStore | str | None,
    cache: PipelineCache | str | None = None,
    memory_budget: int | None = None,
    ledger: RunLedger | str | None = None,
    observe: bool = True,
) -> RealRunResult:
    """Execute a :class:`RealPlan`, phase by phase, on its chosen backends."""
    kmeans = kmeans or KMeansOperator()
    run_ledger = RunLedger.ensure(ledger)
    anchor = WallAnchor.capture() if run_ledger is not None else None
    current_step = {"name": PHASE_INPUT_WC}
    plan_t0 = time.perf_counter()
    read_spans: SpanRecorder | None = None
    read_s: float | None = None
    if isinstance(corpus, DocumentStream):
        # The probe and the planner need the document count up front, and
        # a plan may split phase 1 from the read anyway — materialize.
        # Read overlap stays a fixed-backend feature. The reader spans are
        # captured on a standalone recorder (no backend exists yet) that
        # the primary backend adopts below, so traced planned runs keep
        # their ``read`` phase.
        if trace:
            read_spans = SpanRecorder()
            read_spans.begin_run()
            corpus.spans = read_spans
        docs: Corpus | list = list(corpus)
        read_s = corpus.wait_seconds
        corpus.close()
    else:
        docs = corpus

    session: RunCacheSession | None = None
    pipeline_cache = PipelineCache.ensure(cache)
    if pipeline_cache is not None:
        session = pipeline_cache.begin_run(
            docs, tfidf or TfIdfOperator(), kmeans
        )

    observe_store: CalibrationStore | None = None
    if plan == "auto":
        if isinstance(calibration, CalibrationStore):
            store = calibration
        else:
            store = CalibrationStore.load_or_probe(calibration, docs)
        observe_store = store
        plan = AdaptivePlanner(store).plan(
            n_docs=len(docs),
            kmeans_iters=kmeans.max_iters,
            # Phases already cached are pinned to near-zero "cached"
            # plans so the planner routes around skippable work; fusion
            # is suppressed for cache-enabled runs because fused
            # intermediates never materialize parent-side (nothing could
            # be stored, and the cache wins on repeat traffic anyway).
            cached_phases=(
                session.cached_phases(
                    # Mirror the planner's own must-tile test, so the
                    # cache entry checked is the one a budgeted plan
                    # would actually serve.
                    prefer_tiled=_must_tile(store, len(docs), memory_budget)
                )
                if session is not None
                else frozenset()
            ),
            allow_fusion=session is None,
            memory_budget=memory_budget,
        )
    elif not isinstance(plan, RealPlan):
        raise ConfigurationError(
            f'plan must be "auto" or a RealPlan, got {plan!r}'
        )
    for phase in (PHASE_INPUT_WC, PHASE_TRANSFORM, PHASE_KMEANS):
        if phase not in plan.phases:
            raise ConfigurationError(f"plan has no entry for phase {phase!r}")
    wc_plan = plan.phases[PHASE_INPUT_WC]
    tr_plan = plan.phases[PHASE_TRANSFORM]
    km_plan = plan.phases[PHASE_KMEANS]
    if tfidf is None:
        # The dictionary implementation is a planner knob only when the
        # caller didn't pin the operators themselves.
        tfidf = TfIdfOperator(
            wc_dict_kind=wc_plan.dict_kind,
            transform_dict_kind=tr_plan.dict_kind,
        )
    # Input blocking is a read phase, exactly as on the fixed path; only
    # the probing/enumeration remainder is billed to planning.
    plan_seconds = time.perf_counter() - plan_t0
    if read_s is not None:
        plan_seconds = max(0.0, plan_seconds - read_s)

    # One backend instance per distinct (tier, workers, shm) — a fused
    # transform *must* land on the word count's live pool, and equal
    # configurations shouldn't pay two spawns.
    cache: dict[tuple[str, int, bool], ExecutionBackend] = {}
    created: list[ExecutionBackend] = []

    def backend_for(phase_plan) -> ExecutionBackend:
        key = (phase_plan.backend, phase_plan.workers, phase_plan.shm)
        be = cache.get(key)
        if be is None:
            be = make_backend(
                phase_plan.backend,
                phase_plan.workers,
                shm=phase_plan.shm if phase_plan.backend == "processes" else None,
            )
            if created:
                # One bill for the whole run, whichever backend executes.
                _transplant(created[0], be)
            created.append(be)
            cache[key] = be
        return be

    primary = backend_for(wc_plan)
    if trace:
        if read_spans is not None:
            # Adopt the recorder that already holds the reader spans;
            # later backends share it via _transplant from ``created[0]``.
            primary.spans = read_spans
        else:
            primary.spans.begin_run()
    seconds: dict[str, float] = {}
    if read_s is not None:
        seconds[PHASE_READ] = read_s
    downgrades: list[DowngradeEvent] = []

    def run_phase(phase: str, be: ExecutionBackend, thunk, *, replayable=True):
        """One phase attempt on ``be``, degrading through tiers if allowed."""
        current_step["name"] = phase
        while True:
            try:
                return thunk(be)
            except BrokenProcessPool as exc:
                if not degrade or not replayable:
                    raise
                lower = _downgraded(be)
                if lower is None:
                    raise
                _transplant(be, lower)
                created.append(lower)
                downgrades.append(
                    DowngradeEvent(
                        phase=phase,
                        from_backend=be.name,
                        to_backend=lower.name,
                        reason=str(exc),
                    )
                )
                be = lower

    try:
        t0 = time.perf_counter()
        if plan.fused:
            # Fused intermediates stay worker-resident — there is nothing
            # parent-side to serve or store for wc/transform, so a cache
            # session (possible only with a verbatim fused RealPlan) only
            # fronts the k-means phase here.
            fused = run_phase(
                PHASE_INPUT_WC,
                backend_for(wc_plan),
                lambda be: tfidf.wordcount.run_fused(
                    docs, be, grain=wc_plan.grain
                ),
            )
            t1 = time.perf_counter()
            seconds[PHASE_INPUT_WC] = t1 - t0
            # The flush rides the word count's live workers; a downgrade
            # would discard their resident state, so no replay here.
            scores = run_phase(
                PHASE_TRANSFORM,
                fused.backend,
                lambda be: tfidf.transform_resident(fused),
                replayable=False,
            )
        else:
            def compute_wc(texts):
                return run_phase(
                    PHASE_INPUT_WC,
                    backend_for(wc_plan),
                    lambda be: tfidf.wordcount.run(
                        texts, backend=be, grain=wc_plan.grain
                    ),
                )

            if session is not None:
                wc = session.wordcount(
                    tfidf.wordcount,
                    compute_all=lambda: compute_wc(docs),
                    compute_subset=compute_wc,
                )
            else:
                wc = compute_wc(docs)
            t1 = time.perf_counter()
            seconds[PHASE_INPUT_WC] = t1 - t0

            if tr_plan.tiled:
                from repro.tiles.store import TileStore

                run_budget = (
                    plan.memory_budget
                    if plan.memory_budget is not None
                    else memory_budget
                )
                tile_store = TileStore(
                    memory_budget=run_budget, stats=primary.ipc
                )

                def compute_tr_tiled():
                    tile_docs = (
                        _tile_docs(wc, run_budget)
                        if run_budget is not None
                        else None
                    )
                    return run_phase(
                        PHASE_TRANSFORM,
                        backend_for(tr_plan),
                        lambda be: tfidf.transform_wordcount_tiled(
                            wc, tile_store, backend=be,
                            grain=tr_plan.grain, tile_docs=tile_docs,
                        ),
                    )

                if session is not None:
                    scores = session.transform_tiled(
                        tfidf, wc, tile_store, compute_all=compute_tr_tiled
                    )
                else:
                    scores = compute_tr_tiled()
            else:
                def compute_tr():
                    return run_phase(
                        PHASE_TRANSFORM,
                        backend_for(tr_plan),
                        lambda be: tfidf.transform_wordcount(
                            wc, backend=be, grain=tr_plan.grain
                        ),
                    )

                if session is not None:
                    scores = session.transform(
                        tfidf,
                        wc,
                        compute_all=compute_tr,
                        compute_rows=lambda chunks: run_phase(
                            PHASE_TRANSFORM,
                            backend_for(tr_plan),
                            lambda be: _transform_chunks(be, chunks),
                        ),
                    )
                else:
                    scores = compute_tr()
        t2 = time.perf_counter()
        seconds[PHASE_TRANSFORM] = t2 - t1

        def compute_km():
            return run_phase(
                PHASE_KMEANS,
                backend_for(km_plan),
                lambda be: kmeans.fit(scores.matrix, backend=be),
            )

        if session is not None:
            clusters = session.kmeans_fit(compute_km)
        else:
            clusters = compute_km()
        t3 = time.perf_counter()
        seconds[PHASE_KMEANS] = t3 - t2
    finally:
        if trace:
            primary.spans.end_run()
        for be in created:
            be.close()
        if session is not None:
            session.finish()
        if run_ledger is not None and sys.exc_info()[1] is not None:
            run_ledger.record_failed_run(
                anchor=anchor,
                phase_seconds=seconds,
                failed_step=current_step["name"],
                error=sys.exc_info()[1],
                backend="planned",
                kind="planned",
                n_docs=len(docs),
            )

    run_trace: RunTrace | None = None
    if trace:
        run_trace = RunTrace.from_recorder(
            primary.spans,
            phase_wall_s=dict(seconds),
            backend_name="planned",
            workers=max(be.workers for be in created),
        )

    result = RealRunResult(
        tfidf=scores,
        kmeans=clusters,
        phase_seconds=seconds,
        backend_name="planned",
        ipc=primary.ipc.snapshot(),
        trace=run_trace,
        quarantine=primary.quarantine if primary.quarantine else None,
        downgrades=downgrades,
        plan=plan,
        plan_seconds=plan_seconds,
        cache=session.snapshot() if session is not None else None,
        tiles=_spill_snapshot(scores),
    )
    if run_ledger is not None:
        result.ledger = run_ledger.record_run(
            result,
            anchor=anchor,
            kind="planned",
            config={
                "trace": trace,
                "degrade": degrade,
                "cached": session is not None,
                "memory_budget": memory_budget,
            },
        )
    if observe_store is not None and observe:
        # Keep learning from whatever executed: cached phases ran no
        # tasks (no spans, no IPC bytes), so their constants are left
        # untouched; executed phases sharpen the model for the next plan.
        observe_store.observe_run(result, n_docs=len(docs))
        if isinstance(calibration, str):
            observe_store.save(calibration)
    return result
