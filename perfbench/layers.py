"""The traced pass: per-layer metrics from benchmark-side spans.

Two parts, both over the workload's own corpus:

* **Traced ops** — the workload's op, issued untraced, then with spans
  around ``make_backend`` / ``run_pipeline`` / ``close``, then
  *decomposed*: the same request issued layer by layer through public
  calls (word count, transform, k-means on the workload's backend). The
  decomposed spans over the real op's wall is ``trace.coverage`` — the
  sum-back-to-wall check; spanned over unspanned is the benchmark's own
  ``trace.overhead_ratio``.
* **Layer probes** — one span per call into each layer (tokenizer, the
  two dictionary kinds an op can run on, matrix assembly, pool spawn, the read pool, tile
  write/read/verify, cache fingerprint/put/get, planner, ledger, journal,
  daemon), plus one whole op per configuration a ratio needs (processes,
  traced, streamed+tiled, cold and warm cache, planned), each checked
  against the reference digest. Every workload emits every metric, so a
  layer's cost can be read off beside any workload's end-to-end number.

Fields marked *(p)* in the README are read from the program's public
result fields, not timed here.
"""

from __future__ import annotations

import os
import resource
import statistics
from types import SimpleNamespace

import numpy as np

from repro.cache import CacheStore, CorpusFingerprint, PipelineCache
from repro.core.pipeline import run_pipeline
from repro.dicts import count_tokens, make_dict
from repro.exec.process import make_backend
from repro.io import FsStorage, corpus_stream, load_corpus, store_corpus
from repro.obs import RunLedger, WallAnchor, read_ledger
from repro.ops import TfIdfOperator
from repro.plan import AdaptivePlanner, CalibrationStore
from repro.serve import JobJournal, read_journal, replay
from repro.sparse import CsrMatrix
from repro.text import Corpus, Tokenizer
from repro.tiles import TileStore, open_tile

from digest import output_digest
from spans import NullRecorder, SpanRecorder
from workloads import (
    KMEANS_ITERS, SERVE_CLIENTS, TRACED_OPS, Daemon, closed_loop,
    one_batch_op, one_serve_op, operators, release,
)

#: The dictionary kinds an op can run on: the operators' default and the
#: planner's alternative (``repro.dicts.factory.PLANNER_KINDS``).
DICT_KINDS = ("map", "unordered_map")
LEDGER_APPENDS = 20
JOURNAL_APPENDS = 200
#: Serve probes run over at most this many documents of the workload's
#: corpus (the size of ``serve-closed``), so a job stays a fraction of a
#: second on every workload.
SERVE_PROBE_DOCS = 234
SERVE_PROBE_JOBS_1 = 5
SERVE_PROBE_JOBS_2 = 8


def _dir_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total


class Pass:
    """State of one traced pass: recorder, metrics, verified ops."""

    def __init__(self, ctx, cfg: dict) -> None:
        self.ctx = ctx
        self.cfg = cfg
        self.reference = cfg["reference"]
        self.rec = SpanRecorder()
        self.metrics: dict[str, dict] = {}
        #: Every op whose output was checked (attempted / failed counts).
        self.ops: list[dict] = []

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def whole_op(self, label: str, **options):
        """One verified whole op over the in-memory corpus ->
        ``(seconds, result)``; the caller releases ``result``."""
        backend_name = options.pop("backend", "sequential")
        workers = options.pop("workers", 1)
        planned = options.get("plan") is not None
        tfidf, kmeans = operators(planned)
        source = options.pop("source", self.ctx.corpus)
        with self.rec.span(f"probe.op.{label}") as span:
            if planned:
                result = run_pipeline(
                    source, tfidf=tfidf, kmeans=kmeans, **options
                )
            else:
                backend = make_backend(backend_name, workers)
                try:
                    result = run_pipeline(
                        source, backend=backend, tfidf=tfidf, kmeans=kmeans,
                        **options,
                    )
                finally:
                    backend.close()
        digest = output_digest(result)
        ok = digest == self.reference["digest"]
        self.ops.append({
            "seconds": span.seconds, "ok": ok, "digest": digest,
            "error": None if ok else f"probe op {label}: wrong digest",
        })
        return span.seconds, result


# -- part 1: the workload's own op, spanned and decomposed -----------------------


def decomposed_op(p: Pass, op_id: str, plan_phases, tile_rows) -> dict:
    """The workload's request issued layer by layer -> op record.

    Same backend, same input path (streamed, tiled) and same operators
    as the real op, with nothing cached: the spans under ``op.decomposed``
    are the layer terms that should sum back to the op's wall time.
    """
    ctx, rec, w = p.ctx, p.rec, p.ctx.workload
    backend_name, workers = w.backend, w.workers
    tfidf, kmeans = operators()
    if plan_phases:
        wc_plan = plan_phases["input+wc"]
        backend_name, workers = wc_plan["backend"], wc_plan["workers"]
        tfidf = TfIdfOperator(
            wc_dict_kind=wc_plan["dict_kind"],
            transform_dict_kind=plan_phases["transform"]["dict_kind"],
        )
    with rec.span("op.decomposed", op_id) as top:
        if w.served:
            with rec.span("io.load_corpus"):
                corpus = load_corpus(FsStorage(ctx.corpus_dir), "")
        else:
            corpus = ctx.corpus
        with rec.span("exec.make_backend"):
            backend = make_backend(backend_name, workers)
        try:
            if w.cache:
                with rec.span("cache.fingerprint"):
                    CorpusFingerprint.from_docs(list(corpus))
            source = corpus
            if w.read_workers:
                source = corpus_stream(
                    FsStorage(ctx.corpus_dir), workers=w.read_workers
                )
            with rec.span("ops.wordcount"):
                wc = tfidf.wordcount.run(source, backend=backend)
            with rec.span("ops.transform"):
                if w.tiled:
                    store = TileStore(memory_budget=ctx.memory_budget)
                    scores = tfidf.transform_wordcount_tiled(
                        wc, store, backend=backend, tile_docs=tile_rows
                    )
                else:
                    scores = tfidf.transform_wordcount(wc, backend=backend)
            with rec.span("ops.kmeans"):
                clusters = kmeans.fit(scores.matrix, backend=backend)
        finally:
            with rec.span("exec.close"):
                backend.close()
    result = SimpleNamespace(tfidf=scores, kmeans=clusters)
    try:
        digest = output_digest(result)
    finally:
        release(result)
    ok = digest == p.reference["digest"]
    layers = {span.name: span.seconds for span in rec.children(top)}
    return {
        "seconds": top.seconds, "ok": ok, "digest": digest, "layers": layers,
        "kmeans_iters": clusters.n_iters,
        "error": None if ok else f"decomposed op {op_id}: wrong digest",
    }


def traced_ops(p: Pass) -> None:
    """Untraced / spanned / decomposed, ``TRACED_OPS`` times over."""
    ctx, cfg, w = p.ctx, p.cfg, p.ctx.workload
    null = NullRecorder()
    n_ops = 1 if cfg["selftest"] else TRACED_OPS
    clients_jobs = 2 * SERVE_CLIENTS

    def real(rec, label: str) -> list[dict]:
        if w.served:
            return closed_loop(
                ctx, p.reference, 0.0, clients_jobs, SERVE_CLIENTS, label,
                op=lambda c, job, ref: one_serve_op(c, job, ref, rec),
            )
        return [one_batch_op(ctx, rec, p.reference, op_id=label)]

    p.ops.extend(real(null, "warm"))
    plain: list[dict] = []
    spanned: list[dict] = []
    decomposed: list[dict] = []
    for index in range(n_ops):
        plain.extend(real(null, f"plain{index}"))
        spanned.extend(real(p.rec, f"op{index}"))
        last = spanned[-1]
        decomposed.append(decomposed_op(
            p, f"decomposed{index}", last.get("plan_phases"),
            last.get("tile_rows"),
        ))
    p.ops.extend(plain + spanned + decomposed)

    real_s = statistics.median([op["seconds"] for op in spanned])
    compute = 0.0
    for layer in ("ops.wordcount", "ops.transform", "ops.kmeans"):
        seconds = statistics.median([d["layers"][layer] for d in decomposed])
        p.put(layer + "_s", seconds, "s")
        compute += seconds
    layer_sum = statistics.median([sum(d["layers"].values()) for d in decomposed])
    p.put("ops.kmeans_iters", decomposed[-1]["kmeans_iters"], "count")
    p.put("core.driver_overhead_s", real_s - compute, "s")
    p.put("trace.coverage", layer_sum / real_s, "ratio")
    p.put("trace.overhead_ratio",
          real_s / statistics.median([op["seconds"] for op in plain]), "ratio")


# -- part 2: layer probes --------------------------------------------------------


def probe_text_dicts(p: Pass) -> None:
    tokenizer = Tokenizer()
    with p.rec.span("text.tokenize") as span:
        tokenized = [tokenizer.tokenize(doc.text) for doc in p.ctx.corpus]
    p.put("text.tokenize_s", span.seconds, "s")
    p.put("text.tokens", sum(t.n_tokens for t in tokenized), "count")
    increments = 0
    for kind in DICT_KINDS:
        with p.rec.span(f"dicts.count.{kind}") as span:
            increments = sum(
                count_tokens(t.tokens, make_dict(kind)) for t in tokenized
            )
        p.put(f"dicts.count_s.{kind}", span.seconds, "s")
    p.put("dicts.increments", increments, "count")


def probe_sparse(p: Pass, base) -> None:
    """The two ``CsrMatrix`` calls on the op's path: ``from_rows`` (the
    transform's assembly) and one ``iter_rows`` sweep (k-means'
    preparation). ``nearest_centroid`` is not probed: k-means assigns
    through its own kernels, so no end-to-end metric could move with it."""
    matrix = base.tfidf.matrix
    with p.rec.span("sparse.iter_rows") as span:
        rows = list(matrix.iter_rows())
    p.put("sparse.iter_rows_s", span.seconds, "s")
    with p.rec.span("sparse.from_rows") as span:
        CsrMatrix.from_rows(rows, n_cols=matrix.n_cols)
    p.put("sparse.from_rows_s", span.seconds, "s")
    p.put("sparse.matrix_bytes", matrix.resident_bytes(), "bytes")
    p.put("ops.vocab_size", matrix.n_cols, "count")
    p.put("ops.matrix_nnz", matrix.nnz, "count")


def probe_exec(p: Pass, base_s: float) -> None:
    with p.rec.span("exec.pool_spawn") as span:
        backend = make_backend("processes", 2)
        try:
            backend.map(abs, [1, 2])
        finally:
            backend.close()
    p.put("exec.pool_spawn_s", span.seconds, "s")

    procs_s, result = p.whole_op("processes", backend="processes", workers=2)
    ipc = result.ipc["total"]
    p.put("exec.task_pickle_bytes", ipc["task_pickle_bytes"], "bytes")
    p.put("exec.result_pickle_bytes", ipc["result_pickle_bytes"], "bytes")
    p.put("exec.shm_segments", ipc["segments"], "count")
    p.put("exec.speedup_vs_seq", base_s / procs_s, "ratio")
    # Pool workers are the only children reaped so far (a daemon, if any,
    # is reaped when the pass ends), so this is their high-water mark.
    p.put("exec.worker_peak_rss_mb",
          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB")

    traced_s, result = p.whole_op("traced", trace=True)
    phases = result.trace.phase_summary()
    wall = sum(stats.wall_s for stats in phases.values())
    p.put("exec.utilization",
          sum(s.utilization * s.wall_s for s in phases.values()) / wall, "ratio")
    p.put("exec.trace_overhead_ratio", traced_s / base_s, "ratio")


def probe_io_tiles(p: Pass, base) -> None:
    ctx = p.ctx
    storage = FsStorage(ctx.corpus_dir)
    for workers, name in ((2, "io.read_s"), (1, "io.read_s.w1")):
        stream = corpus_stream(storage, workers=workers)
        with p.rec.span(name) as span:
            for _doc in stream:
                pass
        p.put(name, span.seconds, "s")
    p.put("io.read_bytes", stream.bytes_read, "bytes")
    with p.rec.span("io.load_corpus") as span:
        load_corpus(storage, "")
    p.put("io.load_corpus_s", span.seconds, "s")

    # One streamed + tiled op: the read phase and the tile counters *(p)*.
    _s, result = p.whole_op(
        "oocore", source=corpus_stream(storage, workers=2),
        memory_budget=ctx.memory_budget,
    )
    try:
        tiles = result.tiles
        tile_rows = result.tfidf.matrix.manifest.tiles[0].n_rows
        p.put("io.read_blocked_s", result.phase_seconds["read"], "s")
        p.put("tiles.reads", tiles["reads"], "count")
        p.put("tiles.evictions", tiles["evictions"], "count")
        p.put("tiles.peak_pinned_bytes", tiles["peak_pinned_bytes"], "bytes")
        if tiles["peak_pinned_bytes"] > ctx.memory_budget:
            p.ops[-1].update(ok=False, error="probe op oocore: budget not held")
    finally:
        release(result)

    # The reference matrix through the tile plane, in the run's tile size.
    indptr, indices, data = base.tfidf.matrix.as_arrays()
    n_rows, n_cols = base.tfidf.matrix.n_rows, base.tfidf.matrix.n_cols
    chunks = []
    for start in range(0, n_rows, tile_rows):
        stop = min(n_rows, start + tile_rows)
        lo, hi = int(indptr[start]), int(indptr[stop])
        local = indptr[start:stop + 1] - lo
        norms = np.array([
            float(np.dot(data[a:b], data[a:b]))
            for a, b in zip(indptr[start:stop], indptr[start + 1:stop + 1])
        ])
        chunks.append((start, local, indices[lo:hi], data[lo:hi], norms))
    store = TileStore(memory_budget=ctx.memory_budget)
    try:
        with p.rec.span("tiles.write") as span:
            for start, local, idx, val, norms in chunks:
                store.append(start, n_cols, local, idx, val, norms)
            manifest = store.seal(n_cols)
        p.put("tiles.write_s", span.seconds, "s")
        p.put("tiles.write_bytes", manifest.total_bytes, "bytes")
        reader = store.reader(manifest)
        with p.rec.span("tiles.read") as span:
            for index in range(len(manifest.tiles)):
                float(reader.tile(index).data.sum())  # page the tile in
        p.put("tiles.read_s", span.seconds, "s")
        with p.rec.span("tiles.verify") as span:
            for meta in manifest.tiles:
                open_tile(manifest.path(meta), verify=True).close()
        p.put("tiles.verify_s", span.seconds, "s")
    finally:
        store.close()


def probe_cache(p: Pass, base_s: float) -> None:
    ctx = p.ctx
    docs = list(ctx.corpus)
    with p.rec.span("cache.fingerprint") as span:
        CorpusFingerprint.from_docs(docs)
    p.put("cache.fingerprint_s", span.seconds, "s")

    cold_dir = os.path.join(ctx.scratch, "probe_cache")
    cold_s, result = p.whole_op("cache-cold", cache=cold_dir)
    p.put("cache.stored", result.cache["stored"], "count")
    p.put("cache.store_overhead_s", cold_s - base_s, "s")
    p.put("cache.dir_bytes", _dir_bytes(cold_dir), "bytes")
    warm_s, result = p.whole_op("cache-warm", cache=cold_dir)
    p.put("cache.hits", result.cache["hits"], "count")
    p.put("cache.warm_speedup", base_s / warm_s, "ratio")

    # The three phase payloads through the store alone: read them back
    # from the filled directory, write them into an empty one.
    tfidf, kmeans = operators()
    session = PipelineCache(cold_dir).begin_run(docs, tfidf, kmeans)
    keys = (session.wc_key, session.tr_key, session.km_key)
    with p.rec.span("cache.get") as span:
        payloads = [session.store.get(key) for key in keys]
    p.put("cache.get_s", span.seconds, "s")
    if any(entry is None for entry in payloads):
        raise RuntimeError("cache probe: a phase payload is missing")
    empty = CacheStore(os.path.join(ctx.scratch, "probe_cache_put"))
    with p.rec.span("cache.put") as span:
        stored = sum(
            empty.put(key, entry[0]) for key, entry in zip(keys, payloads)
        )
    p.put("cache.put_s", span.seconds, "s")
    p.put("cache.put_bytes", stored, "bytes")
    with p.rec.span("cache.flush") as span:
        empty.flush()
    p.put("cache.flush_s", span.seconds, "s")


def probe_plan(p: Pass, base_s: float) -> None:
    ctx = p.ctx
    with p.rec.span("plan.plan") as span:
        plan = AdaptivePlanner(ctx.calibration).plan(
            n_docs=len(ctx.corpus), kmeans_iters=KMEANS_ITERS
        )
    p.put("plan.plan_s", span.seconds, "s")
    planned_s, _result = p.whole_op(
        "planned", plan="auto", calibration=ctx.calibration, observe=False
    )
    p.put("plan.model_error_ratio", plan.predicted_total_s / planned_s, "ratio")
    p.put("plan.vs_fixed_ratio", planned_s / base_s, "ratio")
    with p.rec.span("plan.probe") as span:
        CalibrationStore.probe(ctx.corpus)
    p.put("plan.probe_s", span.seconds, "s")


def probe_obs(p: Pass, base) -> None:
    root = os.path.join(p.ctx.scratch, "probe_ledger")
    ledger = RunLedger(root)
    appends = []
    for _ in range(LEDGER_APPENDS):
        with p.rec.span("obs.ledger_append") as span:
            ledger.record_run(base, anchor=WallAnchor.capture())
        appends.append(span.seconds)
    p.put("obs.ledger_append_s", statistics.median(appends), "s")
    with p.rec.span("obs.ledger_read") as span:
        records, problems = read_ledger(root)
    if problems or not records:
        raise RuntimeError(f"ledger probe: {problems or 'no records'}")
    p.put("obs.ledger_read_s", span.seconds, "s")


def probe_serve(p: Pass) -> None:
    ctx = p.ctx
    journal = JobJournal(os.path.join(ctx.scratch, "probe_journal"))
    appends = []
    for index in range(JOURNAL_APPENDS):
        with p.rec.span("serve.journal_append") as span:
            journal.job_event(f"probe-{index}", "submitted", spec={})
        appends.append(span.seconds)
    p.put("serve.journal_append_s", statistics.median(appends), "s")

    # Jobs over (a prefix of) the workload's corpus, through a daemon.
    probe = SimpleNamespace(daemon=ctx.daemon, corpus_dir=ctx.corpus_dir)
    reference = p.reference
    if len(ctx.corpus) > SERVE_PROBE_DOCS:
        probe.corpus_dir = os.path.join(ctx.scratch, "probe_serve_corpus")
        prefix = Corpus(name="serve-probe")
        for doc in list(ctx.corpus)[:SERVE_PROBE_DOCS]:
            prefix.add(doc.name, doc.text)
        store_corpus(FsStorage(probe.corpus_dir), prefix)
        tfidf, kmeans = operators()
        backend = make_backend("sequential", 1)
        try:
            expected = run_pipeline(
                load_corpus(FsStorage(probe.corpus_dir), ""),
                backend=backend, tfidf=tfidf, kmeans=kmeans,
            )
        finally:
            backend.close()
        reference = {"digest": output_digest(expected)}
    own_daemon = probe.daemon is None
    if own_daemon:
        probe.daemon = Daemon(
            os.path.join(ctx.scratch, "probe_serve_state"), p.cfg["src_root"]
        )
    try:
        p.put("serve.daemon_start_s", probe.daemon.start_s, "s")
        one_serve_op(probe, "probe-warm", reference)
        jobs_1, jobs_2 = SERVE_PROBE_JOBS_1, SERVE_PROBE_JOBS_2
        if p.cfg["selftest"]:
            jobs_1, jobs_2 = 2, 2 * SERVE_CLIENTS
        single = [
            one_serve_op(probe, f"probe-one-{i}", reference, p.rec)
            for i in range(jobs_1)
        ]
        double = closed_loop(
            probe, reference, 0.0, jobs_2, SERVE_CLIENTS,
            "probe-two",
            op=lambda c, job, ref: one_serve_op(c, job, ref, p.rec),
        )
        if reference is not p.reference:
            for op in single + double:
                # Not the workload's corpus: keep its digest out of theirs.
                op["prefix_digest"] = op.pop("digest", None)
        p.ops.extend(single + double)
        state = probe.daemon.state
        with p.rec.span("serve.journal_replay") as span:
            records, problems = read_journal(state)
            views = replay(records)
        if problems:
            raise RuntimeError(f"journal probe: {problems}")
        p.put("serve.journal_replay_s", span.seconds, "s")
    finally:
        if own_daemon:
            probe.daemon.stop()
    service = statistics.median([op["service_s"] for op in single if op["ok"]])
    p.put("serve.service_s", service, "s")
    p.put("serve.overhead_s",
          statistics.median([op["seconds"] for op in single]) - service, "s")
    stamps: dict[str, dict[str, float]] = {}
    for record in records:
        if record.get("kind") == "job":
            stamps.setdefault(record["job_id"], {}).setdefault(
                record["event"], record["ts"]
            )
    waits = [
        events["running"] - events["admitted"]
        for job, events in stamps.items()
        if job.startswith("probe-two") and "running" in events
    ]
    p.put("serve.queue_wait_s", statistics.median(waits), "s")
    p.put("serve.op_s_p75",
          statistics.quantiles([op["seconds"] for op in double], n=4)[2], "s")
    shed = sum(1 for view in views.values() if view.state == "shed")
    p.put("serve.shed", shed, "count")
    if shed:
        p.ops.append({"seconds": None, "ok": False,
                      "error": f"serve probe: {shed} job(s) shed"})


def traced_pass(ctx, cfg: dict) -> dict:
    p = Pass(ctx, cfg)
    traced_ops(p)
    with p.rec.span("probe"):
        base_s, base = p.whole_op("baseline")
        probe_text_dicts(p)
        probe_sparse(p, base)
        probe_exec(p, base_s)
        probe_io_tiles(p, base)
        probe_cache(p, base_s)
        probe_plan(p, base_s)
        probe_obs(p, base)
        probe_serve(p)
    return {"ops": p.ops, "metrics": p.metrics, "spans": p.rec.as_dicts()}
