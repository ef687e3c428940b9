"""Command-line interface: the paper's operators as separate binaries.

The discrete workflow of §3.3 runs each operator as its own executable
communicating through files; this CLI makes that literal::

    python -m repro generate --profile mix --scale 0.01 --out data/corpus
    python -m repro tfidf    --input data/corpus --output data/scores.arff
    python -m repro kmeans   --input data/scores.arff --output data/clusters.txt

or fused in one process, on a fixed backend or a planned one::

    python -m repro pipeline --input data/corpus --backend threads --workers 4
    python -m repro pipeline --input data/corpus --plan auto --explain-plan

or as a long-lived service with a durable job queue (``docs/serving.md``)::

    python -m repro serve run    --state data/serve
    python -m repro serve submit --state data/serve --input data/corpus --wait

All commands operate on real files through :class:`repro.io.FsStorage`,
so intermediates (the ARFF scores) can be inspected or loaded into WEKA.
These are the engine's commands; the simulator's ``sim`` commands live
beside the simulator, and ``repro/__main__.py`` routes between the two.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core.pipeline import run_pipeline
from repro.errors import CacheError, ConfigurationError, OperatorError
from repro.exec.process import BACKEND_CHOICES, _BACKEND_ALIASES, make_backend
from repro.exec.resilience import POISON_MODES, ResilienceConfig, RetryPolicy
from repro.io.arff import read_sparse_arff, write_sparse_arff
from repro.io.corpus_io import store_corpus
from repro.io.parallel_read import corpus_stream
from repro.io.storage import FsStorage
from repro.obs import analytics
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text.tokenizer import Tokenizer

__all__ = ["main", "build_parser", "run_command"]

#: ``generate --profile`` names -> the profile's name in ``repro.text.synth``.
_PROFILES = {"mix": "MIX_PROFILE", "nsf-abstracts": "NSF_ABSTRACTS_PROFILE"}


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    """The backend and its policy, shared by tfidf/kmeans/pipeline."""
    parser.add_argument(
        "--backend",
        choices=list(BACKEND_CHOICES) + sorted(_BACKEND_ALIASES),
        default="sequential",
        help="real execution backend: threads overlap the kernels' "
        "GIL-releasing numpy calls with no pickling; processes bypass the "
        "GIL at the cost of pickled IPC (see docs/backends.md)",
    )
    parser.add_argument(
        "--workers", type=int, default=max(1, os.cpu_count() or 1),
        help="worker count for threads/processes backends",
    )
    parser.add_argument(
        "--shm", action=argparse.BooleanOptionalAction, default=None,
        help="share large arrays with process workers via POSIX shared "
        "memory (default: on where available; --no-shm forces pickled IPC)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run a failed task up to N times before giving up "
        "(default: 0 = fail fast); see docs/resilience.md",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base backoff before the first retry (doubles per attempt, "
        "with deterministic jitter)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task deadline; a hung process worker is killed and the "
        "task retried on a fresh pool",
    )
    parser.add_argument(
        "--phase-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline for each pipeline phase as a whole",
    )
    parser.add_argument(
        "--on-poison", choices=list(POISON_MODES), default="raise",
        help="what to do with a task that exhausts its retries: abort the "
        "run (raise) or isolate the poisoned document(s) and finish the "
        "rest (quarantine)",
    )


def _resilience(args) -> ResilienceConfig:
    """The run's fault-tolerance policy; the flags' defaults give the
    backends' default (no retries, no deadlines, fail fast)."""
    if args.retries < 0:
        raise ConfigurationError(f"--retries must be >= 0, got {args.retries}")
    return ResilienceConfig(
        retry=RetryPolicy(
            max_attempts=args.retries + 1, backoff_base_s=args.retry_backoff
        ),
        task_timeout_s=args.task_timeout,
        phase_timeout_s=args.phase_timeout,
        on_poison=args.on_poison,
    )


def _backend(args, policy: ResilienceConfig):
    """The backend an invocation asked for (caller must close it)."""
    return make_backend(args.backend, args.workers, shm=args.shm,
                        resilience=policy)


def _add_tfidf_args(parser: argparse.ArgumentParser) -> None:
    """The corpus directory, the parallel-input flags (paper §3.2) and
    the TF/IDF knobs, shared by tfidf/pipeline."""
    parser.add_argument("--input", "--input-dir", dest="input", required=True,
                        help="corpus directory")
    parser.add_argument("--min-df", type=int, default=1)
    parser.add_argument("--stopwords", action="store_true")
    parser.add_argument(
        "--read-workers", type=int, default=1,
        help="concurrent file-read threads (1 = serial input)",
    )
    parser.add_argument(
        "--prefetch", type=int, default=None,
        help="max documents in flight ahead of compute, read in batches "
        "of up to 32 per reader task (default: 128x read workers)",
    )


def _stream(args, policy: ResilienceConfig):
    """Bounded-prefetch document stream over the input directory; a
    transient read error is retried under the run's policy."""
    stream = corpus_stream(
        FsStorage(args.input),
        "",
        workers=args.read_workers,
        prefetch=args.prefetch,
        name=os.path.basename(args.input),
        retry=policy.retry,
    )
    if not len(stream):
        raise FileNotFoundError(f"no documents found in {args.input}")
    return stream


def _tfidf(args) -> TfIdfOperator:
    return TfIdfOperator(
        tokenizer=Tokenizer(drop_stopwords=args.stopwords), min_df=args.min_df
    )


def _add_kmeans_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clusters", type=int, default=8)
    parser.add_argument("--max-iters", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--init", choices=["spread", "kmeans++"],
                        default="spread")


def _kmeans(args) -> KMeansOperator:
    return KMeansOperator(
        n_clusters=args.clusters,
        max_iters=args.max_iters,
        seed=args.seed,
        init=args.init,
    )


def _write_arff(path: str, scores) -> str:
    document = write_sparse_arff("tfidf", scores.vocabulary,
                                 scores.matrix.iter_rows())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return document


def _write_assignments(path: str, clusters) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc_id, cluster in enumerate(clusters.assignments):
            handle.write(f"{doc_id}\t{cluster}\n")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the engine's subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Operator and workflow optimization for analytics "
        "(MEDAL/EDBT 2016 reproduction)",
        epilog="The simulated node's commands run as "
        "'sim {workflow,plan,analyze}'; 'sim --help' lists them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus")
    gen.add_argument("--profile", choices=sorted(_PROFILES), default="mix")
    gen.add_argument("--scale", type=float, default=0.01)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")

    tfidf = sub.add_parser("tfidf", help="TF/IDF over a corpus directory")
    _add_tfidf_args(tfidf)
    tfidf.add_argument("--output", required=True, help="ARFF output file")
    _add_backend_args(tfidf)

    kmeans = sub.add_parser("kmeans", help="K-means over an ARFF file")
    kmeans.add_argument("--input", required=True, help="ARFF input file")
    kmeans.add_argument("--output", required=True, help="assignments file")
    _add_kmeans_args(kmeans)
    _add_backend_args(kmeans)

    pipe = sub.add_parser(
        "pipeline",
        help="run the fused TF/IDF -> K-means workflow for real "
        "(wall clock; parallel via --backend threads or processes)",
    )
    _add_tfidf_args(pipe)
    pipe.add_argument("--output", default=None,
                      help="assignments file (default: stdout summary only)")
    pipe.add_argument("--arff", default=None,
                      help="also write the TF/IDF scores as ARFF")
    _add_kmeans_args(pipe)
    pipe.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record per-task spans and write Chrome trace-event JSON "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    pipe.add_argument(
        "--degrade", action="store_true",
        help="fall back to a weaker backend (processes -> threads -> "
        "sequential) instead of failing when the worker pool cannot be "
        "kept alive",
    )
    pipe.add_argument(
        "--plan", choices=["fixed", "auto"], default="fixed",
        help="fixed = run every phase on the --backend given; auto = let "
        "the measured-cost planner pick each phase's backend, workers, "
        "shm and tiling (see docs/planner.md). Under auto, --backend "
        "(with --workers and --shm) is still the run's own backend: it "
        "runs every phase planned on that same configuration, and every "
        "backend the plan builds takes its --retries, --task-timeout, "
        "--phase-timeout and --on-poison policy",
    )
    pipe.add_argument(
        "--calibration", default=None, metavar="PATH",
        help="calibration store for --plan auto (JSON, written back after "
        "each planned run; default: probe ~2%% of the corpus)",
    )
    pipe.add_argument(
        "--explain-plan", action="store_true",
        help="with --plan auto, print the rejected candidate "
        "configurations and the cost terms that sank them",
    )
    pipe.add_argument(
        "--cache", default=None, metavar="DIR",
        help="phase-level result cache directory: serve unchanged phases "
        "from disk (bit-identical) and recompute only changed document "
        "shards (see docs/caching.md)",
    )
    pipe.add_argument(
        "--cache-max-mb", type=float, default=None, metavar="MB",
        help="evict least-recently-used cache entries beyond this size",
    )
    pipe.add_argument(
        "--cache-ttl", type=float, default=None, metavar="SECONDS",
        help="treat cache entries stored longer ago than this as misses "
        "(expired entries are deleted at lookup)",
    )
    pipe.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="bound the TF/IDF matrix's resident footprint: score tiles "
        "spill to disk and phases stream them chunk-at-a-time, "
        "bit-identically (see docs/data_plane.md); under --plan auto the "
        "planner tiles only when the matrix exceeds the budget",
    )
    pipe.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="append one wall-anchored record per workflow step to the "
        "persistent run ledger in DIR; aggregate the history with "
        "'repro analytics' (see docs/ledger.md)",
    )
    _add_backend_args(pipe)

    aparser = sub.add_parser(
        "analytics",
        help="aggregate the run ledger: Workflow-DNA heatmap, per-step "
        "history, regression flags, exports, calibration replay",
    )
    asub = aparser.add_subparsers(dest="action", required=True)

    def _ledger_arg(p):
        p.add_argument("--ledger", required=True, metavar="DIR",
                       help="ledger directory written by pipeline --ledger")

    aheat = asub.add_parser(
        "heatmap", help="per-step p50/p95, failure rate, bytes, cache hits"
    )
    _ledger_arg(aheat)
    aheat.add_argument("--json", action="store_true",
                       help="emit JSON instead of the terminal table")

    asteps = asub.add_parser("steps", help="per-run history of each step")
    _ledger_arg(asteps)
    asteps.add_argument("--step", default=None,
                        help="restrict to one step (default: all)")
    asteps.add_argument("--json", action="store_true")

    aregr = asub.add_parser(
        "regressions",
        help="flag steps whose latest duration left their trailing "
        "baseline (exit 1 when any step regressed)",
    )
    _ledger_arg(aregr)
    aregr.add_argument("--tolerance", type=float, metavar="FRAC",
                       default=analytics.DEFAULT_TOLERANCE,
                       help="relative headroom over the baseline p50 "
                       "(default %(default)s)")
    aregr.add_argument("--min-runs", type=int, metavar="N",
                       default=analytics.DEFAULT_MIN_RUNS,
                       help="good samples required before flagging "
                       "(default %(default)s)")
    aregr.add_argument("--json", action="store_true")

    aexp = asub.add_parser(
        "export", help="export the history (json, prom, chrome, html)"
    )
    _ledger_arg(aexp)
    aexp.add_argument("--format", choices=["json", "prom", "chrome", "html"],
                      default="json")
    aexp.add_argument("--out", default=None, metavar="PATH",
                      help="output file (default: stdout)")

    arecal = asub.add_parser(
        "recalibrate",
        help="replay ledgered span/IPC totals into a calibration store "
        "so planning sharpens from history (see docs/planner.md)",
    )
    _ledger_arg(arecal)
    arecal.add_argument("--calibration", required=True, metavar="PATH",
                        help="calibration store JSON to update in place "
                        "(atomic replace)")
    arecal.add_argument("--out", default=None, metavar="PATH",
                        help="write the updated store here instead of "
                        "replacing --calibration")

    serve = sub.add_parser(
        "serve",
        help="pipeline-as-a-service: durable job queue with admission "
        "control, warm pools, and crash recovery (see docs/serving.md)",
    )
    ssub = serve.add_subparsers(dest="action", required=True)

    def _state_arg(p):
        p.add_argument("--state", required=True, metavar="DIR",
                       help="serve state directory (journal, inbox, "
                       "results, heartbeat)")

    srun = ssub.add_parser("run", help="run the daemon (blocks)")
    _state_arg(srun)
    srun.add_argument("--backend", choices=BACKEND_CHOICES, default="threads",
                      help="default execution backend for jobs")
    srun.add_argument("--workers", type=int, default=2)
    srun.add_argument("--executors", type=int, default=1,
                      help="concurrent jobs (one warm pool each)")
    srun.add_argument("--max-depth", type=int, default=8,
                      help="admission: queued-job budget before shedding")
    srun.add_argument("--cost-budget-s", type=float, default=None,
                      help="admission: shed once queued predicted seconds "
                      "exceed this (needs calibration to price jobs)")
    srun.add_argument("--job-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="per-job deadline (phase-granular)")
    srun.add_argument("--max-attempts", type=int, default=3,
                      help="run attempts per job before it is failed")
    srun.add_argument("--max-pool-losses", type=int, default=3,
                      help="worker-pool deaths before the circuit breaker "
                      "trips to drain mode")
    srun.add_argument("--drain-deadline", type=float, default=10.0,
                      metavar="SECONDS",
                      help="grace for in-flight jobs on SIGTERM/drain")
    srun.add_argument("--idle-exit", type=float, default=None,
                      metavar="SECONDS",
                      help="exit after this long with nothing to do "
                      "(test/CI convenience; default: run forever)")
    srun.add_argument("--calibration", default=None, metavar="PATH",
                      help="calibration store to load/observe/save "
                      "(default: <state>/calibration.json)")
    srun.add_argument("--ledger", default=None, metavar="DIR",
                      help="run-ledger directory every job feeds "
                      "(default: <state>/ledger)")
    srun.add_argument("--orphan-policy", choices=["retry", "fail"],
                      default="retry",
                      help="what recovery does with jobs orphaned mid-run")

    ssubmit = ssub.add_parser("submit", help="submit one job")
    _state_arg(ssubmit)
    ssubmit.add_argument("--input", required=True, help="corpus directory")
    ssubmit.add_argument("--clusters", type=int, default=8)
    ssubmit.add_argument("--iters", type=int, default=10)
    ssubmit.add_argument("--seed", type=int, default=0)
    ssubmit.add_argument("--min-df", type=int, default=1)
    ssubmit.add_argument("--backend", default=None, choices=BACKEND_CHOICES,
                         help="override the daemon's default backend")
    ssubmit.add_argument("--workers", type=int, default=None)
    ssubmit.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS", help="per-job deadline")
    ssubmit.add_argument("--job-id", default=None,
                         help="explicit id (idempotent resubmission)")
    ssubmit.add_argument("--wait", action="store_true",
                         help="block until the job reaches a terminal "
                         "state and report it")
    ssubmit.add_argument("--wait-timeout", type=float, default=60.0,
                         metavar="SECONDS")

    sstatus = ssub.add_parser("status", help="job states from the journal")
    _state_arg(sstatus)
    sstatus.add_argument("--job", default=None, help="one job id")
    sstatus.add_argument("--json", action="store_true")

    sdrain = ssub.add_parser(
        "drain", help="ask the daemon to finish in-flight jobs and exit"
    )
    _state_arg(sdrain)

    cache = sub.add_parser(
        "cache", help="manage a result-cache directory (docs/caching.md)"
    )
    csub = cache.add_subparsers(dest="action", required=True)
    cinv = csub.add_parser(
        "invalidate", help="delete cache entries explicitly"
    )
    cinv.add_argument("--cache", required=True, metavar="DIR",
                      help="cache directory (as passed to pipeline --cache)")
    group = cinv.add_mutually_exclusive_group(required=True)
    group.add_argument("--key", default=None, help="delete one entry")
    group.add_argument("--all", action="store_true", dest="all_entries",
                       help="delete every entry")
    group.add_argument("--expired", type=float, default=None,
                       metavar="MAX_AGE_S",
                       help="delete entries stored longer ago than this")

    return parser


def _cmd_generate(args) -> int:
    # The one command that loads the corpus generator.
    from repro.text import synth

    profile = getattr(synth, _PROFILES[args.profile])
    corpus = synth.generate_corpus(profile, scale=args.scale, seed=args.seed)
    storage = FsStorage(args.out)
    cost = store_corpus(storage, corpus)
    print(f"wrote {len(corpus)} documents "
          f"({cost.disk_write_bytes / 1e6:.1f} MB) to {args.out}")
    return 0


def _cmd_tfidf(args) -> int:
    policy = _resilience(args)
    operator = _tfidf(args)
    with _backend(args, policy) as backend:
        result = operator.fit_transform(_stream(args, policy), backend=backend)
    document = _write_arff(args.output, result)
    print(f"wrote {result.matrix.n_rows} x {len(result.vocabulary)} scores "
          f"({len(document) / 1e6:.1f} MB ARFF) to {args.output}")
    return 0


def _cmd_kmeans(args) -> int:
    policy = _resilience(args)
    operator = _kmeans(args)
    with _backend(args, policy) as backend:
        with open(args.input, "r", encoding="utf-8") as handle:
            relation = read_sparse_arff(handle.read())
        result = operator.fit(relation.rows, backend=backend)
    _write_assignments(args.output, result)
    sizes = ", ".join(str(s) for s in result.cluster_sizes())
    print(f"clustered {relation.rows.n_rows} documents into "
          f"{args.clusters} clusters ({result.n_iters} iterations, "
          f"converged={result.converged}); sizes: {sizes}")
    print(f"assignments written to {args.output}")
    return 0


def _cli_cache(args):
    """Result cache from the flags; ``None`` when caching is off."""
    from repro.cache import PipelineCache

    if args.cache is None:
        if args.cache_max_mb is not None:
            raise ConfigurationError("--cache-max-mb requires --cache DIR")
        if args.cache_ttl is not None:
            raise ConfigurationError("--cache-ttl requires --cache DIR")
        return None
    max_bytes = (
        int(args.cache_max_mb * 1e6) if args.cache_max_mb is not None else None
    )
    return PipelineCache(args.cache, max_bytes=max_bytes,
                         max_age_s=args.cache_ttl)


def _cmd_pipeline(args) -> int:
    # Every flag value is checked before the input is opened.
    policy = _resilience(args)
    tfidf, kmeans = _tfidf(args), _kmeans(args)
    cache = _cli_cache(args)
    memory_budget = (
        int(args.memory_budget_mb * 1e6)
        if args.memory_budget_mb is not None
        else None
    )
    if memory_budget is not None and memory_budget <= 0:
        raise ConfigurationError(
            f"--memory-budget-mb must be > 0, got {args.memory_budget_mb}"
        )
    # The run's own backend: every phase's under --plan fixed; under
    # --plan auto, its policy and its slot are the plan's.
    with _backend(args, policy) as backend:
        stream = _stream(args, policy)
        result = run_pipeline(
            stream,
            backend=backend,
            plan="auto" if args.plan == "auto" else None,
            calibration=args.calibration,
            tfidf=tfidf,
            kmeans=kmeans,
            trace=args.trace is not None,
            degrade=args.degrade,
            cache=cache,
            memory_budget=memory_budget,
            ledger=args.ledger,
        )

    if args.arff is not None:
        _write_arff(args.arff, result.tfidf)
    if args.output is not None:
        _write_assignments(args.output, result.kmeans)

    # One serializer feeds every reporting surface (ledger, bench, this
    # summary) — the prints below read the shared record, not the live
    # result fields, so the accounting cannot drift between surfaces.
    record = result.to_record()
    print(f"fused pipeline on backend {record['backend']} "
          f"({stream.n_read} documents via {args.read_workers} read "
          f"worker(s), {len(result.tfidf.vocabulary)} terms):")
    if result.plan is not None:
        print(f"plan: {result.plan.describe()}")
        print(f"  planned in {record['plan_seconds']:.3f}s "
              f"(calibration: {record['plan']['calibration']}; "
              f"predicted {record['plan']['predicted_total_s']:.3f}s)")
        if args.explain_plan:
            print(result.plan.explain())
    for phase, seconds in record["phases"].items():
        print(f"  {phase:>14}: {seconds:9.3f}s")
    print(f"  {'total':>14}: {record['total_s']:9.3f}s")
    total = record["ipc"]["total"]
    print(
        f"IPC: {total['tasks']} tasks, "
        f"{total['task_pickle_bytes'] / 1e6:.2f} MB pickled out / "
        f"{total['result_pickle_bytes'] / 1e6:.2f} MB back, "
        f"{total['segments']} shared segment(s) "
        f"({total['segment_bytes'] / 1e6:.2f} MB), "
        f"{total['broadcasts']} broadcast(s)"
    )
    if total["retries"] or total["timeouts"] or total["pool_restarts"]:
        print(
            f"recovery: {total['retries']} task re-execution(s) "
            f"({total['retry_pickle_bytes'] / 1e6:.2f} MB re-pickled), "
            f"{total['timeouts']} timeout(s), "
            f"{total['pool_restarts']} pool restart(s)"
        )
    for event in record["downgrades"]:
        print(
            f"degraded: {event['from_backend']} -> {event['to_backend']} "
            f"during phase {event['phase']!r} ({event['reason']})"
        )
    if record["quarantine"] is not None:
        q = record["quarantine"]
        docs = ", ".join(str(d) for d in q["doc_ids"])
        print(
            f"quarantined: {q['slices']} poisoned slice(s)"
            + (f"; dropped document id(s): {docs}" if docs else "")
        )
    if record["cache"] is not None:
        c = record["cache"]
        shards_seen = c["shard_hits"] + c["shard_misses"]
        shard_note = (
            f", {c['shard_hits']}/{shards_seen} shard(s) reused"
            if shards_seen
            else ""
        )
        print(
            f"cache: {c['hits']} hit(s), {c['misses']} miss(es)"
            f"{shard_note}; served {c['bytes_saved'] / 1e6:.2f} MB, "
            f"saved {c['seconds_saved']:.3f}s, "
            f"stored {c['stored']} entr{'y' if c['stored'] == 1 else 'ies'}"
            + (" [disabled after quarantine]" if c["disabled"] else "")
        )
    if record["tiles"] is not None:
        t = record["tiles"]
        print(
            f"tiles: {t['tiles']} spilled ({t['tile_bytes'] / 1e6:.2f} MB "
            f"on disk), peak pinned {t['peak_pinned_bytes'] / 1e6:.2f} MB "
            f"of {t['memory_budget'] / 1e6:.2f} MB budget, "
            f"{t['reads']} read(s), {t['evictions']} eviction(s)"
        )
    if result.trace is not None:
        result.trace.write_chrome_trace(args.trace)
        summary = record["trace"]
        line = ", ".join(
            f"{phase} {stats['utilization']:.0%}/{stats['n_workers']}w"
            f" (straggler x{stats['straggler_ratio']:.1f})"
            for phase, stats in summary.items()
        )
        print(f"trace: {len(result.trace.spans)} spans -> {args.trace}; "
              f"utilization: {line}")
    if result.ledger is not None:
        led = result.ledger
        print(
            f"ledger: {led['records']} step record(s) -> {led['dir']} "
            f"(run {led['run_id']}, append {led['append_s'] * 1e3:.1f}ms)"
        )
    print(f"cluster sizes: {result.kmeans.cluster_sizes()} "
          f"({result.kmeans.n_iters} iterations, "
          f"converged={result.kmeans.converged})")
    close = getattr(result.tfidf.matrix, "close", None)
    if close is not None:
        close()  # a tiled matrix owns its spill directory
    return 0


def _analytics_records(args):
    """Load the ledger history, surfacing skipped lines on stderr."""
    from repro.obs.ledger import read_ledger

    records, problems = read_ledger(args.ledger)
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    return records


def _cmd_analytics(args) -> int:
    if args.action == "recalibrate":
        from repro.plan import CalibrationStore

        store = CalibrationStore.load(args.calibration)
        before = {
            phase: constants.compute_ns_per_doc
            for phase, constants in store.phases.items()
        }
        summary = analytics.recalibrate(_analytics_records(args), store)
        out = args.out or args.calibration
        store.save(out)
        print(
            f"recalibrated from {summary['runs_applied']} run(s) "
            f"({summary['runs_skipped']} without usable telemetry) -> {out}"
        )
        for phase, constants in store.phases.items():
            old = before.get(phase, 0.0)
            new = constants.compute_ns_per_doc
            delta = (new / old - 1.0) * 100 if old else 0.0
            print(f"  {phase:>14}: compute {old:.0f} -> {new:.0f} ns/doc "
                  f"({delta:+.1f}%)")
        return 0

    records = _analytics_records(args)
    if args.action == "heatmap":
        if args.json:
            print(analytics.to_json(
                [s.as_dict() for s in analytics.heatmap(records).values()]
            ), end="")
            return 0
        if not records:
            print(f"ledger {args.ledger} has no records yet")
            return 0
        print(f"workflow DNA over "
              f"{len({r['run_id'] for r in records})} run(s):")
        header = (f"{'step':>14}  {'runs':>5} {'p50 s':>9} {'p95 s':>9} "
                  f"{'fail':>5} {'MB moved':>9} {'cache':>6} {'util':>5} "
                  f"{'strag':>6}")
        print(header)
        for s in analytics.heatmap(records).values():
            hit = "-" if s.cache_hit_rate is None else f"{s.cache_hit_rate:.0%}"
            util = ("-" if s.mean_utilization is None
                    else f"{s.mean_utilization:.0%}")
            strag = ("-" if s.mean_straggler_ratio is None
                     else f"x{s.mean_straggler_ratio:.1f}")
            print(f"{s.step:>14}  {s.n_records:>5} {s.p50_s:>9.3f} "
                  f"{s.p95_s:>9.3f} {s.failure_rate:>5.0%} "
                  f"{s.bytes_moved / 1e6:>9.2f} {hit:>6} {util:>5} "
                  f"{strag:>6}")
        return 0

    if args.action == "steps":
        rows = analytics.step_history(records, args.step)
        if args.json:
            print(analytics.to_json(rows), end="")
            return 0
        if not rows:
            print(f"no records for step {args.step!r}" if args.step
                  else f"ledger {args.ledger} has no records yet")
            return 0
        for row in rows:
            print(f"{row['ts']:.3f}  {row['step']:>14}  "
                  f"{row['duration_s']:9.3f}s  {row['status']:>6}  "
                  f"{row['backend']}  ({row['run_id']})")
        return 0

    if args.action == "regressions":
        flagged = analytics.detect_regressions(
            records, tolerance=args.tolerance, min_runs=args.min_runs
        )
        if args.json:
            print(analytics.to_json(flagged), end="")
        elif not flagged:
            print(f"no regressions across "
                  f"{len({r['run_id'] for r in records})} run(s)")
        else:
            for f in flagged:
                print(f"regression: {f['step']} latest {f['latest_s']:.3f}s "
                      f"vs baseline p50 {f['baseline_p50_s']:.3f}s "
                      f"(x{f['ratio']:.2f}, threshold "
                      f"{f['threshold_s']:.3f}s, {f['samples']} samples)")
        return 1 if flagged else 0

    # export
    if args.format == "json":
        text = analytics.to_json(analytics.export_json(records))
    elif args.format == "prom":
        text = analytics.export_prom(records)
    elif args.format == "chrome":
        text = analytics.to_json(analytics.export_chrome(records))
    else:
        text = analytics.export_html(records)
    if args.out is None:
        print(text, end="")
    else:
        from repro.io.atomic import atomic_write_text

        atomic_write_text(args.out, text)
        print(f"wrote {args.format} export "
              f"({len(records)} record(s)) to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    from repro.serve import daemon as serve_daemon
    from repro.serve import transport as serve_transport

    if args.action == "run":
        config = serve_daemon.ServeConfig(
            state=args.state,
            backend=args.backend,
            workers=args.workers,
            executors=args.executors,
            max_depth=args.max_depth,
            cost_budget_s=args.cost_budget_s,
            job_timeout_s=args.job_timeout,
            max_attempts=args.max_attempts,
            max_pool_losses=args.max_pool_losses,
            drain_deadline_s=args.drain_deadline,
            idle_exit_s=args.idle_exit,
            calibration=args.calibration,
            ledger=args.ledger,
            orphan_policy=args.orphan_policy,
        )
        daemon = serve_daemon.ServeDaemon(config)
        code = daemon.run()
        stats = daemon.stats.as_dict()
        print(
            f"serve: drained ({daemon._drain_reason or 'stop'}) — "
            f"{stats['done']} done, {stats['failed']} failed, "
            f"{stats['shed']} shed, {stats['recovered']} recovered"
        )
        return code

    if args.action == "submit":
        spec = {
            "input": args.input,
            "clusters": args.clusters,
            "iters": args.iters,
            "seed": args.seed,
            "min_df": args.min_df,
        }
        if args.backend:
            spec["backend"] = args.backend
        if args.workers is not None:
            spec["workers"] = args.workers
        if args.timeout is not None:
            spec["timeout_s"] = args.timeout
        if args.job_id:
            spec["job_id"] = args.job_id
        job_id = serve_transport.submit_job(args.state, spec)
        print(f"submitted {job_id}")
        if not args.wait:
            return 0
        deadline = time.monotonic() + args.wait_timeout
        while time.monotonic() < deadline:
            view = serve_transport.job_status(args.state, job_id)
            if view is not None and view.terminal:
                detail = view.digest or view.error or view.reason or ""
                print(f"{job_id}: {view.state} {detail}".rstrip())
                return 0 if view.state == "done" else 1
            time.sleep(0.1)
        print(f"{job_id}: still not terminal after {args.wait_timeout}s",
              file=sys.stderr)
        return 1

    if args.action == "status":
        jobs = serve_transport.job_status(args.state)
        heartbeat = serve_transport.read_heartbeat(args.state)
        if args.job is not None:
            view = jobs.get(args.job)
            if view is None:
                print(f"error: unknown job {args.job}", file=sys.stderr)
                return 1
            jobs = {args.job: view}
        if args.json:
            payload = {
                "heartbeat": heartbeat,
                "jobs": {
                    job_id: {
                        "state": view.state,
                        "attempt": view.attempt,
                        "digest": view.digest,
                        "total_s": view.total_s,
                        "error": view.error,
                        "reason": view.reason,
                        "events": view.events,
                    }
                    for job_id, view in jobs.items()
                },
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if heartbeat:
            age = time.time() - heartbeat.get("ts", 0.0)
            print(
                f"daemon: pid {heartbeat.get('pid')} "
                f"{heartbeat.get('state')} (beat {age:.1f}s ago)"
            )
        else:
            print("daemon: no heartbeat")
        for job_id in sorted(jobs, key=lambda j: jobs[j].submitted_ts):
            view = jobs[job_id]
            detail = view.digest or view.error or view.reason or ""
            if detail:
                detail = f"  {str(detail)[:48]}"
            print(f"{job_id}  {view.state:9s} attempt={view.attempt}{detail}")
        return 0

    # drain
    serve_transport.request_drain(args.state)
    print(f"drain requested for {args.state}")
    return 0


def _cmd_cache(args) -> int:
    from repro.cache.store import CacheStore

    if not os.path.isdir(args.cache):
        print(f"error: {args.cache} is not a cache directory",
              file=sys.stderr)
        return 1
    if args.expired is not None:
        store = CacheStore(args.cache, max_age_s=args.expired)
        dropped = store.purge_expired()
        print(f"invalidated {dropped} expired entr"
              f"{'y' if dropped == 1 else 'ies'}")
        return 0
    store = CacheStore(args.cache)
    if args.all_entries:
        dropped = store.invalidate()
    else:
        if args.key not in store:
            print(f"error: no cache entry {args.key!r}", file=sys.stderr)
            return 1
        dropped = store.invalidate(args.key)
    print(f"invalidated {dropped} entr{'y' if dropped == 1 else 'ies'}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "tfidf": _cmd_tfidf,
    "kmeans": _cmd_kmeans,
    "pipeline": _cmd_pipeline,
    "analytics": _cmd_analytics,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
}

#: What the library raises for a value it refuses: the flag that set it
#: is wrong (exit 2). Missing input, a file or an input directory with no
#: documents, is a ``FileNotFoundError`` (exit 1).
_FLAG_ERRORS = (ConfigurationError, OperatorError, CacheError)


def run_command(command, args) -> int:
    """Run one parsed command; a refused flag value or missing input
    prints one ``error:`` line instead of a traceback, and a reader that
    closed stdout early (``| head``) ends the command with exit 1."""
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit-time flush
        # cannot raise again (the Python docs' note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _FLAG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """Entry point of the engine's commands; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return run_command(_COMMANDS[args.command], args)
