"""Command-line interface: the paper's operators as separate binaries.

The discrete workflow of §3.3 runs each operator as its own executable
communicating through files; this CLI makes that literal::

    python -m repro generate --profile mix --scale 0.01 --out data/corpus
    python -m repro tfidf    --input data/corpus --output data/scores.arff
    python -m repro kmeans   --input data/scores.arff --output data/clusters.txt

or fused in one process, with the simulated machine's timing report::

    python -m repro workflow --input data/corpus --mode merged --threads 16
    python -m repro plan     --input data/corpus

or as a long-lived service with a durable job queue (``docs/serving.md``)::

    python -m repro serve run    --state data/serve
    python -m repro serve submit --state data/serve --input data/corpus --wait

All commands operate on real files through :class:`repro.io.FsStorage`,
so intermediates (the ARFF scores) can be inspected or loaded into WEKA.
Only ``workflow`` and ``plan`` import the simulator (:mod:`repro.sim`),
inside the command, so the engine's commands and the daemon never load it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext

from repro.core.pipeline import check_pipeline_rules, run_pipeline
from repro.errors import ConfigurationError
from repro.exec.process import BACKEND_CHOICES, _BACKEND_ALIASES, make_backend
from repro.exec.resilience import POISON_MODES, ResilienceConfig, RetryPolicy
from repro.io.arff import read_sparse_arff, write_sparse_arff
from repro.io.corpus_io import load_corpus, store_corpus
from repro.io.parallel_read import corpus_stream
from repro.io.storage import FsStorage
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text.analysis import fit_heaps, zipf_profile
from repro.text.synth import MIX_PROFILE, NSF_ABSTRACTS_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer

__all__ = ["main", "build_parser"]

_PROFILES = {"mix": MIX_PROFILE, "nsf-abstracts": NSF_ABSTRACTS_PROFILE}


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    """Real-execution backend selection, shared by tfidf/kmeans/pipeline."""
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


def _cli_resilience(args) -> ResilienceConfig | None:
    """Fault-tolerance policy from the flags; None = the backend's default
    policy (no retries, no deadlines, fail on the first task error; a dead
    process pool is still restarted under the breaker)."""
    retries = getattr(args, "retries", 0)
    task_timeout = getattr(args, "task_timeout", None)
    phase_timeout = getattr(args, "phase_timeout", None)
    on_poison = getattr(args, "on_poison", "raise")
    if retries < 0:
        raise ConfigurationError(f"--retries must be >= 0, got {retries}")
    if (
        retries == 0
        and task_timeout is None
        and phase_timeout is None
        and on_poison == "raise"
    ):
        return None
    return ResilienceConfig(
        retry=RetryPolicy(
            max_attempts=retries + 1,
            backoff_base_s=getattr(args, "retry_backoff", 0.05),
        ),
        task_timeout_s=task_timeout,
        phase_timeout_s=phase_timeout,
        on_poison=on_poison,
    )


def _make_cli_backend(args):
    """Build the backend an invocation asked for (caller must close it)."""
    return make_backend(
        args.backend, args.workers, shm=args.shm, resilience=_cli_resilience(args)
    )


def _add_read_args(parser: argparse.ArgumentParser) -> None:
    """Parallel-input flags (paper §3.2), shared by tfidf/pipeline."""
    parser.add_argument(
        "--read-workers", type=int, default=1,
        help="concurrent file-read threads (1 = serial input)",
    )
    parser.add_argument(
        "--prefetch", type=int, default=None,
        help="max documents in flight ahead of compute, read in batches "
        "of up to 32 per reader task (default: 128x read workers)",
    )


def _make_cli_stream(args):
    """Bounded-prefetch document stream over the input directory."""
    storage = FsStorage(args.input)
    retries = getattr(args, "retries", 0)
    retry = (
        RetryPolicy(
            max_attempts=retries + 1,
            backoff_base_s=getattr(args, "retry_backoff", 0.05),
        )
        if retries > 0
        else None
    )
    return corpus_stream(
        storage,
        "",
        workers=args.read_workers,
        prefetch=args.prefetch,
        name=os.path.basename(args.input),
        retry=retry,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Operator and workflow optimization for analytics "
        "(MEDAL/EDBT 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic corpus")
    gen.add_argument("--profile", choices=sorted(_PROFILES), default="mix")
    gen.add_argument("--scale", type=float, default=0.01)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")

    tfidf = sub.add_parser("tfidf", help="TF/IDF over a corpus directory")
    tfidf.add_argument("--input", "--input-dir", dest="input", required=True,
                       help="corpus directory")
    tfidf.add_argument("--output", required=True, help="ARFF output file")
    tfidf.add_argument("--min-df", type=int, default=1)
    tfidf.add_argument("--stopwords", action="store_true")
    _add_backend_args(tfidf)
    _add_read_args(tfidf)

    kmeans = sub.add_parser("kmeans", help="K-means over an ARFF file")
    kmeans.add_argument("--input", required=True, help="ARFF input file")
    kmeans.add_argument("--output", required=True, help="assignments file")
    kmeans.add_argument("--clusters", type=int, default=8)
    kmeans.add_argument("--max-iters", type=int, default=10)
    kmeans.add_argument("--seed", type=int, default=0)
    kmeans.add_argument("--init", choices=["spread", "kmeans++"], default="spread")
    _add_backend_args(kmeans)

    pipe = sub.add_parser(
        "pipeline",
        help="run the fused TF/IDF -> K-means workflow for real "
        "(wall clock; parallel via --backend threads or processes)",
    )
    pipe.add_argument("--input", "--input-dir", dest="input", required=True,
                      help="corpus directory")
    pipe.add_argument("--output", default=None,
                      help="assignments file (default: stdout summary only)")
    pipe.add_argument("--arff", default=None,
                      help="also write the TF/IDF scores as ARFF")
    pipe.add_argument("--min-df", type=int, default=1)
    pipe.add_argument("--stopwords", action="store_true")
    pipe.add_argument("--clusters", type=int, default=8)
    pipe.add_argument("--max-iters", type=int, default=10)
    pipe.add_argument("--seed", type=int, default=0)
    pipe.add_argument("--init", choices=["spread", "kmeans++"], default="spread")
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
        "shm and tiling (see docs/planner.md)",
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
    _add_read_args(pipe)

    analytics = sub.add_parser(
        "analytics",
        help="aggregate the run ledger: Workflow-DNA heatmap, per-step "
        "history, regression flags, exports, calibration replay",
    )
    asub = analytics.add_subparsers(dest="action", required=True)

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
    aregr.add_argument("--tolerance", type=float, default=None, metavar="FRAC",
                       help="relative headroom over the baseline p50 "
                       "(default 0.5 = 50%%)")
    aregr.add_argument("--min-runs", type=int, default=None, metavar="N",
                       help="good samples required before flagging "
                       "(default 3)")
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

    wf = sub.add_parser("workflow", help="run the fused/discrete workflow "
                        "with a simulated timing report")
    wf.add_argument("--input", required=True, help="corpus directory")
    wf.add_argument("--mode", choices=["merged", "discrete"], default="merged")
    wf.add_argument("--dict", dest="dict_kind", default="map",
                    choices=["map", "unordered_map", "dict"])
    wf.add_argument("--threads", type=int, default=16)
    wf.add_argument("--cores", type=int, default=16)
    wf.add_argument("--clusters", type=int, default=8)
    wf.add_argument("--max-iters", type=int, default=10)
    wf.add_argument("--output", default="clusters.txt",
                    help="assignments file (within the input directory)")

    plan = sub.add_parser("plan", help="cost-based planning over a corpus")
    plan.add_argument("--input", required=True, help="corpus directory")
    plan.add_argument("--cores", type=int, default=16)
    plan.add_argument("--pilot-docs", type=int, default=64)
    plan.add_argument("--memory-budget-gb", type=float, default=None)

    analyze = sub.add_parser(
        "analyze", help="corpus statistics, Heaps fit and Zipf head"
    )
    analyze.add_argument("--input", required=True, help="corpus directory")
    analyze.add_argument("--top", type=int, default=10)

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
    srun.add_argument("--backend", choices=["sequential", "threads",
                                            "processes"], default="threads",
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
    ssubmit.add_argument("--backend", default=None,
                         choices=["sequential", "threads", "processes"],
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
    profile = _PROFILES[args.profile]
    corpus = generate_corpus(profile, scale=args.scale, seed=args.seed)
    storage = FsStorage(args.out)
    cost = store_corpus(storage, corpus)
    print(f"wrote {len(corpus)} documents "
          f"({cost.disk_write_bytes / 1e6:.1f} MB) to {args.out}")
    return 0


def _cmd_tfidf(args) -> int:
    stream = _make_cli_stream(args)
    if not len(stream):
        print(f"error: no documents found in {args.input}", file=sys.stderr)
        return 1
    operator = TfIdfOperator(
        tokenizer=Tokenizer(drop_stopwords=args.stopwords),
        min_df=args.min_df,
    )
    with _make_cli_backend(args) as backend:
        result = operator.fit_transform(stream, backend=backend)
    document = write_sparse_arff("tfidf", result.vocabulary,
                                 result.matrix.iter_rows())
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"wrote {result.matrix.n_rows} x {len(result.vocabulary)} scores "
          f"({len(document) / 1e6:.1f} MB ARFF) to {args.output}")
    return 0


def _cmd_kmeans(args) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        relation = read_sparse_arff(handle.read())
    operator = KMeansOperator(
        n_clusters=args.clusters,
        max_iters=args.max_iters,
        seed=args.seed,
        init=args.init,
    )
    with _make_cli_backend(args) as backend:
        result = operator.fit(relation.rows, backend=backend)
    with open(args.output, "w", encoding="utf-8") as handle:
        for doc_id, cluster in enumerate(result.assignments):
            handle.write(f"{doc_id}\t{cluster}\n")
    sizes = ", ".join(str(s) for s in result.cluster_sizes())
    print(f"clustered {relation.rows.n_rows} documents into "
          f"{args.clusters} clusters ({result.n_iters} iterations, "
          f"converged={result.converged}); sizes: {sizes}")
    print(f"assignments written to {args.output}")
    return 0


def _cmd_workflow(args) -> int:
    from repro.sim import SimScheduler, build_tfidf_kmeans_workflow, paper_node

    storage = FsStorage(args.input)
    workflow = build_tfidf_kmeans_workflow(
        mode=args.mode,
        wc_dict_kind=args.dict_kind,
        n_clusters=args.clusters,
        max_iters=args.max_iters,
        output_path=args.output,
    )
    scheduler = SimScheduler(paper_node(max(args.cores, args.threads)))
    result = workflow.run(
        scheduler, storage, inputs={"tfidf.corpus_prefix": ""},
        workers=args.threads,
    )
    clusters = result.value("kmeans.clusters")
    print(f"{args.mode} workflow, {args.threads} thread(s) on "
          f"{scheduler.machine.name}:")
    for phase, seconds in result.breakdown().items():
        print(f"  {phase:>14}: {seconds:9.3f}s")
    print(f"  {'total':>14}: {result.total_s:9.3f}s "
          f"(peak memory {result.peak_resident_bytes / 1e6:.1f} MB)")
    print(f"cluster sizes: {clusters.cluster_sizes()}")
    return 0


def _validate_pipeline_flags(args) -> None:
    """Fail fast — before the input is opened — on the flag combinations
    ``run_pipeline`` rejects (``repro.core.pipeline.PIPELINE_RULES``),
    naming every offending flag."""
    policy = []
    if args.retries:
        policy.append("--retries")
    if args.task_timeout is not None:
        policy.append("--task-timeout")
    if args.phase_timeout is not None:
        policy.append("--phase-timeout")
    if args.on_poison != "raise":
        policy.append("--on-poison")
    auto_plan = args.plan == "auto"
    check_pipeline_rules(
        backend=not auto_plan,
        plan=auto_plan,
        policy=tuple(policy),
    )


def _cli_cache(args):
    """Result cache from the flags; ``None`` when caching is off."""
    from repro.cache import PipelineCache

    if getattr(args, "cache", None) is None:
        if getattr(args, "cache_max_mb", None) is not None:
            raise ConfigurationError("--cache-max-mb requires --cache DIR")
        if getattr(args, "cache_ttl", None) is not None:
            raise ConfigurationError("--cache-ttl requires --cache DIR")
        return None
    max_bytes = (
        int(args.cache_max_mb * 1e6)
        if getattr(args, "cache_max_mb", None) is not None
        else None
    )
    return PipelineCache(args.cache, max_bytes=max_bytes,
                         max_age_s=getattr(args, "cache_ttl", None))


def _cmd_pipeline(args) -> int:
    _validate_pipeline_flags(args)
    cache = _cli_cache(args)
    stream = _make_cli_stream(args)
    if not len(stream):
        print(f"error: no documents found in {args.input}", file=sys.stderr)
        return 1
    auto_plan = args.plan == "auto"
    tfidf = TfIdfOperator(
        tokenizer=Tokenizer(drop_stopwords=args.stopwords),
        min_df=args.min_df,
    )
    kmeans = KMeansOperator(
        n_clusters=args.clusters,
        max_iters=args.max_iters,
        seed=args.seed,
        init=args.init,
    )
    memory_budget = (
        int(args.memory_budget_mb * 1e6)
        if args.memory_budget_mb is not None
        else None
    )
    if memory_budget is not None and memory_budget <= 0:
        raise ConfigurationError(
            f"--memory-budget-mb must be > 0, got {args.memory_budget_mb}"
        )
    # --plan auto builds its own backends; --plan fixed runs on the one
    # the backend flags describe.
    with nullcontext() if auto_plan else _make_cli_backend(args) as backend:
        result = run_pipeline(
            stream,
            backend=backend,
            plan="auto" if auto_plan else None,
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
        document = write_sparse_arff(
            "tfidf", result.tfidf.vocabulary, result.tfidf.matrix.iter_rows()
        )
        with open(args.arff, "w", encoding="utf-8") as handle:
            handle.write(document)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            for doc_id, cluster in enumerate(result.kmeans.assignments):
                handle.write(f"{doc_id}\t{cluster}\n")

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
    if record["ipc"] is not None:
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
    from repro.obs import analytics

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
        kwargs = {}
        if args.tolerance is not None:
            kwargs["tolerance"] = args.tolerance
        if args.min_runs is not None:
            kwargs["min_runs"] = args.min_runs
        flagged = analytics.detect_regressions(records, **kwargs)
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

    if args.action == "export":
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

    raise ConfigurationError(f"unknown analytics action {args.action!r}")


def _cmd_plan(args) -> int:
    from repro.sim import WorkflowPlanner, paper_node

    storage = FsStorage(args.input)
    planner = WorkflowPlanner(paper_node(args.cores))
    budget = (
        args.memory_budget_gb * 1e9 if args.memory_budget_gb is not None else None
    )
    plan = planner.plan(
        storage, "", pilot_docs=args.pilot_docs, memory_budget_bytes=budget
    )
    print(plan.explain())
    return 0


def _cmd_analyze(args) -> int:
    storage = FsStorage(args.input)
    corpus = load_corpus(storage, "", name=os.path.basename(args.input))
    if not len(corpus):
        print(f"error: no documents found in {args.input}", file=sys.stderr)
        return 1
    stats = corpus.stats()
    print(f"documents:        {stats.documents:,}")
    print(f"bytes:            {stats.total_bytes:,} "
          f"({stats.mean_bytes_per_doc:.0f}/doc)")
    print(f"tokens:           {stats.total_tokens:,} "
          f"({stats.mean_tokens_per_doc:.0f}/doc)")
    print(f"distinct words:   {stats.distinct_words:,}")
    if stats.documents >= 2:
        fit = fit_heaps(corpus)
        print(f"Heaps fit:        V(N) = {fit.k:.1f} * N^{fit.beta:.3f} "
              f"(R^2={fit.r_squared:.3f})")
        print(f"  projected vocabulary at 10x the tokens: "
              f"{fit.predict(10 * stats.total_tokens):,.0f}")
    head = zipf_profile(corpus, top=args.top)
    print(f"top-{args.top} term frequencies: "
          + ", ".join(str(freq) for _, freq in head))
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
    "workflow": _cmd_workflow,
    "pipeline": _cmd_pipeline,
    "analytics": _cmd_analytics,
    "plan": _cmd_plan,
    "analyze": _cmd_analyze,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
