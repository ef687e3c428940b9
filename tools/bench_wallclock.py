"""Wall-clock benchmark CLI: backends × workers → BENCH_wallclock.json.

Two modes, both appending comparable records to the repo's performance
trajectory:

* ``--mode backends`` (default) sweeps the real execution backends
  (sequential, threads, processes) over worker counts on the in-memory
  synthetic Mix corpus.
* ``--mode read`` writes the corpus to an on-disk directory and sweeps
  **read-worker counts** through the bounded-prefetch parallel reader —
  the paper's §3.2 parallel-input optimization, measured end to end.
* ``--mode ipc`` sweeps the process backend's shared-memory plane on/off
  × worker counts, recording per-phase IPC accounting (bytes pickled,
  segments, broadcasts) — the counters that show the zero-copy win even
  where wall-clock deltas are noise.
* ``--mode faults`` injects deterministic faults (transient exceptions, a
  worker crash, a poisoned task) under a retry policy and records the
  recovery bill: re-executed tasks, pool restarts, quarantined documents,
  and wall-clock overhead versus a fault-free run. Recovered runs must be
  bit-identical; the quarantine run must differ by exactly its
  quarantined rows.
* ``--mode plan`` runs the pipeline under the measured-cost adaptive
  planner against hard-coded fixed configurations; exits nonzero if the
  planned total is not within 10% of the best fixed total.
* ``--mode cache`` runs the cold → warm → incremental triple through the
  phase-level result cache; exits nonzero unless the warm run serves all
  three phases bit-identically with zero recompute and the incremental
  run (tail-edited + appended corpus) matches an uncached run on the
  modified corpus while reusing unchanged word-count shards.
* ``--mode oocore`` measures the out-of-core tiled data plane: fresh
  child processes run the pipeline untiled, then under memory budgets
  derived from the measured matrix footprint (including budgets smaller
  than the matrix). Exits nonzero unless every budgeted run is
  bit-identical to the untiled reference and keeps the spill plane's
  peak pinned bytes under its budget; each run records its own peak RSS.
* ``--mode serve`` load-tests the serve daemon (``repro serve``):
  concurrent submissions through steady-state, backpressure (forced
  load-shedding), and a fault-injected crash + restart mid-load.
  Records throughput, latency percentiles, and shed/recovered counts;
  exits nonzero if any job is lost, double-completed, or differs from
  the one-shot reference digest (see docs/serving.md).

Usage::

    PYTHONPATH=src python tools/bench_wallclock.py                 # full sweep
    PYTHONPATH=src python tools/bench_wallclock.py --tiny          # CI smoke
    PYTHONPATH=src python tools/bench_wallclock.py --mode read \
        --read-workers 1 2 4 8 --repeats 3 --append
    PYTHONPATH=src python tools/bench_wallclock.py --mode ipc --append
    PYTHONPATH=src python tools/bench_wallclock.py --scale 0.05 \
        --workers 1 2 4 8 --repeats 3 --out BENCH_wallclock.json

With ``--append``, the output file accumulates a JSON list of records
(a legacy single-record file is converted in place); without it the file
is overwritten with one record. Every run cross-checks that all
configurations produce identical operator output, so a green benchmark is
also an equivalence certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.bench.wallclock import (  # noqa: E402
    DEFAULT_OOCORE_FRACTIONS,
    DEFAULT_READ_WORKER_SWEEP,
    DEFAULT_WORKER_SWEEP,
    bench_cache,
    bench_fault_recovery,
    bench_ipc_sweep,
    bench_oocore,
    bench_plan,
    bench_read_sweep,
    bench_serve,
    bench_wallclock,
)
from repro.io.atomic import atomic_write_text  # noqa: E402


def _write(out: str, record: dict, append: bool) -> None:
    """Write (or append to) the records file atomically.

    The trajectory file is append-forever: a crash mid-write must leave
    either the old contents or the new, never a truncated JSON document
    that poisons every later ``--append``. Serialization happens before
    the target is touched; the replace is a single ``os.replace``.
    """
    if append and os.path.exists(out):
        with open(out, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        records = existing if isinstance(existing, list) else [existing]
        records.append(record)
    else:
        records = record
    atomic_write_text(out, json.dumps(records, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode",
                        choices=["backends", "read", "ipc", "faults", "plan",
                                 "cache", "oocore", "serve"],
                        default="backends",
                        help="sweep compute backends, read-worker counts "
                        "over an on-disk corpus (paper §3.2), the "
                        "shared-memory plane on/off with IPC accounting, "
                        "fault-injection recovery scenarios, the adaptive "
                        "planner vs fixed configurations, the "
                        "cold/warm/incremental result-cache triple, "
                        "out-of-core tiled execution under memory budgets, "
                        "or the serve daemon under concurrent load with a "
                        "crash-recovery fault variant")
    parser.add_argument("--profile", choices=["mix", "nsf-abstracts"], default="mix")
    parser.add_argument("--scale", type=float, default=0.01,
                        help="corpus scale (fraction of the full profile)")
    parser.add_argument("--backends", nargs="+",
                        default=["sequential", "threads", "processes"],
                        choices=["sequential", "threads", "processes"])
    parser.add_argument("--workers", nargs="+", type=int,
                        default=list(DEFAULT_WORKER_SWEEP))
    parser.add_argument("--read-workers", nargs="+", type=int,
                        default=list(DEFAULT_READ_WORKER_SWEEP),
                        help="read-thread counts for --mode read")
    parser.add_argument("--prefetch", type=int, default=None,
                        help="in-flight document bound for --mode read")
    parser.add_argument("--compute-backend", default="processes",
                        choices=["sequential", "threads", "processes"],
                        help="fixed compute backend for --mode read")
    parser.add_argument("--compute-workers", type=int, default=None,
                        help="fixed compute workers for --mode read "
                        "(default: cpu count)")
    parser.add_argument("--corpus-dir", default=None,
                        help="directory for the on-disk corpus in --mode "
                        "read (default: a temp dir, removed afterwards)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kmeans-iters", type=int, default=5)
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="retry budget per task for --mode faults")
    parser.add_argument("--fault-workers", type=int, default=2,
                        help="process workers for --mode faults")
    parser.add_argument("--budget-fractions", nargs="+", type=float,
                        default=list(DEFAULT_OOCORE_FRACTIONS),
                        help="memory budgets for --mode oocore, as "
                        "fractions of the measured matrix footprint "
                        "(must include a fraction < 1)")
    parser.add_argument("--serve-jobs", type=int, default=8,
                        help="concurrent submissions per scenario for "
                        "--mode serve")
    parser.add_argument("--serve-executors", type=int, default=2,
                        help="daemon executor threads for --mode serve")
    parser.add_argument("--serve-backend", default="threads",
                        choices=["sequential", "threads", "processes"],
                        help="job execution backend for --mode serve")
    parser.add_argument("--no-serve-fault", action="store_true",
                        help="skip the crash-recovery scenario in "
                        "--mode serve")
    parser.add_argument("--calibration", default=None, metavar="PATH",
                        help="calibration store for --mode plan (JSON; "
                        "probed from the corpus and persisted when the "
                        "file does not exist)")
    parser.add_argument("--process-workers", type=int, default=None,
                        help="worker count of the fixed process-backend "
                        "configuration in --mode plan (default: cpu count)")
    parser.add_argument("--trace", action="store_true",
                        help="span-trace every configuration in --mode "
                        "backends and embed utilization/straggler summaries "
                        "(adds a small tracing overhead to the timings)")
    parser.add_argument("--ledger", default=None, metavar="DIR",
                        help="append every --mode backends run to a run "
                        "ledger directory for repro analytics "
                        "(see docs/ledger.md)")
    parser.add_argument("--out", default=os.path.join(REPO, "BENCH_wallclock.json"))
    parser.add_argument("--append", action="store_true",
                        help="append the record to --out (JSON list) "
                        "instead of overwriting")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test configuration (seconds, not minutes)")
    args = parser.parse_args(argv)

    if args.tiny:
        args.scale = min(args.scale, 0.002)
        args.workers = [w for w in args.workers if w <= 2] or [1, 2]
        args.read_workers = [w for w in args.read_workers if w <= 2] or [1, 2]
        args.repeats = 1
        args.kmeans_iters = 2
        if args.compute_workers is None:
            args.compute_workers = 2
        args.serve_jobs = min(args.serve_jobs, 4)

    if args.mode == "serve":
        record = bench_serve(
            profile=args.profile,
            scale=args.scale,
            n_jobs=args.serve_jobs,
            executors=args.serve_executors,
            workers=2 if args.tiny else 4,
            backend=args.serve_backend,
            repeats=args.repeats,
            seed=args.seed,
            kmeans_iters=args.kmeans_iters,
            fault=not args.no_serve_fault,
        )
    elif args.mode == "oocore":
        record = bench_oocore(
            profile=args.profile,
            scale=args.scale,
            repeats=args.repeats,
            seed=args.seed,
            kmeans_iters=args.kmeans_iters,
            budget_fractions=args.budget_fractions,
        )
    elif args.mode == "cache":
        record = bench_cache(
            profile=args.profile,
            scale=args.scale,
            repeats=args.repeats,
            seed=args.seed,
            kmeans_iters=args.kmeans_iters,
        )
    elif args.mode == "plan":
        record = bench_plan(
            profile=args.profile,
            scale=args.scale,
            repeats=args.repeats,
            seed=args.seed,
            kmeans_iters=args.kmeans_iters,
            calibration=args.calibration,
            process_workers=args.process_workers,
        )
    elif args.mode == "faults":
        record = bench_fault_recovery(
            profile=args.profile,
            scale=args.scale,
            workers=args.fault_workers,
            repeats=args.repeats,
            seed=args.seed,
            kmeans_iters=args.kmeans_iters,
            max_attempts=args.max_attempts,
        )
    elif args.mode == "ipc":
        record = bench_ipc_sweep(
            profile=args.profile,
            scale=args.scale,
            workers=args.workers,
            repeats=args.repeats,
            seed=args.seed,
            kmeans_iters=args.kmeans_iters,
        )
    elif args.mode == "read":
        record = bench_read_sweep(
            profile=args.profile,
            scale=args.scale,
            read_workers=args.read_workers,
            prefetch=args.prefetch,
            backend=args.compute_backend,
            workers=args.compute_workers,
            repeats=args.repeats,
            seed=args.seed,
            kmeans_iters=args.kmeans_iters,
            corpus_dir=args.corpus_dir,
        )
    else:
        record = bench_wallclock(
            profile=args.profile,
            scale=args.scale,
            backends=args.backends,
            workers=args.workers,
            repeats=args.repeats,
            seed=args.seed,
            kmeans_iters=args.kmeans_iters,
            trace=args.trace,
            ledger=args.ledger,
        )

    _write(args.out, record, args.append)

    print(f"{record['n_docs']} documents, profile={record['profile']} "
          f"scale={record['scale']}, host cpus={record['host']['cpu_count']}")
    if args.mode == "serve":
        header = (f"{'scenario':>15} {'total_s':>9} {'done':>5} "
                  f"{'shed':>5} {'recov':>6} {'p50_s':>7} {'p95_s':>7} "
                  f"{'jobs/s':>7} ok")
        print(header)
        for run in record["runs"]:
            p50 = run["latency_p50_s"]
            p95 = run["latency_p95_s"]
            thru = run["throughput_jobs_per_s"]
            print(f"{run['scenario']:>15} {run['total_s']:>9.3f} "
                  f"{run['done']:>5} {run['shed']:>5} {run['recovered']:>6} "
                  f"{(f'{p50:.3f}' if p50 is not None else '-'):>7} "
                  f"{(f'{p95:.3f}' if p95 is not None else '-'):>7} "
                  f"{(f'{thru:.2f}' if thru is not None else '-'):>7} "
                  f"{'yes' if run['ok'] else 'NO'}")
        summary = record["serve_summary"]
        print(f"lost: {summary['lost']}, double-completed: "
              f"{summary['double_completed']}, shed: {summary['shed']}, "
              f"recovered: {summary['recovered']} "
              f"({'ok' if summary['all_ok'] else 'FAILED'})")
    elif args.mode == "oocore":
        summary = record["oocore_summary"]
        print(f"matrix footprint: {summary['matrix_bytes']:,} bytes")
        header = (f"{'config':>14} {'budget_B':>10} {'total_s':>9} "
                  f"{'rss_MB':>8} {'pinned_peak_B':>13} {'tiles':>6} "
                  f"{'evict':>6} identical")
        print(header)
        for run in record["runs"]:
            tiles = run.get("tiles") or {}
            budget = run["memory_budget"]
            print(f"{run['label']:>14} "
                  f"{(f'{budget:,}' if budget else '-'):>10} "
                  f"{run['total_s']:>9.3f} "
                  f"{run['peak_rss_kb'] / 1024:>8.1f} "
                  f"{tiles.get('peak_pinned_bytes', 0):>13,} "
                  f"{tiles.get('tiles', 0):>6} "
                  f"{tiles.get('evictions', 0):>6} "
                  f"{'yes' if run['output_identical'] else 'NO'}")
        print(f"all identical: {summary['all_identical']}, "
              f"all under budget: {summary['all_under_budget']}")
    elif args.mode == "cache":
        header = (f"{'scenario':>12} {'total_s':>9} {'hits':>5} "
                  f"{'misses':>7} {'shard_hits':>10} {'MB_served':>10} ok")
        print(header)
        for run in record["runs"]:
            cache = run.get("cache") or {}
            print(f"{run['scenario']:>12} {run['total_s']:>9.3f} "
                  f"{cache.get('hits', 0):>5} {cache.get('misses', 0):>7} "
                  f"{cache.get('shard_hits', 0):>10} "
                  f"{cache.get('bytes_saved', 0) / 1e6:>10.2f} "
                  f"{'yes' if run['ok'] else 'NO'}")
        summary = record["cache_summary"]
        print(f"warm serve: {summary['warm_speedup_vs_uncached']:.1f}x vs "
              f"uncached ({summary['warm_seconds_saved']:.3f}s of compute "
              f"skipped); cold store overhead "
              f"{summary['cold_store_overhead_s']:.3f}s")
    elif args.mode == "plan":
        header = f"{'config':>26} {'total_s':>9} {'plan_s':>8} ok"
        print(header)
        for run in record["runs"]:
            plan_s = (
                f"{run['plan_seconds']:>8.3f}" if "plan_seconds" in run
                else f"{'-':>8}"
            )
            print(f"{run['config']:>26} {run['total_s']:>9.3f} {plan_s} "
                  f"{'yes' if run['ok'] else 'NO'}")
        pvf = record["planned_vs_fixed"]
        print(f"planned vs best fixed ({pvf['best_fixed_config']}): "
              f"{pvf['ratio']:.2f}x "
              f"(tolerance {1 + pvf['tolerance']:.2f}x, "
              f"{'ok' if pvf['within_tolerance'] else 'EXCEEDED'})")
        planned_run = next(r for r in record["runs"] if r["config"] == "planned")
        print(f"chosen plan: "
              + "; ".join(f"{phase}: {desc}" for phase, desc
                          in planned_run["plan"]["phases"].items()))
    elif args.mode == "faults":
        header = (f"{'scenario':>18} {'total_s':>9} {'overhead':>9} "
                  f"{'fired':>6} {'retries':>8} {'restarts':>9} "
                  f"{'quarantined':>11} ok")
        print(header)
        for run in record["runs"]:
            rec = run["recovery"]
            print(f"{run['scenario']:>18} {run['total_s']:>9.3f} "
                  f"{run['overhead_vs_baseline']:>8.2f}x "
                  f"{run['faults_fired']:>6} {rec['retries']:>8} "
                  f"{rec['pool_restarts']:>9} {rec['quarantined']:>11} "
                  f"{'yes' if run['ok'] else 'NO'}")
    elif args.mode == "ipc":
        header = (f"{'shm':>5} {'workers':>7} {'total_s':>9} "
                  f"{'task_MB':>9} {'kmeans_B/iter':>13} {'util':>5} identical")
        print(header)
        for run in record["runs"]:
            task_mb = run["ipc"]["total"]["task_pickle_bytes"] / 1e6
            util = run.get("utilization", {}).get("kmeans", 0.0)
            print(f"{('on' if run['shm'] else 'off'):>5} "
                  f"{run['workers']:>7} {run['total_s']:>9.3f} "
                  f"{task_mb:>9.2f} "
                  f"{run['kmeans_task_bytes_per_iter']:>13.0f} "
                  f"{util:>5.0%} "
                  f"{'yes' if run['output_identical'] else 'NO'}")
        # IPC records double as the utilization trajectory: a record
        # without the trace summary is an incomplete benchmark.
        missing = [
            index
            for index, run in enumerate(record["runs"])
            if "utilization" not in run or "straggler_ratio" not in run
            or not run.get("trace")
        ]
        if missing:
            print(f"error: ipc runs {missing} lack utilization/trace fields",
                  file=sys.stderr)
            return 1
    elif args.mode == "read":
        print(f"compute: {record['config']['backend']} x "
              f"{record['config']['workers']}")
        header = (f"{'read_workers':>12} {'total_s':>9} {'read_s':>8} "
                  f"{'speedup':>8} identical")
        print(header)
        for run in record["runs"]:
            print(f"{run['read_workers']:>12} {run['total_s']:>9.3f} "
                  f"{run['read_s']:>8.3f} "
                  f"{run['speedup_vs_serial_input']:>8.2f} "
                  f"{'yes' if run['output_identical'] else 'NO'}")
    else:
        header = f"{'backend':>12} {'workers':>7} {'total_s':>9} {'speedup':>8} identical"
        print(header)
        for run in record["runs"]:
            print(f"{run['backend']:>12} {run['workers']:>7} "
                  f"{run['total_s']:>9.3f} {run['speedup_vs_sequential']:>8.2f} "
                  f"{'yes' if run['output_identical'] else 'NO'}")
    # Fault runs judge themselves via "ok" (the quarantine scenario is
    # *supposed* to differ, by exactly its quarantined rows); everything
    # else must be bit-identical.
    if not all(run.get("ok", run["output_identical"]) for run in record["runs"]):
        print("error: benchmark self-check failed (output mismatch or "
              "planned run outside tolerance)", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
