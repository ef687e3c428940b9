"""perfbench: one command, seven workloads, end-to-end + per-layer metrics.

::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]
    python3 perfbench/run.py --selftest

For each workload the parent generates the corpus from ``--seed``, writes
it to disk, computes the reference digest with one plain sequential run,
then starts ``child.py`` in a fresh process to run the ops. It scores the
child's record, prints every metric by name with its unit, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` (default) measures the end-to-end metrics with all tracing
off; ``--trace 1`` is the separate traced pass that yields the per-layer
metrics. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_ROOT = os.path.join(ROOT, "src")
#: All scratch lives under one mkdtemp root below this directory (inside
#: the checkout, ignored by git), removed on exit — also on failure.
SCRATCH_BASE = os.path.join(ROOT, ".perfbench_tmp")
SHM_DIR = "/dev/shm"
#: A workload child that has not finished by then is killed with its
#: whole process group (pool workers, daemon) and the run fails.
CHILD_TIMEOUT_S = 170.0
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def host_fingerprint() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def shm_segments() -> set[str]:
    """The program's shared-memory segments that exist right now."""
    from repro.exec.shm import SEGMENT_PREFIX

    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return set()
    return {os.path.join(SHM_DIR, n) for n in names if n.startswith(SEGMENT_PREFIX)}


def spill_dirs(scratch: str) -> list[str]:
    """Tile spill directories a finished workload left in its scratch root
    (``TMPDIR`` points there, so that is where the program makes them)."""
    from repro.tiles import SPILL_PREFIX

    return sorted(
        os.path.join(scratch, n) for n in os.listdir(scratch)
        if n.startswith(SPILL_PREFIX)
    )


def reference_run(workload, seed: int, corpus_dir: str) -> dict:
    """Generate the corpus, store it, and run the plain reference.

    One ``sequential``, uncached, untiled run over the *stored* corpus
    (disk order is what every op sees). It runs here in the parent, so
    its memory never counts towards the workload child's high-water mark.
    """
    from repro.core.pipeline import run_pipeline
    from repro.exec.process import make_backend
    from repro.io import FsStorage, load_corpus, store_corpus
    from repro.text import MIX_PROFILE, NSF_ABSTRACTS_PROFILE, generate_corpus

    from digest import output_digest
    from workloads import operators

    profiles = {"mix": MIX_PROFILE, "nsf-abstracts": NSF_ABSTRACTS_PROFILE}
    corpus = generate_corpus(
        profiles[workload.profile], scale=workload.scale, seed=seed
    )
    store_corpus(FsStorage(corpus_dir), corpus)
    stored = load_corpus(FsStorage(corpus_dir), "")
    tfidf, kmeans = operators()
    backend = make_backend("sequential", 1)
    try:
        result = run_pipeline(stored, backend=backend, tfidf=tfidf, kmeans=kmeans)
    finally:
        backend.close()
    matrix = result.tfidf.matrix
    return {
        "digest": output_digest(result),
        "n_docs": len(stored),
        "corpus_bytes": stored.total_bytes,
        "matrix_bytes": matrix.resident_bytes(),
        "matrix_nnz": matrix.nnz,
        "vocab_size": matrix.n_cols,
        "kmeans_iters": result.kmeans.n_iters,
    }


def run_child(config: dict, scratch: str) -> dict:
    """Run ``child.py`` to completion in its own process group."""
    config_path = os.path.join(scratch, "child_config.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    env = dict(os.environ)
    # Tile spill directories and every other tempfile of the program land
    # inside the scratch root, where the leak scan can see them.
    env["TMPDIR"] = scratch
    log_path = os.path.join(scratch, "child.log")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), config_path],
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            # Timeout or interrupt: nothing the child started may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
    if proc.returncode != 0:
        with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError(
            f"workload child exited {proc.returncode}:\n{tail}"
        )
    with open(config["out"], "r", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end_metrics(record: dict, n_docs: int, setup_s: float) -> dict:
    good = [op["seconds"] for op in record["ops"] if op["ok"]]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    if good:
        metrics["op_s_p50"] = {
            "value": statistics.median(good), "unit": "s", "samples": len(good),
        }
        metrics["docs_per_s"] = {
            "value": n_docs * len(good) / record["busy_s"],
            "unit": "docs/s",
        }
    return metrics


def run_workload(name: str, base: str, *, seed: int, seconds: float,
                 trace: int, selftest: bool = False) -> dict:
    """One workload, one pass -> its scored record."""
    import dataclasses

    from workloads import (
        MIN_TIMED_OPS, SELFTEST_SCALE_DIVISOR, WARMUP_OPS, WORKLOADS,
    )

    started = time.monotonic()
    workload = WORKLOADS[name]
    if selftest:
        workload = dataclasses.replace(
            workload, scale=workload.scale / SELFTEST_SCALE_DIVISOR
        )
    scratch = tempfile.mkdtemp(prefix=f"{name}_", dir=base)
    try:
        corpus_dir = os.path.join(scratch, "corpus")
        reference = reference_run(workload, seed, corpus_dir)
        config = {
            "workload": workload.constants(),
            "corpus_dir": corpus_dir,
            "scratch": scratch,
            "src_root": SRC_ROOT,
            "reference": reference,
            "trace": bool(trace),
            "selftest": selftest,
            "seconds": float(seconds),
            "min_ops": 2 if selftest else MIN_TIMED_OPS,
            "warmup_ops": 1 if selftest else WARMUP_OPS,
            "out": os.path.join(scratch, "child_result.json"),
        }
        record = run_child(config, scratch)
        leaked = spill_dirs(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ops = record["ops"]
    failed = [op for op in ops if not op["ok"]]
    out = {
        "workload": name,
        "constants": workload.constants(),
        "reference": reference,
        "attempted": len(ops),
        "failed": len(failed),
        "errors": [op["error"] for op in failed][:5],
        "digests": sorted({op["digest"] for op in ops if op.get("digest")}),
        "leaked": leaked,
        "op_seconds": [op["seconds"] for op in ops],
    }
    plans = sorted({op["plan"] for op in ops if op.get("plan")})
    if plans:
        out["plan.choice"] = plans
    if trace:
        out["metrics"] = record["metrics"]
        out["spans"] = record["spans"]
    else:
        setup_s = record["timed_start_monotonic"] - started
        out["metrics"] = end_to_end_metrics(record, reference["n_docs"], setup_s)
    out["correct"] = not failed and not leaked and bool(ops)
    return out


def print_workload(out: dict) -> None:
    name = out["workload"]
    for metric, entry in out["metrics"].items():
        note = f"  (n={entry['samples']})" if "samples" in entry else ""
        print(f"{name:13s} {metric:28s} {entry['value']:.6g} {entry['unit']}{note}")
    share = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"{name:13s} {'fail_share':28s} {share:.6g} ratio  "
          f"(ops_attempted={out['attempted']} ops_failed={out['failed']})")
    for choice in out.get("plan.choice", []):
        print(f"{name:13s} plan.choice                  {choice}")
    print(f"{name:13s} digest                       "
          f"{' '.join(d[:16] for d in out['digests']) or '-'}"
          f"  reference {out['reference']['digest'][:16]}")
    for error in out["errors"]:
        print(f"{name:13s} FAILED OP: {error}")
    for path in out["leaked"]:
        print(f"{name:13s} LEAKED: {path}")


def check_declared(spec: dict, results: dict[int, list[dict]]) -> list[str]:
    """Selftest: what the run emitted is exactly what BENCHMARK.json declares."""
    from workloads import WORKLOADS

    problems: list[str] = []
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    # The driver runs the declared workloads only: its time limit holds
    # four at this run length. The others are built and run by hand.
    names = [w["name"] for w in spec["workloads"]]
    for unknown in sorted(set(names) - set(WORKLOADS)):
        problems.append(f"declared workload {unknown} is not built")
    if not 2 <= len(names) <= 8:
        problems.append(f"{len(names)} workloads (want 2..8)")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append(f"{len(spec['end_to_end'])} end-to-end metrics (want 1..16)")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append(f"{len(spec['per_layer'])} per-layer metrics (want 1..128)")
    every = list(WORKLOADS) + [
        m["name"] for group in declared.values() for m in group
    ]
    for item in every:
        if not NAME_RE.match(item):
            problems.append(f"bad name {item!r}")
    if len(set(every)) != len(every):
        problems.append("a name is used twice")
    for trace, outs in results.items():
        want = {m["name"]: m["unit"] for m in declared[trace]}
        for out in outs:
            got = {k: v.get("unit") for k, v in out["metrics"].items()}
            where = f"{out['workload']} --trace {trace}"
            for missing in sorted(set(want) - set(got)):
                problems.append(f"{where}: declared metric {missing} not emitted")
            for extra in sorted(set(got) - set(want)):
                problems.append(f"{where}: undeclared metric {extra} emitted")
            for metric in sorted(set(want) & set(got)):
                if not got[metric] or got[metric] != want[metric]:
                    problems.append(
                        f"{where}: {metric} unit {got[metric]!r} != "
                        f"declared {want[metric]!r}"
                    )
            if not out["correct"]:
                problems.append(f"{where}: {out['failed']} failed op(s), "
                                f"leaked {out['leaked']}")
    return problems


def selftest(spec: dict, names: list[str], base: str, seed: int,
             segments_before: set[str]) -> int:
    """Every workload at one tenth scale, both passes, ``nproc`` at a time
    (nothing is being timed), checked against ``BENCHMARK.json``."""
    from concurrent.futures import ThreadPoolExecutor

    started = time.perf_counter()
    jobs = [(trace, name) for trace in (0, 1) for name in names]
    with ThreadPoolExecutor(max_workers=host_fingerprint()["nproc"]) as pool:
        outs = list(pool.map(
            lambda job: run_workload(job[1], base, seed=seed, seconds=0.0,
                                     trace=job[0], selftest=True),
            jobs,
        ))
    results: dict[int, list[dict]] = {0: [], 1: []}
    for (trace, _name), out in zip(jobs, outs):
        print_workload(out)
        results[trace].append(out)
    problems = check_declared(spec, results)
    problems += [f"leaked {path}" for path in sorted(shm_segments() - segments_before)]
    for problem in problems:
        print(f"selftest: {problem}")
    print(f"selftest: {'FAILED' if problems else 'ok'} "
          f"({len(names)} workloads x 2 passes, "
          f"{time.perf_counter() - started:.1f} s)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1,
                        help="corpus seed: the only thing that changes inputs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the timed ops of one workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; "
                        "1: traced pass, per-layer metrics")
    parser.add_argument("--out", help="write the full JSON record here")
    parser.add_argument("--trace-out", help="write the traced pass's spans here")
    parser.add_argument("--selftest", action="store_true",
                        help="every workload at one tenth scale, both passes; "
                        "checks the emitted metrics against BENCHMARK.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_ROOT, "repro")):
        print(f"perfbench: no program to measure at {SRC_ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_ROOT)
    from workloads import WORKLOADS

    if args.workload == "all" or args.selftest:
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    os.makedirs(SCRATCH_BASE, exist_ok=True)
    base = tempfile.mkdtemp(prefix="run_", dir=SCRATCH_BASE)
    segments_before = shm_segments()
    try:
        if args.selftest:
            return selftest(spec, names, base, args.seed, segments_before)
        outs = []
        for name in names:
            out = run_workload(name, base, seed=args.seed,
                               seconds=args.seconds, trace=args.trace)
            print_workload(out)
            outs.append(out)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_BASE)
        except OSError:
            pass  # another run is using it
    leaked_segments = sorted(shm_segments() - segments_before)
    for path in leaked_segments:
        print(f"LEAKED: {path}")

    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "commit": git_commit(),
        "leaked_segments": leaked_segments,
        "workloads": {
            out["workload"]: {k: v for k, v in out.items() if k != "spans"}
            for out in outs
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    if args.trace_out and args.trace:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({out["workload"]: out["spans"] for out in outs}, handle)

    correct = all(out["correct"] for out in outs) and not leaked_segments
    summary = {
        "correct": correct,
        "attempted": sum(out["attempted"] for out in outs),
        "failed": sum(out["failed"] for out in outs),
    }
    plain = [
        {name: {"value": entry["value"], "unit": entry["unit"]}
         for name, entry in out["metrics"].items()}
        for out in outs
    ]
    # One workload: the driver's result line. Several: keyed by workload.
    summary["metrics"] = plain[0] if len(outs) == 1 else {
        out["workload"]: metrics for out, metrics in zip(outs, plain)
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
