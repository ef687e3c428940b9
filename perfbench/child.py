"""Workload child: one workload, one pass, in a process of its own.

``run.py`` starts this file once per workload so that ``ru_maxrss`` is
the workload's own high-water mark (the reference run happens in the
parent and never touches it). The child reads a JSON config, sets the
workload up, runs the warm-up ops, then either the default pass (timed
ops, tracing off) or the traced pass (:mod:`layers`), and writes one
JSON result file for the parent to score.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(config_path: str) -> dict:
    with open(config_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def set_up(cfg: dict):
    """Everything between process start and the first warm-up op."""
    from repro.io import FsStorage, load_corpus
    from repro.plan import CalibrationStore

    from digest import output_digest
    from spans import NullRecorder
    from workloads import (
        Context, Daemon, OOCORE_BUDGET_DIVISOR, Workload, batch_op,
    )

    workload = Workload(**cfg["workload"])
    ctx = Context(workload, cfg["corpus_dir"], cfg["scratch"])
    if not workload.read_workers or cfg["trace"]:
        # In-memory workloads hold the stored corpus (disk order, the same
        # documents the reference saw); the traced pass probes every layer
        # over it, so it loads it for streamed workloads too.
        ctx.corpus = load_corpus(FsStorage(ctx.corpus_dir), "")
    if workload.planned or cfg["trace"]:
        ctx.calibration = CalibrationStore.load(
            os.path.join(HERE, "calibration.json")
        )
    ctx.memory_budget = max(
        1, cfg["reference"]["matrix_bytes"] // OOCORE_BUDGET_DIVISOR
    )
    if workload.cache == "warm":
        # Pre-fill the store: the one op of this workload that computes.
        _seconds, result = batch_op(ctx, NullRecorder())
        if output_digest(result) != cfg["reference"]["digest"]:
            raise RuntimeError("cache pre-fill op produced a wrong output")
    if workload.served:
        # Last, so nothing after it in set-up can fail and strand it.
        ctx.daemon = Daemon(
            os.path.join(ctx.scratch, "serve_state"), cfg["src_root"]
        )
    return ctx


def default_pass(ctx, cfg: dict) -> dict:
    """Warm-ups, then timed ops for ``seconds`` with all tracing off."""
    from spans import NullRecorder
    from workloads import (
        SERVE_CLIENTS, closed_loop, one_batch_op, one_serve_op,
    )

    rec = NullRecorder()
    reference = cfg["reference"]
    w = ctx.workload
    warmups = []
    for index in range(cfg["warmup_ops"]):
        if w.served:
            warmups.append(one_serve_op(ctx, f"warm-{index}", reference))
        else:
            warmups.append(one_batch_op(ctx, rec, reference))
    bad = [op["error"] for op in warmups if not op["ok"]]
    if bad:
        raise RuntimeError(f"warm-up op failed verification: {bad[0]}")
    out: dict = {"timed_start_monotonic": time.monotonic()}
    if w.served:
        ops = closed_loop(
            ctx, reference, cfg["seconds"], cfg["min_ops"], SERVE_CLIENTS,
            "job",
        )
        out["busy_s"] = (
            max(op["end"] for op in ops) - min(op["start"] for op in ops)
        )
    else:
        ops = []
        t0 = time.perf_counter()
        while (len(ops) < cfg["min_ops"]
               or time.perf_counter() - t0 < cfg["seconds"]):
            ops.append(one_batch_op(ctx, rec, reference))
        out["busy_s"] = sum(op["seconds"] or 0.0 for op in ops)
    out["ops"] = ops
    return out


def main(argv: list[str]) -> int:
    cfg = _load(argv[1])
    sys.path.insert(0, cfg["src_root"])
    from workloads import peak_rss_kb

    ctx = set_up(cfg)
    try:
        if cfg["trace"]:
            from layers import traced_pass

            out = traced_pass(ctx, cfg)
        else:
            out = default_pass(ctx, cfg)
    finally:
        if ctx.daemon is not None:
            peak = ctx.daemon.stop()
    if ctx.daemon is not None:
        if ctx.daemon.proc.returncode != 0:
            raise RuntimeError(
                f"serve daemon exited {ctx.daemon.proc.returncode}"
            )
    else:
        peak = peak_rss_kb()
    if peak is None:  # no /proc: fall back to the rusage figure
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_kb"] = peak
    tmp = cfg["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    os.replace(tmp, cfg["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
