"""CI smoke for the out-of-core tiled data plane: run under a hard cap.

perfbench's ``nsf-oocore`` workload measures; this smoke *enforces*. It
runs the same pipeline four times, each in a fresh child process (this
script re-invoked with ``--child``), because ``ru_maxrss``/``VmPeak`` are
per-process high-water marks that never go down:

1. **untiled, in memory** — the reference digest and the matrix size
   the budget is a fraction of;
2. **untiled, streamed** — the corpus streamed from disk (stored under
   the smoke's temporary directory) through ``corpus_stream(workers=2)``:
   the untiled address-space footprint (``VmPeak``) of that route;
3. **tiled, streamed** — a memory budget smaller than the matrix; must
   be bit-identical and keep ``peak_pinned_bytes`` under the budget;
4. **tiled, streamed, capped** — the same budgeted run under
   ``RLIMIT_AS`` set *below the untiled footprint* (midway between the
   two streamed ``VmPeak`` values), so batched reads, the budget-sized
   tile cut and the tiled k-means all run under the cap. The untiled
   pipeline could not even map that much address space; the tiled one
   must complete there bit-identically.

Every child runs with one malloc arena: each reader thread would
otherwise reserve an arena of its own (64 MB of address space on 64-bit
glibc), and the cap would measure those reservations, not the matrix.

Exit code 0 when all gates hold; 1 with a diagnostic otherwise. A
separation gate guards the cap itself: if tiling stopped saving address
space (tiled ``VmPeak`` within ``--min-separation-mb`` of untiled), the
midpoint cap would be meaningless, so that regresses too.

Usage::

    PYTHONPATH=src python tools/oocore_smoke.py            # CI defaults
    PYTHONPATH=src python tools/oocore_smoke.py --scale 0.1 --verbose
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import resource
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))


def _vm_peak_kb() -> int | None:
    """VmPeak from ``/proc/self/status`` (kB) — the address-space high
    water the rlimit caps; ``None`` off Linux."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _one_malloc_arena() -> None:
    """Keep every thread on the main malloc arena (glibc only; a no-op
    elsewhere): ``mallopt(M_ARENA_MAX, 1)``."""
    name = ctypes.util.find_library("c")
    if name is None:
        return
    mallopt = getattr(ctypes.CDLL(name), "mallopt", None)
    if mallopt is not None:
        mallopt(-8, 1)  # M_ARENA_MAX


def _corpus(config: dict):
    """The deterministic corpus the smoke runs."""
    from repro.text.synth import MIX_PROFILE, NSF_ABSTRACTS_PROFILE, generate_corpus

    profiles = {"mix": MIX_PROFILE, "nsf-abstracts": NSF_ABSTRACTS_PROFILE}
    return generate_corpus(
        profiles[config["profile"]],
        scale=float(config["scale"]),
        seed=int(config["seed"]),
    )


def run_child(config: dict) -> dict:
    """One pipeline run in this process: regenerate the deterministic
    corpus — or stream it from ``corpus_dir`` through two reader threads —
    run it (optionally under a ``memory_budget`` and/or an ``RLIMIT_AS``
    cap) and report the output digest and memory envelope."""
    from repro.core.pipeline import output_digest, run_pipeline
    from repro.exec.process import make_backend
    from repro.io import FsStorage, corpus_stream
    from repro.ops.kmeans import KMeansOperator
    from repro.ops.tfidf import TfIdfOperator

    _one_malloc_arena()
    rlimit_as = config.get("rlimit_as")
    if rlimit_as:
        resource.setrlimit(resource.RLIMIT_AS, (int(rlimit_as), int(rlimit_as)))
    if config.get("corpus_dir"):
        source = corpus_stream(FsStorage(config["corpus_dir"]), workers=2)
    else:
        source = _corpus(config)
    backend = make_backend("sequential", 1)
    try:
        result = run_pipeline(
            source,
            backend=backend,
            tfidf=TfIdfOperator(),
            kmeans=KMeansOperator(max_iters=int(config["kmeans_iters"])),
            memory_budget=config.get("memory_budget"),
        )
    finally:
        backend.close()

    out = {
        "digest": output_digest(result),
        "total_s": result.total_s,
        "matrix_bytes": result.tfidf.matrix.resident_bytes(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "vm_peak_kb": _vm_peak_kb(),
        "tiles": result.tiles,
    }
    close = getattr(result.tfidf.matrix, "close", None)
    if close is not None:
        close()
    return out


def _child(config: dict, label: str, verbose: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", json.dumps(config)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip()[-800:]
        raise RuntimeError(f"{label} child failed (exit {proc.returncode}): {tail}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if verbose:
        print(
            f"  {label}: total {out['total_s']:.3f}s, "
            f"rss {out['peak_rss_kb'] / 1024:.1f} MB, "
            f"vm_peak {out['vm_peak_kb'] / 1024:.1f} MB"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(run_child(json.loads(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=["mix", "nsf-abstracts"],
                        default="mix")
    # Mix@0.1: a 10 MB matrix, so its quarter budget can save more than
    # the separation gate. At 0.05 (5 MB) it can save at most 3.7 MB.
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kmeans-iters", type=int, default=3)
    parser.add_argument("--budget-fraction", type=float, default=0.25,
                        help="memory budget as a fraction of the matrix "
                        "footprint (must be < 1: the out-of-core case)")
    parser.add_argument("--min-separation-mb", type=float, default=4.0,
                        help="minimum address-space saving (untiled VmPeak "
                        "minus tiled VmPeak) for the cap to be meaningful")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if not 0 < args.budget_fraction < 1:
        print(f"error: --budget-fraction must be in (0, 1), got "
              f"{args.budget_fraction}", file=sys.stderr)
        return 1

    base = {
        "profile": args.profile,
        "scale": args.scale,
        "seed": args.seed,
        "kmeans_iters": args.kmeans_iters,
    }

    try:
        print("untiled reference...")
        ref = _child(base, "untiled", args.verbose)
        matrix_bytes = int(ref["matrix_bytes"])
        budget = max(1, int(matrix_bytes * args.budget_fraction))
        print(f"matrix {matrix_bytes:,} bytes; budget {budget:,} "
              f"({args.budget_fraction:g}x)")
        with tempfile.TemporaryDirectory(prefix="repro_oocore_smoke_") as tmp:
            from repro.io import FsStorage, store_corpus

            corpus_dir = os.path.join(tmp, "corpus")
            store_corpus(FsStorage(corpus_dir), _corpus(base))
            streamed = {**base, "corpus_dir": corpus_dir}
            capped = _streamed_runs(streamed, ref, budget, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"ok: bounded-memory streamed run bit-identical under an "
          f"address-space cap {capped['below_mb']:.1f} MB below the untiled "
          f"footprint (budget {budget:,} B, peak pinned "
          f"{capped['pinned']:,} B)")
    return 0


def _streamed_runs(streamed: dict, ref: dict, budget: int, args):
    """Children 2-4 over the stored corpus; a failed gate raises
    :class:`RuntimeError` with its diagnostic."""
    print("untiled, streamed...")
    untiled = _child(streamed, "untiled-streamed", args.verbose)
    if untiled["digest"] != ref["digest"]:
        raise RuntimeError(
            "streamed output diverged from the in-memory reference"
        )

    print("tiled, streamed...")
    tiled = _child({**streamed, "memory_budget": budget}, "tiled", args.verbose)
    if tiled["digest"] != ref["digest"]:
        raise RuntimeError("tiled output diverged from the untiled reference")
    pinned = int(tiled["tiles"]["peak_pinned_bytes"])
    if pinned > budget:
        raise RuntimeError(
            f"peak_pinned_bytes {pinned:,} exceeds the {budget:,}-byte budget"
        )

    separation_kb = int(untiled["vm_peak_kb"]) - int(tiled["vm_peak_kb"])
    if separation_kb < args.min_separation_mb * 1024:
        raise RuntimeError(
            f"tiling saved only {separation_kb} kB of address space "
            f"(untiled VmPeak {untiled['vm_peak_kb']} kB, tiled "
            f"{tiled['vm_peak_kb']} kB) — below the "
            f"{args.min_separation_mb:g} MB separation gate, so an "
            f"RLIMIT_AS below the untiled footprint cannot be set "
            f"meaningfully"
        )

    # Midway between the two footprints: provably below what the
    # untiled run needed, comfortably above what the tiled run used.
    untiled_bytes = 1024 * int(untiled["vm_peak_kb"])
    cap_bytes = (untiled_bytes + 1024 * int(tiled["vm_peak_kb"])) // 2
    print(f"tiled, streamed, under RLIMIT_AS {cap_bytes:,} bytes "
          f"(untiled needed {untiled_bytes:,})...")
    capped = _child(
        {**streamed, "memory_budget": budget, "rlimit_as": cap_bytes},
        "capped", args.verbose,
    )
    if capped["digest"] != ref["digest"]:
        raise RuntimeError(
            "capped tiled output diverged from the untiled reference"
        )
    return {"below_mb": (untiled_bytes - cap_bytes) / 1e6, "pinned": pinned}


if __name__ == "__main__":
    raise SystemExit(main())
