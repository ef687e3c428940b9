"""CI smoke for the out-of-core tiled data plane: run under a hard cap.

perfbench's ``nsf-oocore`` workload measures; this smoke *enforces*. It
runs the same pipeline three times, each in a fresh child process (this
script re-invoked with ``--child``), because ``ru_maxrss``/``VmPeak`` are
per-process high-water marks that never go down:

1. **untiled** — the reference digest and the untiled address-space
   footprint (``VmPeak``);
2. **tiled, uncapped** — a memory budget smaller than the matrix; must
   be bit-identical and keep ``peak_pinned_bytes`` under the budget;
3. **tiled, capped** — the same budgeted run under ``RLIMIT_AS`` set
   *below the untiled footprint* (midway between the two measured
   ``VmPeak`` values). The untiled pipeline could not even map that much
   address space; the tiled one must complete there bit-identically.

Exit code 0 when all three gates hold; 1 with a diagnostic otherwise.
A separation gate guards the cap itself: if tiling stopped saving
address space (tiled ``VmPeak`` within ``--min-separation-mb`` of
untiled), the midpoint cap would be meaningless, so that regresses too.

Usage::

    PYTHONPATH=src python tools/oocore_smoke.py            # CI defaults
    PYTHONPATH=src python tools/oocore_smoke.py --scale 0.1 --verbose
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys

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


def run_child(config: dict) -> dict:
    """One pipeline run in this process: regenerate the deterministic
    corpus, run it (optionally under a ``memory_budget`` and/or an
    ``RLIMIT_AS`` cap) and report the output digest and memory envelope."""
    from repro.core.pipeline import output_digest, run_pipeline
    from repro.exec.process import make_backend
    from repro.ops.kmeans import KMeansOperator
    from repro.ops.tfidf import TfIdfOperator
    from repro.text.synth import MIX_PROFILE, NSF_ABSTRACTS_PROFILE, generate_corpus

    rlimit_as = config.get("rlimit_as")
    if rlimit_as:
        resource.setrlimit(resource.RLIMIT_AS, (int(rlimit_as), int(rlimit_as)))
    profiles = {"mix": MIX_PROFILE, "nsf-abstracts": NSF_ABSTRACTS_PROFILE}
    corpus = generate_corpus(
        profiles[config["profile"]],
        scale=float(config["scale"]),
        seed=int(config["seed"]),
    )
    backend = make_backend("sequential", 1)
    try:
        result = run_pipeline(
            corpus,
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
    parser.add_argument("--scale", type=float, default=0.05)
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

        print("tiled, uncapped...")
        tiled = _child({**base, "memory_budget": budget}, "tiled", args.verbose)
        if tiled["digest"] != ref["digest"]:
            print("error: tiled output diverged from the untiled reference",
                  file=sys.stderr)
            return 1
        pinned = int(tiled["tiles"]["peak_pinned_bytes"])
        if pinned > budget:
            print(f"error: peak_pinned_bytes {pinned:,} exceeds the "
                  f"{budget:,}-byte budget", file=sys.stderr)
            return 1

        separation_kb = int(ref["vm_peak_kb"]) - int(tiled["vm_peak_kb"])
        if separation_kb < args.min_separation_mb * 1024:
            print(f"error: tiling saved only {separation_kb} kB of address "
                  f"space (untiled VmPeak {ref['vm_peak_kb']} kB, tiled "
                  f"{tiled['vm_peak_kb']} kB) — below the "
                  f"{args.min_separation_mb:g} MB separation gate, so an "
                  f"RLIMIT_AS below the untiled footprint cannot be set "
                  f"meaningfully", file=sys.stderr)
            return 1

        # Midway between the two footprints: provably below what the
        # untiled run needed, comfortably above what the tiled run used.
        cap_bytes = 1024 * (int(ref["vm_peak_kb"]) + int(tiled["vm_peak_kb"])) // 2
        print(f"tiled under RLIMIT_AS {cap_bytes:,} bytes "
              f"(untiled needed {ref['vm_peak_kb'] * 1024:,})...")
        capped = _child(
            {**base, "memory_budget": budget, "rlimit_as": cap_bytes},
            "capped", args.verbose,
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if capped["digest"] != ref["digest"]:
        print("error: capped tiled output diverged from the untiled "
              "reference", file=sys.stderr)
        return 1
    print(f"ok: bounded-memory run bit-identical under an address-space cap "
          f"{(ref['vm_peak_kb'] * 1024 - cap_bytes) / 1e6:.1f} MB below the "
          f"untiled footprint (budget {budget:,} B, peak pinned {pinned:,} B)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
