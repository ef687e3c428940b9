"""Calibration harness: measured-vs-paper for every anchor quantity.

Run with ``python tools/calibrate.py [scale]``. Prints each paper anchor
next to the value the current cost constants produce, so the constants in
``repro.sim.cost_model`` and ``repro.dicts.cost`` can be tuned until the
shapes match. All reported seconds are full-scale (the WorkloadScale does
the extrapolation at metering time).

Development tool; the polished per-figure reports live in ``benchmarks/``.
"""

from __future__ import annotations

import sys

from repro.bench import prepare_workload, run_paper_workflow
from repro.text import MIX_PROFILE, NSF_ABSTRACTS_PROFILE


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    mix = prepare_workload(MIX_PROFILE, scale=scale)
    nsf = prepare_workload(NSF_ABSTRACTS_PROFILE, scale=scale / 2)
    print(f"mix: {mix.n_docs} docs, vocab {mix.stats.distinct_words}, "
          f"doc_factor {mix.scale.doc_factor:.0f}, vocab_factor {mix.scale.vocab_factor:.1f}")
    print(f"nsf: {nsf.n_docs} docs, vocab {nsf.stats.distinct_words}, "
          f"doc_factor {nsf.scale.doc_factor:.0f}, vocab_factor {nsf.scale.vocab_factor:.1f}")

    print("=== Fig 4 (Mix) ===")
    for kind in ("map", "unordered_map"):
        r1 = run_paper_workflow(mix, "merged", kind, workers=1)
        r16 = run_paper_workflow(mix, "merged", kind, workers=16)
        b1, b16 = r1.breakdown(), r16.breakdown()
        print(f"-- {kind} @1T : " + "  ".join(f"{k}={v:7.2f}" for k, v in b1.items()))
        print(f"-- {kind} @16T: " + "  ".join(f"{k}={v:7.2f}" for k, v in b16.items()))
        print(f"   transform scaling: {b1['transform']/b16['transform']:.2f}x "
              f"(paper: map 6.1x, u-map 3.4x); "
              f"input+wc scaling: {b1['input+wc']/b16['input+wc']:.2f}x; "
              f"peak mem {r16.peak_resident_bytes/1e9:.2f} GB (paper: map 0.42, u-map 12.8)")

    print("=== Fig 1 (kmeans speedups) ===")
    for label, wl, paper in (("mix", mix, "2.5x@20"), ("nsf", nsf, "8x@20")):
        times = {}
        for T in (1, 4, 8, 16, 20):
            times[T] = run_paper_workflow(wl, "merged", "map", workers=T).breakdown()["kmeans"]
        print(f"   {label}: " + str({T: round(times[1]/t, 2) for T, t in times.items()})
              + f"  seq={times[1]:.1f}s (paper {'3.3s' if label=='mix' else '40.9s'}, {paper})")

    print("=== Fig 2 (tfidf speedups incl. serial output) ===")
    for label, wl in (("mix", mix), ("nsf", nsf)):
        times = {}
        for T in (1, 4, 8, 16, 20):
            b = run_paper_workflow(wl, "discrete", "map", workers=T).breakdown()
            times[T] = b["input+wc"] + b["transform"] + b["tfidf-output"]
        print(f"   {label}: " + str({T: round(times[1]/t, 2) for T, t in times.items()})
              + "  (paper: mix ~6x, nsf ~7x @20)")

    print("=== Fig 3 (NSF discrete vs merged) ===")
    for T in (1, 16):
        d = run_paper_workflow(nsf, "discrete", "map", workers=T)
        m = run_paper_workflow(nsf, "merged", "map", workers=T)
        print(f"   @{T:2}T: discrete={d.total_s:7.2f}s merged={m.total_s:7.2f}s "
              f"ratio={d.total_s/m.total_s:.2f} (paper: 1.369@1T, 3.84@16T)")
        if T == 1:
            print("      discrete:", {k: round(v, 1) for k, v in d.breakdown().items()})
            print("      merged  :", {k: round(v, 1) for k, v in m.breakdown().items()})


if __name__ == "__main__":
    main()
