"""Workflow fusion (paper §3.3): discrete vs merged, at 1 and 16 threads.

Builds the TF/IDF → K-means workflow both ways — operators communicating
through an ARFF file on the simulated disk, versus handing the scores over
in memory — and shows the paper's headline effect: the file round trip is
a modest overhead sequentially but dominates once every other phase runs
in parallel. Also demonstrates the :func:`repro.fuse_workflow` rewriter.

Run with::

    python examples/workflow_fusion_demo.py
"""

from repro import NSF_ABSTRACTS_PROFILE, MemStorage, generate_corpus, store_corpus
from repro.sim import (
    SimScheduler,
    build_tfidf_kmeans_workflow,
    fuse_workflow,
    paper_node,
)

PHASES = ["input+wc", "tfidf-output", "kmeans-input", "transform", "kmeans", "output"]


def run(workflow, storage, workers):
    return workflow.run(
        SimScheduler(paper_node(16)),
        storage,
        inputs={"tfidf.corpus_prefix": "input/"},
        workers=workers,
    )


def main() -> None:
    corpus = generate_corpus(NSF_ABSTRACTS_PROFILE, scale=0.003, seed=1)
    storage = MemStorage()
    store_corpus(storage, corpus, prefix="input/")
    print(f"corpus: {len(corpus)} documents (NSF-Abstracts profile)\n")

    results = {}
    for workers in (1, 16):
        for mode in ("discrete", "merged"):
            workflow = build_tfidf_kmeans_workflow(mode=mode, max_iters=10)
            results[(mode, workers)] = run(workflow, storage, workers)

    header = f"{'phase':>14} | {'disc/1T':>9} | {'merg/1T':>9} | {'disc/16T':>9} | {'merg/16T':>9}"
    print(header)
    print("-" * len(header))
    for phase in PHASES:
        cells = [
            results[(mode, workers)].breakdown().get(phase, 0.0)
            for workers in (1, 16)
            for mode in ("discrete", "merged")
        ]
        print(f"{phase:>14} | " + " | ".join(f"{c:9.3f}" for c in cells))
    totals = [
        results[(mode, workers)].total_s
        for workers in (1, 16)
        for mode in ("discrete", "merged")
    ]
    print("-" * len(header))
    print(f"{'total':>14} | " + " | ".join(f"{t:9.3f}" for t in totals))

    for workers in (1, 16):
        d = results[("discrete", workers)].total_s
        m = results[("merged", workers)].total_s
        print(f"\nat {workers:2} thread(s): storing the intermediate costs "
              f"{(d / m - 1) * 100:5.1f}% extra (discrete/merged = {d / m:.2f}x)")

    # The fusion rewriter turns a discrete graph into the merged one.
    workflow = build_tfidf_kmeans_workflow(mode="discrete", max_iters=10)
    report = fuse_workflow(workflow)
    fused = run(workflow, storage, 16)
    print(f"\nfuse_workflow() rewrote {report.n_fused} edge(s): "
          f"{', '.join(report.fused_edges)}")
    print(f"fused graph matches merged mode: "
          f"{abs(fused.total_s - results[('merged', 16)].total_s) < 1e-9}")


if __name__ == "__main__":
    main()
