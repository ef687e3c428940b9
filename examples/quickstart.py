"""Quickstart: run the paper's TF/IDF → K-means workflow end to end.

Generates a small synthetic corpus in the style of the paper's *Mix* data
set, runs the fused workflow on a simulated 16-core node, and prints the
clustering together with the virtual-time phase breakdown.

Run with::

    python examples/quickstart.py
"""

from repro import MIX_PROFILE, MemStorage, generate_corpus, store_corpus
from repro.sim import SimScheduler, build_tfidf_kmeans_workflow, paper_node


def main() -> None:
    # 1. A corpus: ~230 documents statistically matched to Table 1's Mix.
    corpus = generate_corpus(MIX_PROFILE, scale=0.01, seed=42)
    storage = MemStorage()
    store_corpus(storage, corpus, prefix="input/")
    print(f"corpus: {len(corpus)} documents, {corpus.total_bytes / 1e6:.1f} MB")

    # 2. The paper's workflow, fused (in-memory handoff between operators).
    workflow = build_tfidf_kmeans_workflow(
        mode="merged", wc_dict_kind="map", n_clusters=8, max_iters=10
    )

    # 3. Execute on a simulated 16-core node with 16 threads.
    scheduler = SimScheduler(paper_node(cores=16))
    result = workflow.run(
        scheduler,
        storage,
        inputs={"tfidf.corpus_prefix": "input/"},
        workers=16,
    )

    # 4. Inspect the outcome.
    clusters = result.value("kmeans.clusters")
    print(f"\nclusters (k={clusters.n_clusters}, "
          f"{clusters.n_iters} iterations, converged={clusters.converged}):")
    for cluster_id, size in enumerate(clusters.cluster_sizes()):
        print(f"  cluster {cluster_id}: {size} documents")

    print(f"\nvirtual execution time on {scheduler.machine.name}: "
          f"{result.total_s:.3f}s across phases:")
    for phase, seconds in result.breakdown().items():
        print(f"  {phase:>12}: {seconds:7.3f}s")
    print(f"peak modelled memory: {result.peak_resident_bytes / 1e6:.1f} MB")

    # 5. The same run with one thread, to see what parallelism bought us.
    single = build_tfidf_kmeans_workflow(mode="merged").run(
        SimScheduler(paper_node(16)),
        storage,
        inputs={"tfidf.corpus_prefix": "input/"},
        workers=1,
    )
    print(f"\n1 thread:  {single.total_s:8.3f}s")
    print(f"16 threads:{result.total_s:8.3f}s "
          f"(speedup {single.total_s / result.total_s:.1f}x)")


if __name__ == "__main__":
    main()
