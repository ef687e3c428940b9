"""Real multi-core execution: the fused pipeline on actual processes.

The other examples run on the virtual-time simulator. This one runs the
same TF/IDF → K-means workflow *for real* — once on the sequential
backend and once on a process pool with chunk-batched IPC — then
checks that both produced bit-identical output and reports the measured
wall-clock times per phase.

Run with::

    python examples/real_parallel.py [--workers N] [--scale S]
"""

import argparse
import os

from repro.core.pipeline import run_pipeline
from repro.exec import make_backend
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text.synth import MIX_PROFILE, generate_corpus


def _run(corpus, backend_name: str, workers: int):
    with make_backend(backend_name, workers) as backend:
        return run_pipeline(
            corpus,
            backend=backend,
            tfidf=TfIdfOperator(),
            kmeans=KMeansOperator(n_clusters=8, max_iters=10, seed=0),
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="process-pool size (default: all cores)")
    parser.add_argument("--scale", type=float, default=0.01,
                        help="corpus scale relative to the paper's Mix")
    args = parser.parse_args()

    corpus = generate_corpus(MIX_PROFILE, scale=args.scale, seed=42)
    print(f"corpus: {len(corpus)} documents, "
          f"{corpus.total_bytes / 1e6:.1f} MB "
          f"(host has {os.cpu_count()} cores)")

    sequential = _run(corpus, "sequential", 1)
    parallel = _run(corpus, "processes", args.workers)

    # Backend choice must not change the answer — only the wall clock.
    seq_rows = [
        (tuple(r.indices), tuple(r.values))
        for r in sequential.tfidf.matrix.iter_rows()
    ]
    par_rows = [
        (tuple(r.indices), tuple(r.values))
        for r in parallel.tfidf.matrix.iter_rows()
    ]
    identical = (
        seq_rows == par_rows
        and sequential.kmeans.assignments == parallel.kmeans.assignments
    )
    print(f"output identical across backends: {identical}")
    assert identical

    print(f"\n{'phase':>12}  {'sequential':>10}  "
          f"{'processes x' + str(args.workers):>12}")
    for phase in sequential.phase_seconds:
        seq_s = sequential.phase_seconds[phase]
        par_s = parallel.phase_seconds[phase]
        print(f"{phase:>12}  {seq_s:9.3f}s  {par_s:11.3f}s")
    print(f"{'total':>12}  {sequential.total_s:9.3f}s  "
          f"{parallel.total_s:11.3f}s "
          f"(speedup {sequential.total_s / parallel.total_s:.2f}x)")

    sizes = parallel.kmeans.cluster_sizes()
    print(f"\nclusters ({parallel.kmeans.n_iters} iterations):")
    for cluster_id, size in enumerate(sizes):
        print(f"  cluster {cluster_id}: {size} documents")

    if (os.cpu_count() or 1) == 1:
        print("\n(single-core host: the process pool pays IPC overhead "
              "with no cores to spend it on — expect <1x here)")


if __name__ == "__main__":
    main()
