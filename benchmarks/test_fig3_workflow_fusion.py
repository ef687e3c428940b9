"""Figure 3 — discrete vs merged TF/IDF→K-means workflow (NSF Abstracts).

Paper shape: storing the TF/IDF scores on disk between the operators
(discrete) versus handing them over in memory (merged). At 1 thread, I/O
adds 36.9% to the execution time; at 16 threads the discrete workflow is
3.84x slower because the serial ARFF round trip does not parallelise
while everything else does.

The stacked phase breakdown uses the paper's segment names: input+wc,
tfidf-output, kmeans-input, transform, kmeans, output.
"""

import pytest

from repro.bench import FIG3_THREADS, run_paper_workflow
from repro.sim import format_breakdown_table, format_comparison_rows

PHASE_ORDER = [
    "input+wc",
    "tfidf-output",
    "kmeans-input",
    "transform",
    "kmeans",
    "output",
]


@pytest.fixture(scope="module")
def figure3_runs(nsf_workload):
    runs = {}
    for workers in FIG3_THREADS:
        for mode in ("discrete", "merged"):
            result = run_paper_workflow(
                nsf_workload, mode=mode, wc_dict_kind="map", workers=workers
            )
            runs[(mode, workers)] = result
    return runs


def test_fig3_stacked_breakdown(benchmark, figure3_runs, report):
    runs = benchmark.pedantic(lambda: figure3_runs, rounds=1, iterations=1)
    breakdowns = {
        f"{mode[:4]}/{workers}T": runs[(mode, workers)].breakdown()
        for workers in FIG3_THREADS
        for mode in ("discrete", "merged")
    }
    table = format_breakdown_table(
        breakdowns,
        phases=PHASE_ORDER,
        title=(
            "Figure 3 — TF/IDF->K-means execution time (s), NSF Abstracts\n"
            "discrete (ARFF on disk) vs merged (in-memory)"
        ),
    )

    ratio_1 = runs[("discrete", 1)].total_s / runs[("merged", 1)].total_s
    ratio_16 = runs[("discrete", 16)].total_s / runs[("merged", 16)].total_s
    rows = format_comparison_rows(
        [
            ("I/O overhead @1T", "+36.9%", f"+{(ratio_1 - 1) * 100:.1f}%"),
            ("discrete/merged @16T", "3.84x", f"{ratio_16:.2f}x"),
        ],
        title="Figure 3 anchors",
    )
    report("fig3_workflow_fusion", table + "\n\n" + rows)

    # Shape 1: discrete is slower at every thread count.
    for workers in FIG3_THREADS:
        assert (
            runs[("discrete", workers)].total_s > runs[("merged", workers)].total_s
        )
    # Shape 2: the penalty is modest at 1 thread...
    assert 1.1 < ratio_1 < 1.8
    # ...and large at 16 threads (paper: 3.84x; accept 2.5-5.5).
    assert 2.5 < ratio_16 < 5.5
    assert ratio_16 > 2 * ratio_1

    # Shape 3: the round-trip phases exist only in discrete mode and are
    # roughly thread-independent (they are serial).
    d1 = runs[("discrete", 1)].breakdown()
    d16 = runs[("discrete", 16)].breakdown()
    for phase in ("tfidf-output", "kmeans-input"):
        assert phase in d1 and phase not in runs[("merged", 1)].breakdown()
        assert d16[phase] == pytest.approx(d1[phase], rel=0.05)


def test_fig3_fusion_rewriter_matches_merged_mode(benchmark, nsf_workload):
    """fuse_workflow(discrete graph) must behave like the merged build."""
    from repro.sim import (
        SimScheduler,
        build_tfidf_kmeans_workflow,
        fuse_workflow,
        paper_node,
    )

    def run():
        fused = build_tfidf_kmeans_workflow(
            mode="discrete", max_iters=10, scale=nsf_workload.scale
        )
        fuse_workflow(fused)
        return fused.run(
            SimScheduler(paper_node(16)),
            nsf_workload.storage,
            inputs={"tfidf.corpus_prefix": nsf_workload.prefix},
            workers=16,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    merged = run_paper_workflow(nsf_workload, mode="merged", workers=16)
    assert result.total_s == pytest.approx(merged.total_s, rel=1e-6)
