"""§3.1 — sparse parallel K-means vs WEKA's SimpleKMeans.

Paper text: "Using the 'SimpleKMeans' algorithm, a single-threaded K-Means
algorithm, on the same data sets requires over 2 hours, after which we
aborted the execution. In contrast, executing our implementation
sequentially required 3.3s and 40.9s for the Mix and NSF Abstracts data
sets respectively."

The baseline's pathologies (dense vectors over the full vocabulary,
per-iteration allocation churn) are executed for real at benchmark scale
and projected to full scale with the closed-form model.
"""

from repro.bench import run_paper_workflow
from repro.sim import (
    SimScheduler,
    SimpleKMeansBaseline,
    format_comparison_rows,
    paper_node,
)
from repro.text import MIX_PROFILE, NSF_ABSTRACTS_PROFILE


def _hours(seconds: float) -> str:
    return f"{seconds / 3600:.1f} h"


def test_sec31_weka_comparison(benchmark, mix_workload, nsf_workload, report):
    def run():
        rows = []
        for workload, profile, paper_ours in (
            (mix_workload, MIX_PROFILE, "3.3 s"),
            (nsf_workload, NSF_ABSTRACTS_PROFILE, "40.9 s"),
        ):
            ours = run_paper_workflow(workload, workers=1).breakdown()["kmeans"]
            baseline = SimpleKMeansBaseline(n_clusters=8, max_iters=10)
            projected = baseline.projected_seconds(
                n_docs=profile.paper_documents,
                vocabulary=profile.paper_distinct_words,
            )
            rows.append(
                (f"{profile.name}: ours sequential", paper_ours, f"{ours:.1f} s")
            )
            rows.append(
                (
                    f"{profile.name}: WEKA SimpleKMeans",
                    "> 2 h (aborted)",
                    _hours(projected),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "sec31_weka_baseline",
        format_comparison_rows(rows, title="§3.1 — K-means vs WEKA SimpleKMeans"),
    )

    # Shape: the baseline projects past the paper's 2-hour abort threshold
    # on both data sets while ours stays in seconds.
    baseline = SimpleKMeansBaseline(n_clusters=8, max_iters=10)
    for profile in (MIX_PROFILE, NSF_ABSTRACTS_PROFILE):
        assert (
            baseline.projected_seconds(
                profile.paper_documents, profile.paper_distinct_words
            )
            > 2 * 3600
        )


def test_sec31_baseline_runs_for_real_at_scale(benchmark, mix_workload):
    """The baseline isn't only a formula: it really clusters (serially)."""
    tfidf = run_paper_workflow(mix_workload, workers=1)
    scores = tfidf.value("tfidf.scores")
    baseline = SimpleKMeansBaseline(n_clusters=8, max_iters=5)
    result = benchmark.pedantic(
        lambda: baseline.run_simulated(SimScheduler(paper_node(1)), scores.matrix),
        rounds=1,
        iterations=1,
    )
    assert len(result.assignments) == scores.matrix.n_rows
    assert all(p.workers == 1 for p in result.timeline.phases)
