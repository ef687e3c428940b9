"""Figure 4 — std::unordered_map (u-map) vs std::map, Mix data set.

Paper shapes (merged TF/IDF→K-means workflow on Mix):

* the insert-heavy *input+wc* phase is faster with the tree (``map``);
* the lookup-only *transform* phase is faster with the hash table at one
  thread, but scales to only 3.4x at 16 threads versus 6.1x for the tree
  (memory pressure from the sparse, very large array);
* main memory: ~420 MB with the map vs ~12.8 GB with the unordered map.
"""

import pytest

from repro.bench import FIG3_THREADS, run_paper_workflow
from repro.sim import format_breakdown_table, format_comparison_rows

PHASE_ORDER = ["input+wc", "transform", "kmeans", "output"]


@pytest.fixture(scope="module")
def figure4_runs(mix_workload):
    runs = {}
    for workers in FIG3_THREADS:
        for kind in ("unordered_map", "map"):
            runs[(kind, workers)] = run_paper_workflow(
                mix_workload, mode="merged", wc_dict_kind=kind, workers=workers
            )
    return runs


def test_fig4_dictionary_breakdown(benchmark, figure4_runs, report):
    runs = benchmark.pedantic(lambda: figure4_runs, rounds=1, iterations=1)
    label = {"unordered_map": "u-map", "map": "map"}
    breakdowns = {
        f"{label[kind]}/{workers}T": runs[(kind, workers)].breakdown()
        for workers in FIG3_THREADS
        for kind in ("unordered_map", "map")
    }
    table = format_breakdown_table(
        breakdowns,
        phases=PHASE_ORDER,
        title=(
            "Figure 4 — TF/IDF->K-means execution time (s), Mix,\n"
            "std::unordered_map (u-map) vs std::map (map)"
        ),
    )

    def transform_scaling(kind):
        one = runs[(kind, 1)].breakdown()["transform"]
        sixteen = runs[(kind, 16)].breakdown()["transform"]
        return one / sixteen

    map_scaling = transform_scaling("map")
    umap_scaling = transform_scaling("unordered_map")
    map_memory = runs[("map", 16)].peak_resident_bytes
    umap_memory = runs[("unordered_map", 16)].peak_resident_bytes
    rows = format_comparison_rows(
        [
            ("transform scaling (map)", "6.1x", f"{map_scaling:.1f}x"),
            ("transform scaling (u-map)", "3.4x", f"{umap_scaling:.1f}x"),
            ("memory (map)", "420 MB", f"{map_memory / 1e6:.0f} MB"),
            ("memory (u-map)", "12.8 GB", f"{umap_memory / 1e9:.1f} GB"),
        ],
        title="Figure 4 anchors",
    )
    report("fig4_data_structures", table + "\n\n" + rows)

    # Shape 1 (§3.4): input+wc is faster with the map at one thread.
    assert (
        runs[("map", 1)].breakdown()["input+wc"]
        < runs[("unordered_map", 1)].breakdown()["input+wc"]
    )
    # Shape 2: transform is faster with the unordered map at one thread.
    assert (
        runs[("unordered_map", 1)].breakdown()["transform"]
        < runs[("map", 1)].breakdown()["transform"]
    )
    # Shape 3: the map's transform scales much better (paper 6.1 vs 3.4).
    assert map_scaling > 1.5 * umap_scaling
    assert 4.5 < map_scaling < 8.5
    assert 1.5 < umap_scaling < 4.5
    # Shape 4: memory contrast of more than an order of magnitude.
    assert umap_memory > 10 * map_memory
    assert 0.2e9 < map_memory < 1.5e9  # paper: 420 MB
    assert 6e9 < umap_memory < 25e9  # paper: 12.8 GB


def test_fig4_per_phase_choice_beats_uniform(benchmark, mix_workload, report):
    """§3.4's conclusion operationalized: different steps prefer different
    structures, so the best assignment is per-phase (the planner's job)."""
    uniform_map = benchmark.pedantic(
        lambda: run_paper_workflow(
            mix_workload, wc_dict_kind="map", workers=16
        ).total_s,
        rounds=1,
        iterations=1,
    )
    uniform_hash = run_paper_workflow(
        mix_workload, wc_dict_kind="unordered_map", workers=16
    ).total_s
    mixed = run_paper_workflow(
        mix_workload,
        wc_dict_kind="map",
        transform_dict_kind="unordered_map",
        workers=16,
    ).total_s
    report(
        "fig4_mixed_dicts",
        "per-phase dictionary choice, Mix @16T (virtual s)\n"
        f"  uniform map:            {uniform_map:8.2f}\n"
        f"  uniform unordered_map:  {uniform_hash:8.2f}\n"
        f"  map wc + u-map rest:    {mixed:8.2f}",
    )
    assert mixed <= min(uniform_map, uniform_hash) * 1.05
