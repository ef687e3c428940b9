"""Ablation A3 — a third dictionary in the Figure 4 design space.

Extension beyond the paper: a cache-conscious B-tree occupies the point
between ``std::map`` (sorted iteration, many pointer chases) and
``std::unordered_map`` (O(1) lookups, memory pressure): it keeps sorted
iteration while replacing most pointer chases with in-node scans, and its
memory stays proportional to live entries. The ablation places all three
structures on the Mix workflow.
"""

import pytest

from repro.bench import run_paper_workflow
from repro.sim import format_breakdown_table

KINDS = ("map", "unordered_map", "btree")


@pytest.fixture(scope="module")
def btree_runs(mix_workload):
    runs = {}
    for workers in (1, 16):
        for kind in KINDS:
            runs[(kind, workers)] = run_paper_workflow(
                mix_workload, mode="merged", wc_dict_kind=kind, workers=workers
            )
    return runs


def test_btree_in_figure4_design_space(benchmark, btree_runs, report):
    runs = benchmark.pedantic(lambda: btree_runs, rounds=1, iterations=1)
    breakdowns = {
        f"{kind}/{workers}T": runs[(kind, workers)].breakdown()
        for workers in (1, 16)
        for kind in KINDS
    }
    table = format_breakdown_table(
        breakdowns,
        phases=["input+wc", "transform", "kmeans", "output"],
        title="A3 — three dictionary structures on the Mix workflow (s)",
    )
    memory_lines = [
        f"  {kind:>14}: {runs[(kind, 16)].peak_resident_bytes / 1e9:6.2f} GB"
        for kind in KINDS
    ]
    report(
        "ablation_btree",
        table + "\n\npeak modelled memory:\n" + "\n".join(memory_lines),
    )

    # The B-tree's memory stays tree-like, far below the pre-sized tables.
    assert (
        runs[("btree", 16)].peak_resident_bytes
        < runs[("unordered_map", 16)].peak_resident_bytes / 5
    )
    # And its input+wc beats the red-black tree (fewer pointer chases).
    assert (
        runs[("btree", 1)].breakdown()["input+wc"]
        < runs[("map", 1)].breakdown()["input+wc"]
    )


def test_btree_correctness_on_workflow(benchmark, mix_workload):
    """Same clustering as the other dictionary kinds."""
    reference = run_paper_workflow(mix_workload, wc_dict_kind="map", workers=4)
    btree = benchmark.pedantic(
        lambda: run_paper_workflow(mix_workload, wc_dict_kind="btree", workers=4),
        rounds=1,
        iterations=1,
    )
    assert (
        btree.value("kmeans.clusters").assignments
        == reference.value("kmeans.clusters").assignments
    )
