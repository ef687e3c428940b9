"""Ablation A2 — parallel input (optimization 2) and the storage device.

The paper's phase 1 reads thousands of independent files; intra-node
parallelism "allows on the one hand to read independent files
concurrently, and on the other hand overlapping data processing with disk
and network access latency" (§1). This ablation sweeps the number of
concurrent I/O channels of the simulated disk and swaps the HDD for an
NVMe-class device, isolating how much of the input+wc phase's scaling
comes from the storage model.
"""

import dataclasses

import pytest

from repro.sim import (
    SimScheduler,
    build_tfidf_kmeans_workflow,
    fast_ssd_node,
    paper_node,
)


def input_wc_seconds(workload, machine, workers):
    workflow = build_tfidf_kmeans_workflow(
        mode="merged", wc_dict_kind="map", max_iters=3, scale=workload.scale
    )
    result = workflow.run(
        SimScheduler(machine),
        workload.storage,
        inputs={"tfidf.corpus_prefix": workload.prefix},
        workers=workers,
    )
    return result.breakdown()["input+wc"]


@pytest.fixture(scope="module")
def channel_sweep(mix_workload):
    times = {}
    for channels in (1, 2, 4, 8):
        machine = dataclasses.replace(paper_node(16), io_channels=channels)
        times[channels] = input_wc_seconds(mix_workload, machine, workers=16)
    return times


def test_io_channel_sweep(benchmark, channel_sweep, report):
    times = benchmark.pedantic(lambda: channel_sweep, rounds=1, iterations=1)
    lines = ["A2 — input+wc @16T vs I/O channels (Mix, virtual s)"]
    for channels, elapsed in sorted(times.items()):
        lines.append(f"  {channels} channel(s): {elapsed:7.2f}")
    report("ablation_parallel_io", "\n".join(lines))

    # More channels never hurt, and help when the device is the bottleneck.
    ordered = [times[c] for c in sorted(times)]
    assert all(b <= a + 1e-9 for a, b in zip(ordered, ordered[1:]))


def test_ssd_removes_storage_bottleneck(benchmark, mix_workload):
    hdd_16, ssd_16 = benchmark.pedantic(
        lambda: (
            input_wc_seconds(mix_workload, paper_node(16), workers=16),
            input_wc_seconds(mix_workload, fast_ssd_node(16), workers=16),
        ),
        rounds=1,
        iterations=1,
    )
    assert ssd_16 <= hdd_16

    # On the SSD the phase is compute-bound, so it scales almost linearly.
    ssd_1 = input_wc_seconds(mix_workload, fast_ssd_node(16), workers=1)
    assert ssd_1 / ssd_16 > 8.0


def test_discrete_workflow_gains_more_from_ssd(benchmark, nsf_workload):
    """Fusion matters less on fast storage: the ARFF round trip shrinks.

    This is the planner-relevant interaction between optimizations 2 & 3.
    """
    def run():
        ratios = {}
        for machine, label in ((paper_node(16), "hdd"), (fast_ssd_node(16), "ssd")):
            times = {}
            for mode in ("discrete", "merged"):
                workflow = build_tfidf_kmeans_workflow(
                    mode=mode, max_iters=3, scale=nsf_workload.scale
                )
                times[mode] = workflow.run(
                    SimScheduler(machine),
                    nsf_workload.storage,
                    inputs={"tfidf.corpus_prefix": nsf_workload.prefix},
                    workers=16,
                ).total_s
            ratios[label] = times["discrete"] / times["merged"]
        return ratios

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ratios["ssd"] < ratios["hdd"]
