"""Visualise *why* a phase stops scaling, with ASCII schedule traces.

Renders the simulated per-core schedule of the K-means assignment loop on
both corpus profiles. On Mix the fixed 8K-document grain produces only ~3
chunks — three busy cores and thirteen idle ones — while NSF fills the
machine; this is Figure 1's mechanism made visible.

Run with::

    python examples/schedule_trace.py
"""

from repro import MIX_PROFILE, NSF_ABSTRACTS_PROFILE
from repro.bench import prepare_workload
from repro.ops import KMeansOperator, TfIdfOperator
from repro.sim import (
    SimConfig,
    SimScheduler,
    paper_node,
    render_phase_trace,
    run_kmeans,
    run_tfidf,
)


def first_assignment_phase(workload, workers=16):
    scheduler = SimScheduler(paper_node(16))
    config = SimConfig(wc_dict_kind="map", scale=workload.scale)
    scores = run_tfidf(TfIdfOperator(), scheduler, workload.storage,
                       workload.prefix, workers=workers, config=config)
    result = run_kmeans(KMeansOperator(max_iters=1), scheduler, scores.matrix,
                        workers=workers, config=config)
    # The first phase of the iteration is the parallel assignment.
    return result.timeline.phases[0]


def main() -> None:
    mix = prepare_workload(MIX_PROFILE, scale=0.008, seed=4)
    nsf = prepare_workload(NSF_ABSTRACTS_PROFILE, scale=0.004, seed=4)

    print("K-means assignment on 16 simulated cores")
    print("=" * 72)
    print("\nMix (23,432 docs at full scale -> ~3 chunks of 8K docs):\n")
    print(render_phase_trace(first_assignment_phase(mix), width=56))
    print("\nNSF Abstracts (101,483 docs -> ~13 chunks):\n")
    print(render_phase_trace(first_assignment_phase(nsf), width=56))
    print(
        "\nThe idle rows on Mix are Figure 1's plateau: no matter how many"
        "\ncores the node has, three chunks only ever occupy three of them."
    )


if __name__ == "__main__":
    main()
