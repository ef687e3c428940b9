"""Tour of the cost-based workflow planner (the paper's conclusion,
mechanised).

The paper ends by noting that fusion and data-structure choice "are
influenced by the presence and degree of intra-node parallelism" and that
the choice "must be taken judiciously". The planner does exactly that: it
pilots every candidate configuration on a sample of the input and ranks
them for the full data set — including mixed per-phase dictionary
assignments — optionally under a memory budget.

That planner lives in virtual time. The tour ends on its real-execution
twin (``repro.plan``): ``run_pipeline(plan="auto")`` probes the corpus,
prices every backend × workers × shm × dictionary candidate from
measured constants and runs the argmin — on the same one driver that
runs a fixed backend, so every other option (here ``degrade=True``)
applies to a planned run as well.

Run with::

    python examples/planner_tour.py
"""

from repro import (
    MIX_PROFILE,
    MemStorage,
    WorkflowPlanner,
    generate_corpus,
    paper_node,
    store_corpus,
)
from repro.core.pipeline import run_pipeline
from repro.ops import KMeansOperator


def main() -> None:
    corpus = generate_corpus(MIX_PROFILE, scale=0.01, seed=5)
    storage = MemStorage()
    store_corpus(storage, corpus, prefix="input/")
    print(f"planning for {len(corpus)} documents on a 16-core node\n")

    planner = WorkflowPlanner(
        paper_node(16),
        dict_kinds=("map", "unordered_map"),
        modes=("merged", "discrete"),
        worker_options=(1, 4, 16),
        mixed_dicts=True,
    )

    plan = planner.plan(storage, "input/", pilot_docs=64, max_iters=5)
    print(plan.explain())
    best = plan.best
    print(f"\nwinner: {best.config.describe()}")
    print("predicted phase breakdown (full scale):")
    for phase, seconds in best.breakdown.items():
        print(f"  {phase:>12}: {seconds:7.2f}s")

    # The same question under a 2 GB memory budget: the pre-sized hash
    # tables (the paper's 12.8 GB offender) are priced out.
    budget = 2e9
    constrained = planner.plan(
        storage, "input/", pilot_docs=64, max_iters=5, memory_budget_bytes=budget
    )
    print(f"\nwith a {budget / 1e9:.0f} GB memory budget the planner picks:")
    print(f"  {constrained.best.config.describe()}  "
          f"({constrained.best.predicted_peak_bytes / 1e9:.2f} GB predicted)")

    # And on a machine with few cores, fusing matters less and the
    # sequential-friendly dictionary mix can flip.
    small = WorkflowPlanner(
        paper_node(2),
        dict_kinds=("map", "unordered_map"),
        modes=("merged", "discrete"),
        worker_options=(1, 2),
        mixed_dicts=True,
    ).plan(storage, "input/", pilot_docs=64, max_iters=5)
    print(f"\non a 2-core node the winner becomes: {small.best.config.describe()}")

    # The real path, on this host: measured constants instead of a
    # simulated machine, wall-clock seconds instead of virtual ones.
    real = run_pipeline(
        corpus, plan="auto", kmeans=KMeansOperator(max_iters=5), degrade=True
    )
    print(f"\non this host the measured-cost planner runs: {real.plan.describe()}")
    print(f"  planned in {real.plan_seconds:.3f}s, predicted "
          f"{real.plan.predicted_total_s:.3f}s, measured {real.total_s:.3f}s")


if __name__ == "__main__":
    main()
