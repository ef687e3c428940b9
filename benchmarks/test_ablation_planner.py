"""Ablation A1 — the cost-based planner vs fixed configurations.

DESIGN.md calls out the planner (per-phase dictionary choice + fusion +
thread count) as the mechanical form of the paper's four optimizations.
This ablation checks that the plan the pilot-based optimizer picks is at
least as good as every uniform configuration it searched over, when both
are evaluated on the full (benchmark-scale) input.
"""

import pytest

from repro.bench import run_paper_workflow
from repro.sim import WorkflowPlanner, paper_node


@pytest.fixture(scope="module")
def plan(mix_workload):
    planner = WorkflowPlanner(
        paper_node(16),
        dict_kinds=("map", "unordered_map"),
        modes=("merged", "discrete"),
        worker_options=(1, 8, 16),
        mixed_dicts=True,
    )
    return planner.plan(
        mix_workload.storage, mix_workload.prefix, pilot_docs=64, max_iters=5
    )


def test_planner_vs_fixed_configs(benchmark, plan, mix_workload, report):
    plan = benchmark.pedantic(lambda: plan, rounds=1, iterations=1)
    best = plan.best.config

    # Evaluate the planner's pick and the naive configurations for real.
    picked = run_paper_workflow(
        mix_workload,
        mode=best.mode,
        wc_dict_kind=best.wc_dict_kind,
        transform_dict_kind=best.transform_dict_kind,
        workers=best.workers,
        max_iters=5,
    ).total_s
    naive_sequential_discrete = run_paper_workflow(
        mix_workload, mode="discrete", wc_dict_kind="unordered_map", workers=1,
        max_iters=5,
    ).total_s
    naive_parallel_uniform = run_paper_workflow(
        mix_workload, mode="merged", wc_dict_kind="unordered_map", workers=16,
        max_iters=5,
    ).total_s

    report(
        "ablation_planner",
        "A1 — planner pick vs fixed configurations (Mix, virtual s)\n"
        + plan.explain()
        + "\n\n"
        f"  picked config measured:        {picked:8.2f}\n"
        f"  naive discrete/u-map/1T:       {naive_sequential_discrete:8.2f}\n"
        f"  naive merged/u-map/16T:        {naive_parallel_uniform:8.2f}",
    )

    # The planner's choice beats the naive baselines decisively.
    assert picked < naive_sequential_discrete / 3
    assert picked <= naive_parallel_uniform * 1.05
    # And its ranking agrees with reality on the extremes.
    assert plan.best.config.mode == "merged"
    assert plan.best.config.workers == 16


def test_planner_memory_budget_changes_choice(benchmark, plan, mix_workload):
    """Constraining memory must steer the planner away from the
    hash-heavy configurations (the 12.8 GB offenders)."""
    planner = WorkflowPlanner(
        paper_node(16),
        dict_kinds=("map", "unordered_map"),
        modes=("merged",),
        worker_options=(16,),
        mixed_dicts=False,
    )
    constrained = benchmark.pedantic(
        lambda: planner.plan(
            mix_workload.storage,
            mix_workload.prefix,
            pilot_docs=64,
            max_iters=5,
            memory_budget_bytes=2e9,
        ),
        rounds=1,
        iterations=1,
    )
    assert constrained.best.config.wc_dict_kind == "map"
