"""Tests for the cost-based planner and the report formatters."""

import pytest

from repro.errors import PlannerError
from repro.io import MemStorage
from repro.sim import (
    WorkflowPlanner,
    format_breakdown_table,
    format_comparison_rows,
    format_speedup_table,
    paper_node,
    series_to_csv,
)


@pytest.fixture(scope="module")
def planner_storage(small_storage):
    return small_storage


def quick_planner(machine=None, **kwargs):
    defaults = dict(
        dict_kinds=("map", "unordered_map"),
        modes=("merged", "discrete"),
        worker_options=(1, 16),
        mixed_dicts=False,
    )
    defaults.update(kwargs)
    return WorkflowPlanner(machine or paper_node(16), **defaults)


class TestPlanner:
    def test_plan_ranks_candidates(self, small_storage):
        plan = quick_planner().plan(
            small_storage, "in/", pilot_docs=24, max_iters=3
        )
        assert plan.best is plan.candidates[0]
        times = [c.predicted_s for c in plan.candidates]
        assert times == sorted(times)
        # 2 modes x 2 uniform dict configs x 2 worker options
        assert len(plan.candidates) == 8

    def test_best_plan_is_fused_and_parallel(self, small_storage):
        """The paper's conclusion: on a parallel node, fuse and thread."""
        plan = quick_planner().plan(
            small_storage, "in/", pilot_docs=24, max_iters=3
        )
        assert plan.best.config.mode == "merged"
        assert plan.best.config.workers == 16

    def test_mixed_dict_configs_searched(self, small_storage):
        plan = quick_planner(mixed_dicts=True).plan(
            small_storage, "in/", pilot_docs=24, max_iters=3
        )
        combos = {
            (c.config.wc_dict_kind, c.config.transform_dict_kind)
            for c in plan.candidates
        }
        assert ("map", "unordered_map") in combos
        assert ("unordered_map", "map") in combos

    def test_memory_budget_filters(self, small_storage):
        unconstrained = quick_planner().plan(
            small_storage, "in/", pilot_docs=24, max_iters=3
        )
        worst = max(c.predicted_peak_bytes for c in unconstrained.candidates)
        best_memory = min(c.predicted_peak_bytes for c in unconstrained.candidates)
        constrained = quick_planner().plan(
            small_storage,
            "in/",
            pilot_docs=24,
            max_iters=3,
            memory_budget_bytes=(best_memory + worst) / 2,
        )
        assert all(
            c.predicted_peak_bytes <= (best_memory + worst) / 2
            for c in constrained.candidates
        )

    def test_impossible_memory_budget_raises(self, small_storage):
        with pytest.raises(PlannerError):
            quick_planner().plan(
                small_storage,
                "in/",
                pilot_docs=24,
                max_iters=3,
                memory_budget_bytes=1.0,
            )

    def test_empty_input_raises(self):
        with pytest.raises(PlannerError):
            quick_planner().plan(MemStorage(), "in/", pilot_docs=24)

    def test_pilot_must_cover_clusters(self, small_storage):
        with pytest.raises(PlannerError):
            quick_planner().plan(small_storage, "in/", pilot_docs=4, n_clusters=8)

    def test_extrapolation_scale(self, small_storage):
        plan = quick_planner().plan(
            small_storage, "in/", pilot_docs=24, max_iters=3
        )
        assert plan.pilot_docs == 24
        assert plan.full_docs == 47
        assert plan.scale_factor == pytest.approx(47 / 24)

    def test_explain_mentions_every_candidate(self, small_storage):
        plan = quick_planner().plan(
            small_storage, "in/", pilot_docs=24, max_iters=3
        )
        text = plan.explain()
        assert text.count("#") == len(plan.candidates)
        assert "merged" in text and "discrete" in text

    def test_predictions_have_breakdowns(self, small_storage):
        plan = quick_planner().plan(
            small_storage, "in/", pilot_docs=24, max_iters=3
        )
        for estimate in plan.candidates:
            assert "input+wc" in estimate.breakdown
            assert estimate.predicted_s > 0
            assert estimate.predicted_peak_bytes > 0


class TestReportFormatting:
    def test_speedup_table(self):
        table = format_speedup_table(
            {"Mix": {1: 10.0, 4: 4.0}, "NSF": {1: 20.0, 4: 5.0}},
            title="Figure 1",
        )
        assert "Figure 1" in table
        assert "Mix" in table and "NSF" in table
        assert "2.50" in table  # Mix @4T
        assert "4.00" in table  # NSF @4T

    def test_speedup_table_handles_missing_points(self):
        table = format_speedup_table({"A": {1: 4.0, 2: 2.0}, "B": {1: 8.0}})
        assert "2.00" in table

    def test_breakdown_table(self):
        table = format_breakdown_table(
            {
                "discrete/1T": {"input+wc": 50.0, "kmeans": 25.0},
                "merged/1T": {"input+wc": 50.0},
            },
            phases=["input+wc", "kmeans"],
        )
        assert "input+wc" in table
        assert "75.00" in table  # discrete total
        assert "50.00" in table

    def test_series_to_csv(self):
        csv = series_to_csv({"Mix": {1: 10.0, 4: 4.0}, "NSF": {1: 20.0}})
        lines = csv.splitlines()
        assert lines[0] == "threads,Mix,NSF"
        assert lines[1] == "1,10,20"
        assert lines[2] == "4,4,"

    def test_comparison_rows(self):
        text = format_comparison_rows(
            [("speedup @16T", "3.84x", "3.94x")], title="Fig 3"
        )
        assert "3.84x" in text and "3.94x" in text and "Fig 3" in text
