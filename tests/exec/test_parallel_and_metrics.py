"""Tests for parallel_map, timelines, work/span and speedup helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.exec import SequentialBackend, TaskCost, ThreadBackend, auto_grain
from repro.sim import (
    SimScheduler,
    Timeline,
    paper_node,
    parallel_map,
    self_relative_speedups,
    work_span,
)


class TestParallelMap:
    def test_results_preserve_order(self):
        scheduler = SimScheduler(paper_node(4))

        def body(item, cost):
            cost.cpu_s += 0.01
            return item * 2

        result = parallel_map(scheduler, range(10), body)
        assert result.values == [i * 2 for i in range(10)]

    def test_costs_are_aggregated_into_timing(self):
        scheduler = SimScheduler(paper_node(4))

        def body(item, cost):
            cost.cpu_s += 1.0
            return None

        result = parallel_map(scheduler, range(8), body, grain=1)
        assert result.timing.totals.cpu_s == pytest.approx(8.0)
        assert result.timing.elapsed_s == pytest.approx(2.0)

    def test_grain_groups_items_into_chunks(self):
        scheduler = SimScheduler(paper_node(4))

        def body(item, cost):
            cost.cpu_s += 1.0

        fine = parallel_map(scheduler, range(8), body, grain=1)
        coarse = parallel_map(scheduler, range(8), body, grain=8)
        assert fine.timing.n_tasks == 8
        assert coarse.timing.n_tasks == 1
        # One coarse chunk serializes everything on one core.
        assert coarse.timing.elapsed_s == pytest.approx(8.0)
        assert fine.timing.elapsed_s == pytest.approx(2.0)

    def test_invalid_grain_rejected(self):
        scheduler = SimScheduler(paper_node())
        with pytest.raises(ConfigurationError):
            parallel_map(scheduler, [1], lambda i, c: i, grain=0)

    def test_workers_respected(self):
        scheduler = SimScheduler(paper_node(16))

        def body(item, cost):
            cost.cpu_s += 1.0

        result = parallel_map(scheduler, range(8), body, workers=2, grain=1)
        assert result.timing.elapsed_s == pytest.approx(4.0)

    def test_empty_items(self):
        scheduler = SimScheduler(paper_node())
        result = parallel_map(scheduler, [], lambda i, c: i)
        assert result.values == []
        assert result.timing.elapsed_s == 0.0

    def test_auto_grain_reasonable(self):
        assert auto_grain(0, 4) == 1
        assert auto_grain(10, 16) == 1
        assert auto_grain(1600, 16) == 12
        assert auto_grain(100_000, 16) == 100_000 // (16 * 8)


class TestTimeline:
    def make_timeline(self):
        scheduler = SimScheduler(paper_node(4))
        timeline = Timeline()
        timeline.add(scheduler.simulate_phase([TaskCost(cpu_s=2)], name="input"))
        timeline.add(scheduler.simulate_phase([TaskCost(cpu_s=1)], name="kmeans"))
        timeline.add(scheduler.simulate_phase([TaskCost(cpu_s=1)], name="kmeans"))
        return timeline

    def test_total_is_sum_of_phases(self):
        assert self.make_timeline().total_s == pytest.approx(4.0)

    def test_breakdown_merges_same_name(self):
        breakdown = self.make_timeline().breakdown()
        assert breakdown == {"input": pytest.approx(2.0), "kmeans": pytest.approx(2.0)}

    def test_phase_seconds(self):
        assert self.make_timeline().phase_seconds("kmeans") == pytest.approx(2.0)
        assert self.make_timeline().phase_seconds("absent") == 0.0

    def test_totals_aggregate_costs(self):
        assert self.make_timeline().totals().cpu_s == pytest.approx(4.0)

    def test_extend_concatenates(self):
        a, b = self.make_timeline(), self.make_timeline()
        a.extend(b)
        assert a.total_s == pytest.approx(8.0)

    def test_bottlenecks_reported(self):
        assert self.make_timeline().bottlenecks()["input"] == "schedule"


class TestWorkSpanAndSpeedups:
    def test_work_span(self):
        machine = paper_node()
        ws = work_span([TaskCost(cpu_s=1), TaskCost(cpu_s=3)], machine)
        assert ws.work_s == pytest.approx(4.0)
        assert ws.span_s == pytest.approx(3.0)
        assert ws.max_parallelism == pytest.approx(4 / 3)

    def test_work_span_empty(self):
        ws = work_span([], paper_node())
        assert ws.work_s == 0.0
        assert ws.max_parallelism == float("inf")

    def test_self_relative_speedups(self):
        speedups = self_relative_speedups({1: 10.0, 2: 5.0, 4: 2.5})
        assert speedups == {1: 1.0, 2: 2.0, 4: 4.0}

    def test_missing_baseline_raises(self):
        with pytest.raises(ValueError):
            self_relative_speedups({2: 5.0})


class TestRealBackends:
    def test_sequential_backend(self):
        assert SequentialBackend().map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_thread_backend_preserves_order(self):
        with ThreadBackend(4) as backend:
            assert backend.map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    def test_thread_backend_single_item_inline(self):
        backend = ThreadBackend(4)
        assert backend.map(lambda x: x, [7]) == [7]
        backend.close()

    def test_thread_backend_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ThreadBackend(0)

    def test_close_is_idempotent(self):
        backend = ThreadBackend(2)
        backend.map(lambda x: x, range(5))
        backend.close()
        backend.close()
