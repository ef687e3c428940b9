"""Tests for the ASCII execution tracer."""

import pytest

from repro.exec import TaskCost
from repro.sim import (
    SimScheduler,
    Timeline,
    paper_node,
    render_phase_trace,
    render_timeline_trace,
)


@pytest.fixture()
def scheduler():
    return SimScheduler(paper_node(4))


class TestSpans:
    def test_spans_recorded_per_task(self, scheduler):
        timing = scheduler.simulate_phase([TaskCost(cpu_s=1)] * 6, workers=2)
        assert len(timing.spans) == 6
        cores = {core for core, _, _ in timing.spans}
        assert cores == {0, 1}

    def test_spans_cover_busy_time(self, scheduler):
        timing = scheduler.simulate_phase(
            [TaskCost(cpu_s=0.5), TaskCost(cpu_s=1.5)], workers=2
        )
        total = sum(end - start for _, start, end in timing.spans)
        assert total == pytest.approx(timing.busy_s)

    def test_spans_do_not_overlap_per_core(self, scheduler):
        timing = scheduler.simulate_phase(
            [TaskCost(cpu_s=0.3 * (i % 4 + 1)) for i in range(20)], workers=4
        )
        by_core = {}
        for core, start, end in timing.spans:
            by_core.setdefault(core, []).append((start, end))
        for intervals in by_core.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-12

    def test_scaled_timing_scales_spans(self, scheduler):
        timing = scheduler.simulate_phase([TaskCost(cpu_s=1)], workers=1)
        doubled = timing.scaled(2.0)
        assert doubled.spans[0][2] == pytest.approx(2 * timing.spans[0][2])


class TestRendering:
    def test_phase_trace_has_row_per_core(self, scheduler):
        timing = scheduler.simulate_phase(
            [TaskCost(cpu_s=1)] * 8, workers=4, name="wc"
        )
        text = render_phase_trace(timing)
        rows = [l for l in text.splitlines() if l.strip().startswith("core")]
        assert len(rows) == 4
        assert "wc" in text
        assert "bottleneck=schedule" in text

    def test_imbalance_visible(self, scheduler):
        # One long task, three short: the long row should be much fuller.
        timing = scheduler.simulate_phase(
            [TaskCost(cpu_s=4)] + [TaskCost(cpu_s=0.5)] * 3, workers=4
        )
        text = render_phase_trace(timing, width=40)
        rows = [line for line in text.splitlines() if "core" in line]
        fills = sorted(row.count("█") for row in rows)
        assert fills[-1] > 4 * max(1, fills[0])

    def test_device_bound_annotation(self, scheduler):
        machine = paper_node(16)
        costs = [TaskCost(mem_bytes=machine.core_mem_bw) for _ in range(16)]
        timing = SimScheduler(machine).simulate_phase(costs, workers=16)
        assert timing.bottleneck == "memory"
        assert "device-bound" in render_phase_trace(timing)

    def test_empty_phase(self, scheduler):
        timing = scheduler.simulate_phase([], name="nothing")
        assert "empty" in render_phase_trace(timing)

    def test_width_validation(self, scheduler):
        timing = scheduler.simulate_phase([TaskCost(cpu_s=1)])
        with pytest.raises(ValueError):
            render_phase_trace(timing, width=2)

    def test_timeline_trace_concatenates(self, scheduler):
        timeline = Timeline()
        timeline.add(scheduler.simulate_phase([TaskCost(cpu_s=1)], name="a"))
        timeline.add(scheduler.simulate_phase([TaskCost(cpu_s=1)], name="b"))
        text = render_timeline_trace(timeline)
        assert "a:" in text and "b:" in text

    def test_timeline_trace_truncation(self, scheduler):
        timeline = Timeline()
        for i in range(5):
            timeline.add(scheduler.simulate_phase([TaskCost(cpu_s=1)], name=f"p{i}"))
        text = render_timeline_trace(timeline, max_phases=2)
        assert "3 more phase(s)" in text

    def test_empty_timeline(self):
        assert "empty" in render_timeline_trace(Timeline())
