"""Tests for the tree-reduction primitive."""

import pytest

from repro.exec import TaskCost
from repro.sim import SimScheduler, paper_node
from repro.sim.parallel import parallel_reduce


def summing_combine(cost_s=1.0):
    def combine(a, b, cost):
        cost.cpu_s += cost_s
        return a + b

    return combine


class TestParallelReduce:
    def test_reduces_to_single_value(self):
        scheduler = SimScheduler(paper_node(4))
        result = parallel_reduce(scheduler, range(10), summing_combine())
        assert result.values == [sum(range(10))]

    def test_empty_input(self):
        scheduler = SimScheduler(paper_node(4))
        result = parallel_reduce(scheduler, [], summing_combine())
        assert result.values == []
        assert result.timing.elapsed_s == 0.0

    def test_single_item_costs_nothing(self):
        scheduler = SimScheduler(paper_node(4))
        result = parallel_reduce(scheduler, [42], summing_combine())
        assert result.values == [42]
        assert result.timing.elapsed_s == 0.0

    def test_log_depth_critical_path(self):
        """8 items with 1s merges on 8 cores: 3 levels = 3s, not 7s."""
        scheduler = SimScheduler(paper_node(8))
        result = parallel_reduce(scheduler, [1] * 8, summing_combine(1.0))
        assert result.values == [8]
        assert result.timing.elapsed_s == pytest.approx(3.0)
        assert result.timing.totals.cpu_s == pytest.approx(7.0)

    def test_serial_on_one_worker(self):
        scheduler = SimScheduler(paper_node(8))
        result = parallel_reduce(
            scheduler, [1] * 8, summing_combine(1.0), workers=1
        )
        # All 7 merges serialize: 4 + 2 + 1 seconds by level.
        assert result.timing.elapsed_s == pytest.approx(7.0)

    def test_odd_item_count(self):
        scheduler = SimScheduler(paper_node(4))
        result = parallel_reduce(scheduler, [1, 2, 3], summing_combine())
        assert result.values == [6]

    def test_noncommutative_combine_preserves_order(self):
        scheduler = SimScheduler(paper_node(4))

        def concat(a, b, cost):
            return a + b

        result = parallel_reduce(scheduler, ["a", "b", "c", "d"], concat)
        assert result.values == ["abcd"]
