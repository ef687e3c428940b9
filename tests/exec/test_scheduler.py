"""Tests for the virtual-time scheduler and its roofline bounds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.exec import TaskCost
from repro.sim import MachineSpec, SimScheduler, paper_node

_GB = 1024**3


def cpu_tasks(n, seconds=1.0):
    return [TaskCost(cpu_s=seconds) for _ in range(n)]


class TestCpuScheduling:
    def test_single_task_single_core(self):
        timing = SimScheduler(paper_node(1)).simulate_phase(cpu_tasks(1), name="t")
        assert timing.elapsed_s == pytest.approx(1.0)
        assert timing.workers == 1
        assert timing.bottleneck == "schedule"

    def test_perfect_scaling_for_balanced_tasks(self):
        scheduler = SimScheduler(paper_node(4))
        timing = scheduler.simulate_phase(cpu_tasks(8))
        assert timing.elapsed_s == pytest.approx(2.0)

    def test_imbalanced_tail_extends_makespan(self):
        scheduler = SimScheduler(paper_node(2))
        costs = [TaskCost(cpu_s=1), TaskCost(cpu_s=1), TaskCost(cpu_s=5)]
        timing = scheduler.simulate_phase(costs)
        # Greedy: cores take 1s tasks, then one takes the 5s task -> 6s.
        assert timing.elapsed_s == pytest.approx(6.0)

    def test_workers_argument_limits_parallelism(self):
        scheduler = SimScheduler(paper_node(16))
        timing = scheduler.simulate_phase(cpu_tasks(8), workers=2)
        assert timing.elapsed_s == pytest.approx(4.0)
        assert timing.workers == 2

    def test_empty_phase_is_instant(self):
        timing = SimScheduler(paper_node()).simulate_phase([])
        assert timing.elapsed_s == 0.0
        assert timing.n_tasks == 0

    def test_negative_cost_rejected(self):
        with pytest.raises(SchedulerError):
            SimScheduler(paper_node()).simulate_phase([TaskCost(cpu_s=-1)])

    def test_utilization_perfect_when_balanced(self):
        timing = SimScheduler(paper_node(4)).simulate_phase(cpu_tasks(4))
        assert timing.utilization == pytest.approx(1.0)

    def test_utilization_half_when_one_core_idle(self):
        timing = SimScheduler(paper_node(2)).simulate_phase(cpu_tasks(1))
        assert timing.utilization == pytest.approx(0.5)

    def test_serial_phase_helper(self):
        timing = SimScheduler(paper_node(16)).serial_phase(TaskCost(cpu_s=3), "out")
        assert timing.elapsed_s == pytest.approx(3.0)
        assert timing.workers == 1
        assert timing.name == "out"


class TestRooflines:
    def test_memory_bandwidth_caps_parallel_phase(self):
        machine = MachineSpec(cores=16, mem_bw=10 * _GB, core_mem_bw=4 * _GB)
        scheduler = SimScheduler(machine)
        # 16 tasks, each 1s CPU and 4 GB of traffic: per-core compute is
        # max(1, 1)=1s, but total traffic 64 GB needs 6.4s at socket bw.
        costs = [TaskCost(cpu_s=1.0, mem_bytes=4 * _GB) for _ in range(16)]
        timing = scheduler.simulate_phase(costs)
        assert timing.bottleneck == "memory"
        assert timing.elapsed_s == pytest.approx(6.4)

    def test_memory_roofline_irrelevant_on_one_core(self):
        machine = MachineSpec(cores=1, mem_bw=10 * _GB, core_mem_bw=4 * _GB)
        costs = [TaskCost(cpu_s=1.0, mem_bytes=4 * _GB) for _ in range(16)]
        timing = SimScheduler(machine).simulate_phase(costs)
        # One core streams 4 GB/s; 64 GB takes 16s on the core itself, far
        # above the 6.4s socket roofline.
        assert timing.bottleneck == "schedule"
        assert timing.elapsed_s == pytest.approx(16.0)

    def test_disk_read_bandwidth_bound(self):
        machine = MachineSpec(cores=8, disk_read_bw=100 * 1024 * 1024)
        costs = [TaskCost(disk_read_bytes=100 * 1024 * 1024) for _ in range(8)]
        timing = SimScheduler(machine).simulate_phase(costs)
        assert timing.bounds["disk-read"] == pytest.approx(8.0)
        assert timing.elapsed_s >= 8.0

    def test_disk_latency_overlapped_by_channels(self):
        machine = MachineSpec(cores=8, io_channels=4, disk_latency_s=0.01)
        costs = [TaskCost(disk_opens=1) for _ in range(100)]
        timing = SimScheduler(machine).simulate_phase(costs, workers=8)
        assert timing.bounds["disk-latency"] == pytest.approx(100 * 0.01 / 4)

    def test_disk_latency_not_overlapped_on_one_worker(self):
        machine = MachineSpec(cores=8, io_channels=4, disk_latency_s=0.01)
        costs = [TaskCost(disk_opens=1) for _ in range(100)]
        timing = SimScheduler(machine).simulate_phase(costs, workers=1)
        # A single worker opens files one at a time.
        assert timing.elapsed_s == pytest.approx(1.0)

    def test_elapsed_is_max_of_bounds(self):
        scheduler = SimScheduler(paper_node(4))
        costs = [
            TaskCost(cpu_s=0.5, mem_bytes=1 * _GB, disk_read_bytes=10 * 1024 * 1024)
            for _ in range(12)
        ]
        timing = scheduler.simulate_phase(costs)
        assert timing.elapsed_s == pytest.approx(max(timing.bounds.values()))

    def test_io_hidden_behind_compute_with_many_threads(self):
        """Optimization 2: parallel input hides I/O latency behind compute."""
        machine = paper_node(16)
        per_file = TaskCost(
            cpu_s=0.1,
            disk_read_bytes=machine.disk_read_bw * 0.01,
            disk_opens=1,
        )
        costs = [per_file for _ in range(160)]
        one = SimScheduler(machine).simulate_phase(costs, workers=1)
        many = SimScheduler(machine).simulate_phase(costs, workers=16)
        assert one.elapsed_s / many.elapsed_s > 8  # near-linear despite I/O


class TestPhaseTiming:
    def test_scaled_multiplies_times(self):
        timing = SimScheduler(paper_node(2)).simulate_phase(cpu_tasks(2))
        double = timing.scaled(2.0)
        assert double.elapsed_s == pytest.approx(2 * timing.elapsed_s)
        assert double.busy_s == pytest.approx(2 * timing.busy_s)
        assert double.bounds["schedule"] == pytest.approx(
            2 * timing.bounds["schedule"]
        )

    @given(
        st.lists(st.floats(0.001, 10.0), min_size=1, max_size=40),
        st.integers(1, 32),
    )
    def test_makespan_bounds_hold(self, durations, cores):
        """Greedy schedule obeys the classic bounds: max(avg, longest) <= makespan <= avg + longest."""
        machine = MachineSpec(cores=cores)
        costs = [TaskCost(cpu_s=d) for d in durations]
        timing = SimScheduler(machine).simulate_phase(costs)
        total = sum(durations)
        longest = max(durations)
        lower = max(total / machine.effective_workers(None), longest)
        assert timing.elapsed_s >= lower - 1e-9
        assert timing.elapsed_s <= total / machine.effective_workers(None) + longest + 1e-9

    @given(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=30))
    def test_more_cores_never_slower(self, durations):
        costs = [TaskCost(cpu_s=d) for d in durations]
        times = [
            SimScheduler(MachineSpec(cores=c)).simulate_phase(costs).elapsed_s
            for c in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))
