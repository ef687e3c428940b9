"""Tests for the machine model and task cost records."""

import pytest

from repro.errors import ConfigurationError
from repro.exec import TaskCost
from repro.sim import MachineSpec, fast_ssd_node, paper_node
from repro.sim.scheduler import compute_time, duration_on, io_time


class TestMachineSpec:
    def test_defaults_are_valid(self):
        machine = MachineSpec()
        assert machine.cores == 16

    def test_paper_node_factory(self):
        machine = paper_node(cores=20)
        assert machine.cores == 20
        assert "20c" in machine.name

    def test_ssd_node_is_faster_storage(self):
        hdd, ssd = paper_node(), fast_ssd_node()
        assert ssd.disk_read_bw > hdd.disk_read_bw
        assert ssd.disk_latency_s < hdd.disk_latency_s

    def test_with_cores_returns_modified_copy(self):
        machine = paper_node(cores=16)
        other = machine.with_cores(4)
        assert other.cores == 4
        assert machine.cores == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cores": 0},
            {"mem_bw": 0},
            {"disk_read_bw": -1},
            {"disk_latency_s": -0.1},
            {"io_channels": 0},
            {"core_mem_bw": 1e15},  # exceeds socket bandwidth
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MachineSpec(**kwargs)

    def test_effective_workers_clamped_to_cores(self):
        machine = paper_node(cores=8)
        assert machine.effective_workers(None) == 8
        assert machine.effective_workers(4) == 4
        assert machine.effective_workers(100) == 8

    def test_effective_workers_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            paper_node().effective_workers(0)


class TestTaskCost:
    def test_zero_cost(self):
        assert TaskCost().is_zero
        assert not TaskCost(cpu_s=1).is_zero

    def test_add_accumulates_in_place(self):
        cost = TaskCost(cpu_s=1, mem_bytes=10)
        cost.add(TaskCost(cpu_s=2, disk_opens=3))
        assert cost.cpu_s == 3
        assert cost.mem_bytes == 10
        assert cost.disk_opens == 3

    def test_plus_operator_leaves_operands_untouched(self):
        a, b = TaskCost(cpu_s=1), TaskCost(cpu_s=2)
        c = a + b
        assert c.cpu_s == 3
        assert a.cpu_s == 1 and b.cpu_s == 2

    def test_total(self):
        total = TaskCost.total([TaskCost(cpu_s=1), TaskCost(cpu_s=2.5)])
        assert total.cpu_s == 3.5

    def test_scaled(self):
        cost = TaskCost(cpu_s=2, disk_opens=4).scaled(0.5)
        assert cost.cpu_s == 1
        assert cost.disk_opens == 2

    def test_compute_time_cpu_bound(self):
        machine = paper_node()
        cost = TaskCost(cpu_s=1.0, mem_bytes=1)  # negligible traffic
        assert compute_time(cost, machine) == 1.0

    def test_compute_time_memory_bound(self):
        machine = paper_node()
        # Far more traffic than one core can stream in cpu_s.
        cost = TaskCost(cpu_s=0.001, mem_bytes=machine.core_mem_bw * 2)
        assert compute_time(cost, machine) == pytest.approx(2.0)

    def test_io_time_components(self):
        machine = paper_node()
        cost = TaskCost(
            disk_read_bytes=machine.disk_read_bw,
            disk_write_bytes=machine.disk_write_bw,
            disk_opens=2,
        )
        assert io_time(cost, machine) == pytest.approx(2 + 2 * machine.disk_latency_s)

    def test_duration_is_compute_plus_io(self):
        machine = paper_node()
        cost = TaskCost(cpu_s=1.0, disk_read_bytes=machine.disk_read_bw)
        assert duration_on(cost, machine) == pytest.approx(2.0)
