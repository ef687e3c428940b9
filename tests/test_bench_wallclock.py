"""Wall-clock benchmark harness and its CLI tool."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import repro.bench.wallclock as wallclock_module
from repro.bench.wallclock import (
    _best_of,
    bench_cache,
    bench_ipc_sweep,
    bench_read_sweep,
    bench_wallclock,
)
from repro.errors import BenchmarkError
from repro.exec.shm import shm_available

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestBenchWallclock:
    def test_record_structure_and_equivalence(self):
        record = bench_wallclock(
            scale=0.002, workers=(1, 2), repeats=1, kmeans_iters=2
        )
        assert record["benchmark"] == "wallclock"
        assert record["mode"] == "backends"
        assert record["profile"] == "mix"
        assert record["n_docs"] > 0
        assert record["host"]["cpu_count"] == os.cpu_count()
        assert record["config"]["workers"] == [1, 2]

        runs = record["runs"]
        # sequential once, then 2 worker counts x 2 pooled backends.
        assert len(runs) == 1 + 2 * 2
        assert runs[0]["backend"] == "sequential"
        for run in runs:
            assert run["backend"] in ("sequential", "threads", "processes")
            assert set(run["phases"]) == {"input+wc", "transform", "kmeans"}
            assert run["total_s"] > 0
            assert run["speedup_vs_sequential"] > 0
            assert run["output_identical"] is True
            assert "ipc" in run  # per-run transport accounting

    def test_single_backend_sweep(self):
        record = bench_wallclock(
            scale=0.002, backends=("sequential",), repeats=1, kmeans_iters=1
        )
        assert [run["backend"] for run in record["runs"]] == ["sequential"]
        assert record["runs"][0]["speedup_vs_sequential"] == 1.0

    def test_traced_sweep_embeds_utilization(self):
        record = bench_wallclock(
            scale=0.002, backends=("processes",), workers=(2,),
            repeats=1, kmeans_iters=1, trace=True,
        )
        (run,) = record["runs"]
        assert run["output_identical"] is True
        assert set(run["utilization"]) == {"input+wc", "transform", "kmeans"}
        assert all(v > 0 for v in run["utilization"].values())

    def test_untraced_sweep_has_no_trace_fields(self):
        record = bench_wallclock(
            scale=0.002, backends=("sequential",), repeats=1, kmeans_iters=1
        )
        assert "utilization" not in record["runs"][0]


class TestBestOf:
    def test_phases_and_result_come_from_the_same_best_run(self):
        """The min-time filter must not mix repeats: the recorded phases
        and output have to belong to the fastest run, not the last one."""
        fast = SimpleNamespace(phase_seconds={"input+wc": 1.0})
        slow = SimpleNamespace(phase_seconds={"input+wc": 999.0})
        results = iter([fast, slow])

        def run_once():
            result = next(results)
            if result is slow:
                time.sleep(0.05)
            return result

        total, result, phases = _best_of(2, run_once, "cfg")
        assert result is fast
        assert phases == {"input+wc": 1.0}
        assert total < 0.05

    def test_pipeline_failure_wrapped_with_configuration(self):
        def boom():
            raise RuntimeError("disk on fire")

        with pytest.raises(BenchmarkError, match="cfg-x.*disk on fire"):
            _best_of(1, boom, "cfg-x")

    def test_benchmark_surfaces_pipeline_error_cleanly(self, monkeypatch):
        def exploding_pipeline(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(wallclock_module, "run_pipeline", exploding_pipeline)
        with pytest.raises(BenchmarkError, match="sequential.*kaboom"):
            bench_wallclock(scale=0.002, backends=("sequential",))


class TestBenchReadSweep:
    def test_record_structure_and_equivalence(self, tmp_path):
        record = bench_read_sweep(
            scale=0.002,
            read_workers=(1, 2),
            backend="sequential",
            workers=1,
            repeats=1,
            kmeans_iters=2,
            corpus_dir=str(tmp_path / "corpus"),
        )
        assert record["benchmark"] == "wallclock"
        assert record["mode"] == "read"
        assert record["config"]["backend"] == "sequential"
        assert record["n_docs"] > 0
        assert [run["read_workers"] for run in record["runs"]] == [1, 2]
        assert record["runs"][0]["speedup_vs_serial_input"] == 1.0
        for run in record["runs"]:
            assert run["output_identical"] is True
            assert "read" in run["phases"]
            assert run["read_s"] >= 0.0
            assert run["total_s"] > 0.0
        # The corpus directory was caller-provided, so it is kept.
        assert (tmp_path / "corpus").is_dir()


class TestBenchIpcSweep:
    def test_record_structure_and_counters(self):
        record = bench_ipc_sweep(
            scale=0.002, workers=(2,), repeats=1, kmeans_iters=2
        )
        assert record["benchmark"] == "wallclock"
        assert record["mode"] == "ipc"
        assert record["n_docs"] > 0
        assert record["config"]["shm_available"] == shm_available()

        runs = record["runs"]
        expected_modes = [False, True] if shm_available() else [False]
        assert [run["shm"] for run in runs] == expected_modes
        for run in runs:
            assert run["workers"] == 2
            assert run["total_s"] > 0
            assert run["output_identical"] is True
            assert run["kmeans_task_bytes_per_iter"] > 0
            ipc = run["ipc"]
            assert set(ipc) == {"phases", "total"}
            assert ipc["total"]["tasks"] > 0
            # IPC runs are span-traced: utilization/straggler summaries
            # ride along in every record.
            assert set(run["utilization"]) == {"input+wc", "transform",
                                               "kmeans"}
            for phase, value in run["utilization"].items():
                assert 0.0 < value <= 1.0 + 1e-9
                assert run["straggler_ratio"][phase] >= 1.0
                stats = run["trace"][phase]
                assert stats["n_tasks"] >= 1
                assert stats["busy_s"] <= (
                    stats["n_workers"] * stats["window_s"] + 1e-9
                )
            # Span payloads are billed separately from result bytes.
            assert ipc["total"]["span_pickle_bytes"] > 0

    @pytest.mark.skipif(not shm_available(), reason="no POSIX shm")
    def test_shm_run_moves_bytes_off_the_task_path(self):
        record = bench_ipc_sweep(
            scale=0.002, workers=(2,), repeats=1, kmeans_iters=2
        )
        by_mode = {run["shm"]: run for run in record["runs"]}
        pickled = by_mode[False]["kmeans_task_bytes_per_iter"]
        shm = by_mode[True]["kmeans_task_bytes_per_iter"]
        assert shm < pickled / 100
        assert by_mode[True]["ipc"]["total"]["segments"] > 0
        assert by_mode[False]["ipc"]["total"]["segments"] == 0


class TestBenchPlan:
    def test_record_structure_equivalence_and_fusion(self):
        from repro.bench.wallclock import bench_plan

        # Generous tolerance: this test guards structure and equivalence,
        # not timing — the 10% gate is exercised by the CI smoke where a
        # single flake does not fail the whole tier-1 suite.
        record = bench_plan(
            scale=0.002, repeats=1, kmeans_iters=2,
            process_workers=1, tolerance=5.0,
        )
        assert record["benchmark"] == "wallclock"
        assert record["mode"] == "plan"
        assert record["config"]["process_workers"] == 1
        assert "calibration" in record["config"]

        configs = [run["config"] for run in record["runs"]]
        assert configs[:3] == ["sequential", "processes-1", "planned"]
        for run in record["runs"]:
            assert run["output_identical"] is True
            assert run["ok"] is True

        planned = record["runs"][2]
        assert planned["planned"] is True
        assert set(planned["plan"]["phases"]) == {
            "input+wc", "transform", "kmeans"
        }
        assert planned["plan_seconds"] >= 0.0

        pvf = record["planned_vs_fixed"]
        assert pvf["within_tolerance"] is True
        assert pvf["best_fixed_config"] in ("sequential", "processes-1")
        assert pvf["planned_phase_floor_s"] > 0.0

        # The worker-resident wc→transform path is gone; the section
        # stays in the schema as an explicit null.
        assert record["fusion"] is None


class TestBenchCache:
    def test_record_structure_and_equivalence(self, tmp_path):
        record = bench_cache(
            scale=0.002, repeats=1, kmeans_iters=2,
            cache_dir=str(tmp_path / "cache"),
        )
        assert record["benchmark"] == "wallclock"
        assert record["mode"] == "cache"
        assert record["config"]["shard_docs"] > 0

        scenarios = [run["scenario"] for run in record["runs"]]
        assert scenarios == ["uncached", "cold", "warm", "incremental"]
        for run in record["runs"]:
            assert run["ok"] is True, run["scenario"]
            assert run["total_s"] > 0

        cold, warm, incremental = record["runs"][1:]
        assert cold["cache"]["misses"] == 3 and cold["cache"]["stored"] > 0
        assert warm["cache"]["hits"] == 3 and warm["cache"]["misses"] == 0
        # The modified corpus reuses untouched leading word-count shards.
        assert incremental["wc_shard_hits"] >= 0
        assert incremental["uncached_total_s"] > 0

        summary = record["cache_summary"]
        assert summary["warm_speedup_vs_uncached"] > 0
        assert summary["warm_bytes_served"] > 0
        assert summary["warm_seconds_saved"] >= 0
        assert summary["cold_store_overhead_s"] == (
            pytest.approx(cold["total_s"] - record["runs"][0]["total_s"])
        )

    def test_record_passes_the_validator(self, tmp_path):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "validate_bench", os.path.join(REPO, "tools", "validate_bench.py")
        )
        validate_bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validate_bench)
        record = bench_cache(
            scale=0.002, repeats=1, kmeans_iters=2,
            cache_dir=str(tmp_path / "cache"),
        )
        assert validate_bench.validate([record]) == []


class TestBenchWallclockTool:
    def test_tiny_smoke_writes_json(self, tmp_path):
        out = tmp_path / "BENCH_wallclock.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(REPO, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(REPO, "tools", "bench_wallclock.py"),
                "--tiny",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(out.read_text())
        assert record["benchmark"] == "wallclock"
        assert all(run["output_identical"] for run in record["runs"])
        backends = {run["backend"] for run in record["runs"]}
        assert backends == {"sequential", "threads", "processes"}
        for run in record["runs"]:
            assert {"backend", "workers", "phases", "total_s"} <= set(run)

    def test_read_mode_appends_to_legacy_record(self, tmp_path):
        out = tmp_path / "BENCH_wallclock.json"
        legacy = {"benchmark": "wallclock", "runs": []}
        out.write_text(json.dumps(legacy) + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(REPO, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(REPO, "tools", "bench_wallclock.py"),
                "--mode",
                "read",
                "--tiny",
                "--append",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        records = json.loads(out.read_text())
        # A legacy single-record file is converted into a list in place.
        assert isinstance(records, list) and len(records) == 2
        assert records[0] == legacy
        read_record = records[1]
        assert read_record["benchmark"] == "wallclock"
        assert read_record["mode"] == "read"
        assert [run["read_workers"] for run in read_record["runs"]] == [1, 2]
        for run in read_record["runs"]:
            assert run["output_identical"] is True
            assert "read" in run["phases"]

    def test_ipc_mode_tiny_smoke(self, tmp_path):
        out = tmp_path / "BENCH_wallclock.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(REPO, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(REPO, "tools", "bench_wallclock.py"),
                "--mode",
                "ipc",
                "--tiny",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(out.read_text())
        assert record["benchmark"] == "wallclock"
        assert record["mode"] == "ipc"
        for run in record["runs"]:
            assert run["output_identical"] is True
            assert run["ipc"]["total"]["tasks"] > 0
            # The tool exits non-zero when these are missing; belt and
            # braces: the written record carries them too.
            assert "utilization" in run and "straggler_ratio" in run
            assert run["trace"]
        assert "util" in proc.stdout
