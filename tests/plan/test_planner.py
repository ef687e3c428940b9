"""Adaptive planner: argmin choices, explain narrative, recorded choices."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.dicts.factory import DEFAULT_KIND
from repro.errors import PlannerError
from repro.plan import (
    AdaptivePlanner,
    CalibrationStore,
    PhaseConstants,
    PhasePlan,
    PhaseWorkload,
    RealCostModel,
)

PHASES = ("input+wc", "transform", "kmeans")


def make_store(
    compute_ns: float = 100_000.0,
    task_bytes: float = 3_000.0,
    result_bytes: float = 5_000.0,
    pickle_ns: float = 0.5,
    spawn_s: float = 0.12,
) -> CalibrationStore:
    """A store with hand-picked constants (no probing, fully deterministic)."""
    return CalibrationStore(
        phases={
            phase: PhaseConstants(
                compute_ns_per_doc=compute_ns,
                task_bytes_per_doc=task_bytes,
                result_bytes_per_doc=result_bytes,
                # Mirrors the probe: shm thins kmeans task payloads
                # (block tokens) but not wc/transform ones.
                shm_task_bytes_per_doc=(
                    0.0 if phase == "kmeans" else task_bytes
                ),
            )
            for phase in PHASES
        },
        pickle_ns_per_byte=pickle_ns,
        unpickle_ns_per_byte=pickle_ns,
        pool_spawn_s_per_worker=spawn_s,
        source="fixture",
    )


class TestCostModel:
    def test_sequential_has_no_ipc_terms(self):
        model = RealCostModel(make_store(), cpu_count=4)
        estimate = model.predict(
            PhaseWorkload("transform", 1000), PhasePlan("transform", "sequential")
        )
        assert set(estimate.breakdown) == {"compute"}

    def test_threads_pay_overhead_without_parallelism(self):
        model = RealCostModel(make_store(), cpu_count=4)
        seq = model.predict(
            PhaseWorkload("transform", 1000), PhasePlan("transform", "sequential")
        )
        threads = model.predict(
            PhaseWorkload("transform", 1000), PhasePlan("transform", "threads", 4)
        )
        assert threads.breakdown["compute"] == seq.breakdown["compute"]
        assert threads.predicted_s > seq.predicted_s

    def test_processes_divide_compute_by_cpus(self):
        model = RealCostModel(make_store(), cpu_count=4)
        seq = model.predict(
            PhaseWorkload("transform", 1000), PhasePlan("transform", "sequential")
        )
        procs = model.predict(
            PhaseWorkload("transform", 1000), PhasePlan("transform", "processes", 4)
        )
        assert procs.breakdown["compute"] == pytest.approx(
            seq.breakdown["compute"] / 4
        )
        assert procs.breakdown["pickle"] > 0
        assert procs.breakdown["spawn"] == pytest.approx(4 * 0.12)

    def test_workers_clamped_to_cpu_count(self):
        model = RealCostModel(make_store(), cpu_count=1)
        procs = model.predict(
            PhaseWorkload("transform", 1000), PhasePlan("transform", "processes", 8)
        )
        seq = model.predict(
            PhaseWorkload("transform", 1000), PhasePlan("transform", "sequential")
        )
        # 1 CPU: no compute division, only overhead on top.
        assert procs.breakdown["compute"] == seq.breakdown["compute"]

    def test_unknown_phase_raises(self):
        from repro.errors import ConfigurationError

        model = RealCostModel(make_store(), cpu_count=1)
        with pytest.raises(ConfigurationError):
            model.predict(PhaseWorkload("nope", 10), PhasePlan("nope", "sequential"))


class TestAdaptivePlanner:
    def test_single_cpu_discovers_sequential(self):
        planner = AdaptivePlanner(make_store(), cpu_count=1, shm_ok=True)
        plan = planner.plan(n_docs=1000)
        for phase in PHASES:
            assert plan.phases[phase].backend == "sequential", phase

    def test_many_cpus_cheap_ipc_discovers_processes(self):
        # Compute-heavy docs, near-free pickling and spawning: the model
        # must flip to the process backend without being told.
        store = make_store(
            compute_ns=5_000_000.0, task_bytes=10.0, result_bytes=10.0,
            pickle_ns=0.01, spawn_s=0.001,
        )
        planner = AdaptivePlanner(store, cpu_count=8, shm_ok=True)
        plan = planner.plan(n_docs=5000)
        assert plan.phases["input+wc"].backend == "processes"
        assert plan.phases["kmeans"].backend == "processes"

    def test_empty_corpus_raises(self):
        with pytest.raises(PlannerError):
            AdaptivePlanner(make_store(), cpu_count=1).plan(n_docs=0)

    def test_each_phase_is_one_argmin_over_the_configurations(self):
        planner = AdaptivePlanner(make_store(), cpu_count=4, shm_ok=True)
        plan = planner.plan(n_docs=1000)
        configs = planner._configs()
        assert len(configs) == 10
        for phase in PHASES:
            ranked = plan.candidates[phase]
            assert len(ranked) == len(configs)
            assert plan.phases[phase] == ranked[0].plan
            costs = [estimate.predicted_s for estimate in ranked]
            assert costs == sorted(costs)

    def test_explain_names_rejected_candidates(self):
        planner = AdaptivePlanner(make_store(), cpu_count=1, shm_ok=True)
        plan = planner.plan(n_docs=1000)
        narrative = plan.explain()
        assert "rejected:" in narrative
        assert "kmeans:" in narrative
        assert "sequential" in narrative
        # The chosen line and the predicted totals are narrated too.
        assert f"Plan for {1000} documents" in narrative
        # One chosen configuration per phase, and only the knobs a run
        # executes.
        chosen = [line for line in narrative.splitlines() if "[predicted" in line]
        assert [line.split(":")[0].strip() for line in chosen] == list(PHASES)
        assert "dict=" not in narrative and "grain=" not in narrative

    def test_ties_resolve_to_simplest_config(self):
        # With all costs zero every candidate ties; the stable sort must
        # leave the simplest (sequential) configuration in front.
        store = CalibrationStore(
            phases={phase: PhaseConstants() for phase in PHASES},
            pickle_ns_per_byte=0.0, unpickle_ns_per_byte=0.0,
            pool_spawn_s_per_worker=0.0, shm_setup_s=0.0, task_overhead_s=0.0,
        )
        plan = AdaptivePlanner(store, cpu_count=4, shm_ok=True).plan(n_docs=10)
        for phase in PHASES:
            assert plan.phases[phase].backend == "sequential"

    def test_summary_dict_is_json_able(self):
        import json

        plan = AdaptivePlanner(make_store(), cpu_count=1).plan(n_docs=100)
        payload = json.loads(json.dumps(plan.summary_dict()))
        assert set(payload["phases"]) == set(PHASES)


class TestPhasePlan:
    def test_dict_kind_is_a_constant_not_a_field(self):
        # perfbench/workloads.py reads phase.dict_kind; nothing sets it.
        assert PhasePlan.dict_kind == DEFAULT_KIND
        assert "dict_kind" not in {f.name for f in dataclasses.fields(PhasePlan)}
        with pytest.raises(TypeError):
            PhasePlan("input+wc", "sequential", dict_kind="unordered_map")

    def test_describe_names_only_executed_knobs(self):
        assert PhasePlan("input+wc", "sequential").describe() == "sequential"
        assert (
            PhasePlan("transform", "processes", 4, True, tiled=True).describe()
            == "processes-4+shm+tiled"
        )


#: Committed calibration stores the choice table was recorded over.
_REPO = Path(__file__).resolve().parents[2]
STORES = {
    "perfbench": str(_REPO / "perfbench" / "calibration.json"),
    "ci": str(_REPO / "benchmarks" / "calibration_ci.json"),
}

MB, GB = 1 << 20, 1 << 30
SEQ = ("sequential", 1, False, False)
SEQ_TILED = ("sequential", 1, False, True)
PROCS_4 = ("processes", 4, False, False)

#: (store, n_docs, memory_budget, cpu_count, input+wc, transform, kmeans),
#: each phase as (backend, workers, shm, tiled), planned with shm_ok=True.
#: Recorded from the planner that still enumerated dictionary kinds,
#: grains and cache pins; the cut-down planner must choose the same.
PLAN_CHOICES = [
    ("perfbench", 16, None, 1, SEQ, SEQ, SEQ),
    ("perfbench", 16, None, 2, SEQ, SEQ, SEQ),
    ("perfbench", 16, None, 8, SEQ, SEQ, SEQ),
    ("perfbench", 16, MB, 1, SEQ, SEQ, SEQ),
    ("perfbench", 16, MB, 2, SEQ, SEQ, SEQ),
    ("perfbench", 16, MB, 8, SEQ, SEQ, SEQ),
    ("perfbench", 16, GB, 1, SEQ, SEQ, SEQ),
    ("perfbench", 16, GB, 2, SEQ, SEQ, SEQ),
    ("perfbench", 16, GB, 8, SEQ, SEQ, SEQ),
    ("perfbench", 250, None, 1, SEQ, SEQ, SEQ),
    ("perfbench", 250, None, 2, SEQ, SEQ, SEQ),
    ("perfbench", 250, None, 8, SEQ, SEQ, SEQ),
    ("perfbench", 250, MB, 1, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 250, MB, 2, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 250, MB, 8, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 250, GB, 1, SEQ, SEQ, SEQ),
    ("perfbench", 250, GB, 2, SEQ, SEQ, SEQ),
    ("perfbench", 250, GB, 8, SEQ, SEQ, SEQ),
    ("perfbench", 1200, None, 1, SEQ, SEQ, SEQ),
    ("perfbench", 1200, None, 2, SEQ, SEQ, SEQ),
    ("perfbench", 1200, None, 8, PROCS_4, SEQ, SEQ),
    ("perfbench", 1200, MB, 1, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 1200, MB, 2, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 1200, MB, 8, PROCS_4, SEQ_TILED, SEQ_TILED),
    ("perfbench", 1200, GB, 1, SEQ, SEQ, SEQ),
    ("perfbench", 1200, GB, 2, SEQ, SEQ, SEQ),
    ("perfbench", 1200, GB, 8, PROCS_4, SEQ, SEQ),
    ("perfbench", 5000, None, 1, SEQ, SEQ, SEQ),
    ("perfbench", 5000, None, 2, SEQ, SEQ, SEQ),
    ("perfbench", 5000, None, 8, PROCS_4, SEQ, SEQ),
    ("perfbench", 5000, MB, 1, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 5000, MB, 2, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 5000, MB, 8, PROCS_4, SEQ_TILED, SEQ_TILED),
    ("perfbench", 5000, GB, 1, SEQ, SEQ, SEQ),
    ("perfbench", 5000, GB, 2, SEQ, SEQ, SEQ),
    ("perfbench", 5000, GB, 8, PROCS_4, SEQ, SEQ),
    ("perfbench", 50000, None, 1, SEQ, SEQ, SEQ),
    ("perfbench", 50000, None, 2, SEQ, SEQ, SEQ),
    ("perfbench", 50000, None, 8, PROCS_4, SEQ, SEQ),
    ("perfbench", 50000, MB, 1, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 50000, MB, 2, SEQ, SEQ_TILED, SEQ_TILED),
    ("perfbench", 50000, MB, 8, PROCS_4, SEQ_TILED, SEQ_TILED),
    ("perfbench", 50000, GB, 1, SEQ, SEQ, SEQ),
    ("perfbench", 50000, GB, 2, SEQ, SEQ, SEQ),
    ("perfbench", 50000, GB, 8, PROCS_4, SEQ, SEQ),
    ("ci", 16, None, 1, SEQ, SEQ, SEQ),
    ("ci", 16, None, 2, SEQ, SEQ, SEQ),
    ("ci", 16, None, 8, SEQ, SEQ, SEQ),
    ("ci", 16, MB, 1, SEQ, SEQ, SEQ),
    ("ci", 16, MB, 2, SEQ, SEQ, SEQ),
    ("ci", 16, MB, 8, SEQ, SEQ, SEQ),
    ("ci", 16, GB, 1, SEQ, SEQ, SEQ),
    ("ci", 16, GB, 2, SEQ, SEQ, SEQ),
    ("ci", 16, GB, 8, SEQ, SEQ, SEQ),
    ("ci", 250, None, 1, SEQ, SEQ, SEQ),
    ("ci", 250, None, 2, SEQ, SEQ, SEQ),
    ("ci", 250, None, 8, SEQ, SEQ, SEQ),
    ("ci", 250, MB, 1, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 250, MB, 2, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 250, MB, 8, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 250, GB, 1, SEQ, SEQ, SEQ),
    ("ci", 250, GB, 2, SEQ, SEQ, SEQ),
    ("ci", 250, GB, 8, SEQ, SEQ, SEQ),
    ("ci", 1200, None, 1, SEQ, SEQ, SEQ),
    ("ci", 1200, None, 2, SEQ, SEQ, SEQ),
    ("ci", 1200, None, 8, SEQ, SEQ, SEQ),
    ("ci", 1200, MB, 1, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 1200, MB, 2, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 1200, MB, 8, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 1200, GB, 1, SEQ, SEQ, SEQ),
    ("ci", 1200, GB, 2, SEQ, SEQ, SEQ),
    ("ci", 1200, GB, 8, SEQ, SEQ, SEQ),
    ("ci", 5000, None, 1, SEQ, SEQ, SEQ),
    ("ci", 5000, None, 2, SEQ, SEQ, SEQ),
    ("ci", 5000, None, 8, SEQ, SEQ, SEQ),
    ("ci", 5000, MB, 1, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 5000, MB, 2, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 5000, MB, 8, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 5000, GB, 1, SEQ, SEQ, SEQ),
    ("ci", 5000, GB, 2, SEQ, SEQ, SEQ),
    ("ci", 5000, GB, 8, SEQ, SEQ, SEQ),
    ("ci", 50000, None, 1, SEQ, SEQ, SEQ),
    ("ci", 50000, None, 2, SEQ, SEQ, SEQ),
    ("ci", 50000, None, 8, PROCS_4, SEQ, SEQ),
    ("ci", 50000, MB, 1, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 50000, MB, 2, SEQ, SEQ_TILED, SEQ_TILED),
    ("ci", 50000, MB, 8, PROCS_4, SEQ_TILED, SEQ_TILED),
    ("ci", 50000, GB, 1, SEQ, SEQ, SEQ),
    ("ci", 50000, GB, 2, SEQ, SEQ, SEQ),
    ("ci", 50000, GB, 8, PROCS_4, SEQ, SEQ),
]


class TestPlanChoiceTable:
    @pytest.fixture(scope="class")
    def stores(self):
        return {name: CalibrationStore.load(path) for name, path in STORES.items()}

    @pytest.mark.parametrize(
        "store, n_docs, budget, cpus, wc, transform, kmeans", PLAN_CHOICES
    )
    def test_recorded_choice(
        self, stores, store, n_docs, budget, cpus, wc, transform, kmeans
    ):
        plan = AdaptivePlanner(stores[store], cpu_count=cpus, shm_ok=True).plan(
            n_docs, memory_budget=budget
        )
        got = [
            (step.backend, step.workers, step.shm, step.tiled)
            for step in (plan.phases[phase] for phase in PHASES)
        ]
        assert got == [wc, transform, kmeans]
