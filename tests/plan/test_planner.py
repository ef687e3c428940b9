"""Adaptive planner: argmin choices, explain narrative."""

from __future__ import annotations

import pytest

from repro.dicts.factory import PLANNER_KINDS, dict_candidate_pairs
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
                merge_ops_per_doc=100.0 if phase == "input+wc" else 0.0,
            )
            for phase in PHASES
        },
        pickle_ns_per_byte=pickle_ns,
        unpickle_ns_per_byte=pickle_ns,
        pool_spawn_s_per_worker=spawn_s,
        dict_ns_per_op={"map": 100.0, "unordered_map": 40.0},
        source="fixture",
    )


class TestCostModel:
    def test_sequential_has_no_ipc_terms(self):
        model = RealCostModel(make_store(), cpu_count=4)
        estimate = model.predict(
            PhaseWorkload("transform", 1000), PhasePlan("transform", "sequential")
        )
        assert set(estimate.breakdown) == {"compute", "dict"}

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

    def test_dict_candidates_come_from_factory(self):
        planner = AdaptivePlanner(make_store(), cpu_count=1, shm_ok=False)
        plan = planner.plan(n_docs=100)
        enumerated = {
            (pair.wc.plan.dict_kind, pair.transform.plan.dict_kind)
            for pair in plan.pair_candidates
        }
        assert enumerated == set(dict_candidate_pairs(PLANNER_KINDS))

    def test_explain_names_rejected_candidates(self):
        planner = AdaptivePlanner(make_store(), cpu_count=1, shm_ok=True)
        plan = planner.plan(n_docs=1000)
        narrative = plan.explain()
        assert "rejected:" in narrative
        assert "kmeans:" in narrative
        assert "sequential" in narrative
        # The chosen line and the predicted totals are narrated too.
        assert f"Plan for {1000} documents" in narrative

    def test_ties_resolve_to_simplest_config(self):
        # With all costs zero every candidate ties; the stable sort must
        # leave the simplest (sequential) configuration in front.
        store = CalibrationStore(
            phases={phase: PhaseConstants() for phase in PHASES},
            pickle_ns_per_byte=0.0, unpickle_ns_per_byte=0.0,
            pool_spawn_s_per_worker=0.0, shm_setup_s=0.0, task_overhead_s=0.0,
            dict_ns_per_op={"map": 0.0, "unordered_map": 0.0},
        )
        plan = AdaptivePlanner(store, cpu_count=4, shm_ok=True).plan(n_docs=10)
        for phase in PHASES:
            assert plan.phases[phase].backend == "sequential"

    def test_summary_dict_is_json_able(self):
        import json

        plan = AdaptivePlanner(make_store(), cpu_count=1).plan(n_docs=100)
        payload = json.loads(json.dumps(plan.summary_dict()))
        assert set(payload["phases"]) == set(PHASES)


class TestCachedPhases:
    """Result-cache integration: cached phases are pinned, not enumerated."""

    def test_cached_phase_priced_at_serve_speed(self):
        model = RealCostModel(make_store(), cpu_count=1)
        workload = PhaseWorkload("kmeans", 1000, iterations=50)
        cached = model.predict(
            workload, PhasePlan("kmeans", "sequential", cached=True)
        )
        computed = model.predict(workload, PhasePlan("kmeans", "sequential"))
        assert set(cached.breakdown) == {"cache_serve"}
        assert cached.predicted_s < computed.predicted_s
        # Serving ignores the iteration count: the clustering comes whole.
        more_iters = model.predict(
            PhaseWorkload("kmeans", 1000, iterations=500),
            PhasePlan("kmeans", "sequential", cached=True),
        )
        assert more_iters.predicted_s == cached.predicted_s

    def test_cached_plan_describes_itself(self):
        assert PhasePlan("kmeans", "sequential", cached=True).describe() == "cached"

    def test_all_phases_cached_pins_every_plan(self):
        planner = AdaptivePlanner(make_store(), cpu_count=8, shm_ok=True)
        plan = planner.plan(
            n_docs=5000,
            cached_phases=frozenset({"input+wc", "transform", "kmeans"}),
        )
        for phase in PHASES:
            assert plan.phases[phase].cached, phase
        assert len(plan.pair_candidates) == 1
        assert len(plan.kmeans_candidates) == 1

    def test_partial_cache_still_enumerates_the_live_phase(self):
        planner = AdaptivePlanner(make_store(), cpu_count=4, shm_ok=True)
        plan = planner.plan(
            n_docs=1000, cached_phases=frozenset({"input+wc"})
        )
        assert plan.phases["input+wc"].cached
        assert not plan.phases["transform"].cached
        # The transform is still chosen from real candidates.
        assert len(plan.pair_candidates) > 1

    def test_cached_phases_beat_any_computed_candidate(self):
        planner = AdaptivePlanner(make_store(), cpu_count=1, shm_ok=False)
        cached = planner.plan(
            n_docs=1000,
            cached_phases=frozenset({"input+wc", "transform", "kmeans"}),
        )
        live = planner.plan(n_docs=1000)
        assert cached.predicted_total_s < live.predicted_total_s
