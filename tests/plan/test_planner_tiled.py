"""Planner under a memory budget: tile only when the budget demands it.

The rule is asymmetric on purpose. A budget smaller than the predicted
matrix footprint leaves no choice — every plan must tile. A
budget the matrix fits under makes tiling an *option* the cost model
prices via the ``tile_io`` term — and since spill I/O is pure overhead
when memory suffices, the argmin must come back untiled.
"""

from __future__ import annotations

import pytest

from repro.plan import AdaptivePlanner, PhasePlan, PhaseWorkload, RealCostModel

from tests.plan.test_planner import make_store

N_DOCS = 1000


def _matrix_bytes(store, n_docs=N_DOCS):
    return int(n_docs * store.phases["transform"].result_bytes_per_doc)


class TestPlanDecision:
    def test_no_budget_never_tiles(self):
        plan = AdaptivePlanner(make_store(), cpu_count=4).plan(N_DOCS)
        assert plan.tiled is False
        assert plan.memory_budget is None
        assert all(not p.tiled for p in plan.phases.values())

    def test_budget_below_matrix_forces_tiling(self):
        store = make_store()
        budget = _matrix_bytes(store) // 4
        plan = AdaptivePlanner(store, cpu_count=4).plan(
            N_DOCS, memory_budget=budget
        )
        assert plan.tiled is True
        assert plan.memory_budget == budget
        assert plan.matrix_bytes == _matrix_bytes(store)
        assert plan.phases["transform"].tiled
        assert plan.phases["kmeans"].tiled

    def test_ample_budget_stays_untiled(self):
        store = make_store()
        plan = AdaptivePlanner(store, cpu_count=4).plan(
            N_DOCS, memory_budget=_matrix_bytes(store) * 100
        )
        assert plan.tiled is False
        assert plan.memory_budget is not None
        assert not plan.phases["transform"].tiled

    def test_forced_tiled_plan_never_pairs_kmeans_with_shm(self):
        store = make_store()
        plan = AdaptivePlanner(store, cpu_count=4).plan(
            N_DOCS, memory_budget=_matrix_bytes(store) // 8
        )
        km = plan.phases["kmeans"]
        assert km.tiled
        assert not km.shm  # workers map tiles; a segment would re-materialize

    def test_summary_carries_tiling_fields(self):
        store = make_store()
        budget = _matrix_bytes(store) // 2
        summary = AdaptivePlanner(store, cpu_count=4).plan(
            N_DOCS, memory_budget=budget
        ).summary_dict()
        assert summary["tiled"] is True
        assert summary["memory_budget"] == budget
        assert summary["matrix_bytes"] == _matrix_bytes(store)


class TestTileIoCost:
    def test_tiled_plan_pays_tile_io(self):
        store = make_store()
        model = RealCostModel(store, cpu_count=4)
        workload = PhaseWorkload(
            "transform", N_DOCS, matrix_bytes=_matrix_bytes(store)
        )
        plain = model.predict(workload, PhasePlan("transform", "sequential"))
        tiled = model.predict(
            workload, PhasePlan("transform", "sequential", tiled=True)
        )
        assert "tile_io" not in plain.breakdown
        assert tiled.breakdown["tile_io"] == pytest.approx(
            _matrix_bytes(store) * store.tile_io_ns_per_byte * 1e-9
        )
        assert tiled.predicted_s > plain.predicted_s

    def test_kmeans_pays_per_iteration(self):
        store = make_store()
        model = RealCostModel(store, cpu_count=4)
        mb = _matrix_bytes(store)
        one = model.predict(
            PhaseWorkload("kmeans", N_DOCS, iterations=1, matrix_bytes=mb),
            PhasePlan("kmeans", "sequential", tiled=True),
        )
        five = model.predict(
            PhaseWorkload("kmeans", N_DOCS, iterations=5, matrix_bytes=mb),
            PhasePlan("kmeans", "sequential", tiled=True),
        )
        assert five.breakdown["tile_io"] == pytest.approx(
            5 * one.breakdown["tile_io"]
        )

    def test_describe_marks_tiled_phases(self):
        assert "+tiled" in PhasePlan("kmeans", "sequential", tiled=True).describe()
        assert "+tiled" not in PhasePlan("kmeans", "sequential").describe()
