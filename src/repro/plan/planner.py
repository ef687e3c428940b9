"""Adaptive per-phase planning for the real execution path.

The :class:`AdaptivePlanner` enumerates candidate
:class:`~repro.plan.cost_model.PhasePlan` configurations — backend tier ×
worker count × shm on/off × tiling, the choices
:func:`~repro.core.pipeline.run_pipeline` executes — prices each with the
:class:`~repro.plan.cost_model.RealCostModel`, and picks the argmin of
every phase on its own: ``run_pipeline`` rebinds backends between
phases, so no phase's choice constrains another's. The one link is the
matrix form: k-means streams whatever matrix the transform produced, so
its tiling follows the winning transform.

The result is a :class:`RealPlan` whose :meth:`~RealPlan.explain` walks
the rejected candidates with the cost terms that sank them — the
planner's work is auditable, not an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlannerError
from repro.exec.shm import shm_available
from repro.plan.calibration import CalibrationStore
from repro.plan.cost_model import (
    PhaseEstimate,
    PhasePlan,
    PhaseWorkload,
    RealCostModel,
)

__all__ = ["RealPlan", "AdaptivePlanner"]

#: How many rejected candidates explain() narrates per phase.
_EXPLAIN_TOP = 5


@dataclass
class RealPlan:
    """The chosen per-phase configuration, with its audit trail."""

    phases: dict[str, PhasePlan]
    #: Each phase's costed candidates, cheapest first.
    candidates: dict[str, list[PhaseEstimate]] = field(default_factory=dict)
    calibration: str = "unknown"
    n_docs: int = 0
    #: The run's spill budget (bytes) when one was planned under;
    #: execution sizes the :class:`~repro.tiles.store.TileStore` from it.
    memory_budget: int | None = None
    #: The matrix-size estimate the tiling decision was made against.
    matrix_bytes: int = 0

    @property
    def tiled(self) -> bool:
        transform = self.phases.get("transform")
        return bool(transform and transform.tiled)

    @property
    def predicted_total_s(self) -> float:
        return sum(
            ranked[0].predicted_s for ranked in self.candidates.values() if ranked
        )

    def describe(self) -> str:
        """One line per phase, e.g. for CLI output."""
        return ", ".join(
            f"{phase}={plan.describe()}" for phase, plan in self.phases.items()
        )

    def summary_dict(self) -> dict:
        """JSON-able view (benchmark records embed this)."""
        return {
            "phases": {
                phase: plan.describe() for phase, plan in self.phases.items()
            },
            "tiled": self.tiled,
            "memory_budget": self.memory_budget,
            "matrix_bytes": self.matrix_bytes,
            "predicted_total_s": self.predicted_total_s,
            "calibration": self.calibration,
            "n_docs": self.n_docs,
        }

    def explain(self) -> str:
        """Narrative of the chosen candidates and why the rest lost."""
        lines = [
            f"Plan for {self.n_docs} documents "
            f"(calibration: {self.calibration}; "
            f"predicted total {self.predicted_total_s:.3f}s)"
        ]
        for phase, ranked in self.candidates.items():
            if not ranked:
                continue
            best = ranked[0]
            lines.append(
                f"  {phase}: {best.plan.describe()}  "
                f"[predicted {best.predicted_s:.3f}s]"
            )
            for candidate in ranked[1:_EXPLAIN_TOP + 1]:
                lines.append(
                    f"    rejected: {candidate.plan.describe()}  "
                    f"{candidate.penalty_vs(best)}"
                )
        return "\n".join(lines)


class AdaptivePlanner:
    """Enumerate-and-cost planner over the real backends."""

    def __init__(
        self,
        calibration: CalibrationStore,
        cpu_count: int | None = None,
        worker_options: tuple[int, ...] = (1, 2, 4),
        shm_ok: bool | None = None,
    ) -> None:
        self.calibration = calibration
        self.model = RealCostModel(calibration, cpu_count=cpu_count)
        self.worker_options = worker_options
        self.shm_ok = shm_available() if shm_ok is None else shm_ok

    # -- candidate enumeration ------------------------------------------------------

    def _configs(self) -> list[tuple[str, int, bool]]:
        """(backend, workers, shm) combinations, simplest first.

        Order matters: the argmin sort is stable, so ties resolve toward
        the earliest (simplest) configuration — sequential before
        threads before processes.
        """
        configs: list[tuple[str, int, bool]] = [("sequential", 1, False)]
        for workers in self.worker_options:
            configs.append(("threads", workers, False))
        for workers in self.worker_options:
            configs.append(("processes", workers, False))
            if self.shm_ok:
                configs.append(("processes", workers, True))
        return configs

    def _ranked(
        self, workload: PhaseWorkload, tilings: tuple[bool, ...]
    ) -> list[PhaseEstimate]:
        """Every configuration × tiling of one phase, cheapest first."""
        estimates = [
            self.model.predict(
                workload,
                PhasePlan(workload.phase, backend, workers, shm, tiled=tiled),
            )
            for backend, workers, shm in self._configs()
            for tiled in tilings
            # Tiled assignment ships block tokens and reads tiles in the
            # workers — the shm plane has nothing to carry.
            if not (workload.phase == "kmeans" and tiled and shm)
        ]
        estimates.sort(key=lambda estimate: estimate.predicted_s)
        return estimates

    # -- planning --------------------------------------------------------------------

    def plan(
        self,
        n_docs: int,
        kmeans_iters: int = 10,
        memory_budget: int | None = None,
    ) -> RealPlan:
        """Pick the per-phase argmin for a corpus of ``n_docs``.

        ``memory_budget`` (bytes) bounds the resident score matrix. When
        the estimated matrix exceeds it, only tiled candidates are
        enumerated for the transform and k-means. When the matrix fits,
        tiled *and* untiled variants compete and the tile-I/O cost term
        makes the resident matrix win: the plan only tiles when the
        budget demands it.
        """
        if n_docs <= 0:
            raise PlannerError("cannot plan for an empty corpus")
        matrix_bytes = self.calibration.matrix_bytes(n_docs)
        if memory_budget is None:
            tilings: tuple[bool, ...] = (False,)
        elif self.calibration.must_tile(n_docs, memory_budget):
            tilings = (True,)
        else:
            tilings = (False, True)
        candidates = {
            "input+wc": self._ranked(PhaseWorkload("input+wc", n_docs), (False,)),
            "transform": self._ranked(
                PhaseWorkload("transform", n_docs, matrix_bytes=matrix_bytes),
                tilings,
            ),
        }
        # K-means streams whatever matrix the transform produced, so its
        # tiled flag follows the winning transform (dispatch at run time
        # is automatic on the matrix type; the flag prices the passes).
        candidates["kmeans"] = self._ranked(
            PhaseWorkload(
                "kmeans", n_docs, iterations=kmeans_iters,
                matrix_bytes=matrix_bytes,
            ),
            (candidates["transform"][0].plan.tiled,),
        )
        return RealPlan(
            phases={phase: ranked[0].plan for phase, ranked in candidates.items()},
            candidates=candidates,
            calibration=self.calibration.describe(),
            n_docs=n_docs,
            memory_budget=memory_budget,
            matrix_bytes=matrix_bytes,
        )
