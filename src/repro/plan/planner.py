"""Adaptive per-phase planning for the real execution path.

The :class:`AdaptivePlanner` enumerates candidate
:class:`~repro.plan.cost_model.PhasePlan` configurations — backend tier ×
worker count × shm on/off × chunk grain × dictionary implementation —
prices each with the :class:`~repro.plan.cost_model.RealCostModel`, and
picks the argmin:

* ``input+wc`` and ``transform`` are planned **jointly**, because the
  dictionary implementations of the two phases are chosen as a pair
  (uniform or mixed, the paper's fourth optimization);
* ``kmeans`` is planned independently — its blocking and merge order are
  part of the output contract, so only backend/workers/shm vary.

The result is a :class:`RealPlan` whose :meth:`~RealPlan.explain` walks
the rejected candidates with the cost terms that sank them — the
planner's work is auditable, not an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dicts.factory import DEFAULT_KIND, PLANNER_KINDS, dict_candidate_pairs
from repro.errors import PlannerError
from repro.exec.shm import shm_available
from repro.plan.calibration import CalibrationStore
from repro.plan.cost_model import (
    PhaseEstimate,
    PhasePlan,
    PhaseWorkload,
    RealCostModel,
)

__all__ = ["PairEstimate", "RealPlan", "AdaptivePlanner"]

#: How many rejected candidates explain() narrates per section.
_EXPLAIN_TOP = 5


@dataclass
class PairEstimate:
    """A costed joint (word count, transform) candidate."""

    wc: PhaseEstimate
    transform: PhaseEstimate

    @property
    def predicted_s(self) -> float:
        return self.wc.predicted_s + self.transform.predicted_s

    def describe(self) -> str:
        return f"{self.wc.plan.describe()} → {self.transform.plan.describe()}"


@dataclass
class RealPlan:
    """The chosen per-phase configuration, with its audit trail."""

    phases: dict[str, PhasePlan]
    #: Ranked joint candidates for wc+transform, cheapest first.
    pair_candidates: list[PairEstimate] = field(default_factory=list)
    #: Ranked kmeans candidates, cheapest first.
    kmeans_candidates: list[PhaseEstimate] = field(default_factory=list)
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
        total = 0.0
        if self.pair_candidates:
            total += self.pair_candidates[0].predicted_s
        if self.kmeans_candidates:
            total += self.kmeans_candidates[0].predicted_s
        return total

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
        if self.pair_candidates:
            best = self.pair_candidates[0]
            lines.append(
                f"  input+wc → transform: {best.describe()}  "
                f"[predicted {best.predicted_s:.3f}s]"
            )
            for candidate in self.pair_candidates[1:_EXPLAIN_TOP + 1]:
                gap = candidate.predicted_s - best.predicted_s
                # Attribute the gap to its two worst terms across both
                # phases, so the narrative names the sinking cost.
                merged_best = _merged_breakdown(best)
                merged = _merged_breakdown(candidate)
                terms = sorted(
                    (
                        (term, merged.get(term, 0.0) - merged_best.get(term, 0.0))
                        for term in set(merged) | set(merged_best)
                    ),
                    key=lambda entry: -entry[1],
                )
                worst = ", ".join(
                    f"{term} +{delta:.3f}s"
                    for term, delta in terms[:2]
                    if delta > 1e-4
                )
                suffix = f" ({worst})" if worst else ""
                lines.append(
                    f"    rejected: {candidate.describe()}  "
                    f"+{gap:.3f}s{suffix}"
                )
        if self.kmeans_candidates:
            best = self.kmeans_candidates[0]
            lines.append(
                f"  kmeans: {best.plan.describe()}  "
                f"[predicted {best.predicted_s:.3f}s]"
            )
            for candidate in self.kmeans_candidates[1:_EXPLAIN_TOP + 1]:
                lines.append(
                    f"    rejected: {candidate.plan.describe()}  "
                    f"{candidate.penalty_vs(best)}"
                )
        return "\n".join(lines)


def _merged_breakdown(pair: PairEstimate) -> dict[str, float]:
    merged: dict[str, float] = dict(pair.wc.breakdown)
    for term, value in pair.transform.breakdown.items():
        merged[term] = merged.get(term, 0.0) + value
    return merged


class AdaptivePlanner:
    """Enumerate-and-cost planner over the real backends."""

    def __init__(
        self,
        calibration: CalibrationStore,
        cpu_count: int | None = None,
        worker_options: tuple[int, ...] = (1, 2, 4),
        dict_kinds: tuple[str, ...] = PLANNER_KINDS,
        mixed_dicts: bool = True,
        grain_options: tuple[int | None, ...] = (None,),
        shm_ok: bool | None = None,
    ) -> None:
        self.calibration = calibration
        self.model = RealCostModel(calibration, cpu_count=cpu_count)
        self.worker_options = worker_options
        self.dict_kinds = dict_kinds
        self.mixed_dicts = mixed_dicts
        self.grain_options = grain_options
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

    # -- planning --------------------------------------------------------------------

    def plan(
        self,
        n_docs: int,
        input_bytes: int = 0,
        kmeans_iters: int = 10,
        cached_phases: frozenset[str] = frozenset(),
        memory_budget: int | None = None,
    ) -> RealPlan:
        """Pick the per-phase argmin for a corpus of ``n_docs``.

        ``cached_phases`` names phases whose full result already sits in
        the run's result cache: those are pinned to a ``cached``
        :class:`PhasePlan` (priced at deserialization speed) instead of
        being enumerated — the planner routes around work it can skip.

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
        must_tile = self.calibration.must_tile(n_docs, memory_budget)
        if memory_budget is None:
            tiled_options: tuple[bool, ...] = (False,)
        elif must_tile:
            tiled_options = (True,)
        else:
            tiled_options = (False, True)
        wl_wc = PhaseWorkload("input+wc", n_docs, input_bytes=input_bytes)
        wl_tr = PhaseWorkload("transform", n_docs, matrix_bytes=matrix_bytes)
        wl_km = PhaseWorkload(
            "kmeans", n_docs, iterations=kmeans_iters,
            matrix_bytes=matrix_bytes,
        )
        configs = self._configs()

        def estimates(
            workload: PhaseWorkload, kind: str, tilings=(False,)
        ) -> list[PhaseEstimate]:
            """One phase's candidates under dictionary ``kind``: every
            live configuration, or the single pinned plan when cached."""
            phase = workload.phase
            if phase in cached_phases:
                # Served tiled only when nothing else is allowed.
                plans = [PhasePlan(
                    phase, "sequential", 1, cached=True, tiled=all(tilings)
                )]
            else:
                plans = [
                    PhasePlan(
                        phase, backend, workers, shm,
                        grain=grain, dict_kind=kind, tiled=tiled,
                    )
                    for backend, workers, shm in configs
                    for grain in self.grain_options
                    for tiled in tilings
                ]
            return [self.model.predict(workload, plan) for plan in plans]

        # A cached phase has no dictionary to choose: with one side
        # pinned only the live side's kind varies, with both there is
        # nothing left to enumerate.
        pinned = cached_phases & {"input+wc", "transform"}
        if not pinned:
            kind_pairs = dict_candidate_pairs(
                self.dict_kinds, mixed=self.mixed_dicts
            )
        elif len(pinned) == 1:
            kind_pairs = [(kind, kind) for kind in self.dict_kinds]
        else:
            kind_pairs = [(DEFAULT_KIND, DEFAULT_KIND)]
        # Each phase is priced once per kind; the transform is free to
        # pick any configuration per word-count candidate (run_pipeline
        # rebinds backends between phases).
        counts = {kind: estimates(wl_wc, kind) for kind, _ in kind_pairs}
        transforms = {
            kind: estimates(wl_tr, kind, tiled_options)
            for _, kind in kind_pairs
        }
        pairs = [
            PairEstimate(wc=wc_est, transform=tr_est)
            for wc_kind, tr_kind in kind_pairs
            for wc_est in counts[wc_kind]
            for tr_est in transforms[tr_kind]
        ]
        pairs.sort(key=lambda pair: pair.predicted_s)

        # K-means streams whatever matrix the transform produced, so its
        # tiled flag follows the winning transform (dispatch at run time
        # is automatic on the matrix type; the flag prices the passes).
        km_tiled = pairs[0].transform.plan.tiled
        if "kmeans" in cached_phases:
            kmeans: list[PhaseEstimate] = [
                self.model.predict(
                    wl_km, PhasePlan("kmeans", "sequential", 1, cached=True)
                )
            ]
        else:
            kmeans = [
                self.model.predict(
                    wl_km,
                    PhasePlan("kmeans", backend, workers, shm, tiled=km_tiled),
                )
                for backend, workers, shm in configs
                # Tiled assignment ships block tokens and reads tiles in
                # the workers — the shm plane has nothing to carry.
                if not (km_tiled and shm)
            ]
        kmeans.sort(key=lambda estimate: estimate.predicted_s)

        best_pair, best_km = pairs[0], kmeans[0]
        return RealPlan(
            phases={
                "input+wc": best_pair.wc.plan,
                "transform": best_pair.transform.plan,
                "kmeans": best_km.plan,
            },
            pair_candidates=pairs,
            kmeans_candidates=kmeans,
            calibration=self.calibration.describe(),
            n_docs=n_docs,
            memory_budget=memory_budget,
            matrix_bytes=matrix_bytes,
        )
