"""Adaptive per-phase planning for the real execution path.

The :class:`AdaptivePlanner` enumerates candidate
:class:`~repro.plan.cost_model.PhasePlan` configurations — backend tier ×
worker count × shm on/off × chunk grain × dictionary implementation, plus
the fused wc→transform variant — prices each with the
:class:`~repro.plan.cost_model.RealCostModel`, and picks the argmin:

* ``input+wc`` and ``transform`` are planned **jointly**, because fusion
  couples them (a fused transform must run on the word count's backend
  and pool generation) and because fusion changes *both* phases' IPC
  bills;
* ``kmeans`` is planned independently — its blocking and merge order are
  part of the output contract, so only backend/workers/shm vary.

The result is a :class:`RealPlan` whose :meth:`~RealPlan.explain` walks
the rejected candidates with the cost terms that sank them — the
planner's work is auditable, not an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dicts.factory import PLANNER_KINDS, dict_candidate_pairs
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
    fused: bool

    @property
    def predicted_s(self) -> float:
        return self.wc.predicted_s + self.transform.predicted_s

    def describe(self) -> str:
        if self.fused:
            return (
                f"fused {self.wc.plan.describe()} → "
                f"dict={self.transform.plan.dict_kind}"
            )
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
    def fused(self) -> bool:
        transform = self.phases.get("transform")
        return bool(transform and transform.fused_with_previous)

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
            "fused": self.fused,
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

    @staticmethod
    def _supports_fusion(backend: str, shm: bool) -> bool:
        # The cost model prices a fused flush task as a constant-size
        # token. That holds in-process (nothing is pickled) and on the
        # process backend with the shm plane carrying the per-chunk term
        # columns; without it the columns ride in the tasks — supported
        # by the operator, but not what the model would be pricing.
        return backend != "processes" or shm

    # -- planning --------------------------------------------------------------------

    def plan(
        self,
        n_docs: int,
        input_bytes: int = 0,
        kmeans_iters: int = 10,
        cached_phases: frozenset[str] = frozenset(),
        allow_fusion: bool = True,
        memory_budget: int | None = None,
    ) -> RealPlan:
        """Pick the per-phase argmin for a corpus of ``n_docs``.

        ``cached_phases`` names phases whose full result already sits in
        the run's result cache: those are pinned to a ``cached``
        :class:`PhasePlan` (priced at deserialization speed) instead of
        being enumerated — the planner routes around work it can skip.
        ``allow_fusion=False`` drops the fused wc→transform candidates;
        a cache-enabled run sets it because fused intermediates never
        materialize parent-side, which would leave nothing to store.

        ``memory_budget`` (bytes) bounds the resident score matrix. When
        the estimated matrix exceeds it, only tiled candidates are
        enumerated for the transform and k-means — fusion is also off,
        because fused rows materialize parent-side before any tile could
        absorb them. When the matrix fits, tiled *and* untiled variants
        compete and the tile-I/O cost term makes the resident matrix
        win: the plan only tiles when the budget demands it.
        """
        if n_docs <= 0:
            raise PlannerError("cannot plan for an empty corpus")
        matrix_bytes = 0
        tr_constants = self.calibration.phases.get("transform")
        if tr_constants is not None:
            matrix_bytes = int(n_docs * tr_constants.result_bytes_per_doc)
        must_tile = memory_budget is not None and matrix_bytes > memory_budget
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
        wc_cached = "input+wc" in cached_phases
        tr_cached = "transform" in cached_phases

        configs = self._configs()
        pairs: list[PairEstimate] = []
        cached_wc_est = self.model.predict(
            wl_wc, PhasePlan("input+wc", "sequential", 1, cached=True)
        )
        cached_tr_est = self.model.predict(
            wl_tr,
            PhasePlan(
                "transform", "sequential", 1, cached=True, tiled=must_tile
            ),
        )
        if wc_cached and tr_cached:
            pairs.append(
                PairEstimate(wc=cached_wc_est, transform=cached_tr_est,
                             fused=False)
            )
        elif wc_cached:
            # Served word counts have no live pool to fuse into: the
            # transform is enumerated unfused.
            for tr_kind in self.dict_kinds:
                for backend2, workers2, shm2 in configs:
                    for grain2 in self.grain_options:
                        for tiled2 in tiled_options:
                            tr_plan = PhasePlan(
                                "transform", backend2, workers2, shm2,
                                grain=grain2, dict_kind=tr_kind,
                                tiled=tiled2,
                            )
                            pairs.append(
                                PairEstimate(
                                    wc=cached_wc_est,
                                    transform=self.model.predict(
                                        wl_tr, tr_plan
                                    ),
                                    fused=False,
                                )
                            )
        elif tr_cached:
            for wc_kind in self.dict_kinds:
                for backend1, workers1, shm1 in configs:
                    for grain1 in self.grain_options:
                        wc_plan = PhasePlan(
                            "input+wc", backend1, workers1, shm1,
                            grain=grain1, dict_kind=wc_kind,
                        )
                        pairs.append(
                            PairEstimate(
                                wc=self.model.predict(wl_wc, wc_plan),
                                transform=cached_tr_est,
                                fused=False,
                            )
                        )
        else:
            for wc_kind, tr_kind in dict_candidate_pairs(
                self.dict_kinds, mixed=self.mixed_dicts
            ):
                for backend1, workers1, shm1 in configs:
                    for grain1 in self.grain_options:
                        wc_plan = PhasePlan(
                            "input+wc", backend1, workers1, shm1,
                            grain=grain1, dict_kind=wc_kind,
                        )
                        wc_est = self.model.predict(wl_wc, wc_plan)
                        # Unfused: transform free to pick any configuration
                        # (run_pipeline rebinds backends between phases).
                        for backend2, workers2, shm2 in configs:
                            for grain2 in self.grain_options:
                                for tiled2 in tiled_options:
                                    tr_plan = PhasePlan(
                                        "transform", backend2, workers2,
                                        shm2, grain=grain2,
                                        dict_kind=tr_kind, tiled=tiled2,
                                    )
                                    pairs.append(
                                        PairEstimate(
                                            wc=wc_est,
                                            transform=self.model.predict(
                                                wl_tr, tr_plan
                                            ),
                                            fused=False,
                                        )
                                    )
                        # Fused: transform bound to the word count's
                        # config. Never tiled — fused rows materialize
                        # parent-side before a tile could absorb them.
                        if allow_fusion and not must_tile and (
                            self._supports_fusion(backend1, shm1)
                        ):
                            fused_plan = PhasePlan(
                                "transform", backend1, workers1, shm1,
                                grain=grain1, dict_kind=tr_kind,
                                fused_with_previous=True,
                            )
                            pairs.append(
                                PairEstimate(
                                    wc=wc_est,
                                    transform=self.model.predict(
                                        wl_tr, fused_plan
                                    ),
                                    fused=True,
                                )
                            )
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
