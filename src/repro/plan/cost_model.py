"""Predict real phase wall time for candidate configurations.

Where :mod:`repro.core.cost_model` prices *virtual* machines, this model
prices the host it runs on: a :class:`PhasePlan` names one candidate
configuration (backend tier × workers × shm × grain × dictionary kind)
and :meth:`RealCostModel.predict` multiplies it against a
:class:`~repro.plan.calibration.CalibrationStore`'s measured constants:

``predicted = compute / effective_parallelism + pickle(task + result
bytes, both directions) + pool spawn + shm setup + per-task overhead +
dictionary merge + last-chunk imbalance``

The terms mirror how the backends actually spend time — threads get no
compute division (CPython's GIL serializes the CPU-bound kernels),
process pools pay one spawn per ``configure`` generation — so on a 1-CPU
host the model *discovers* that sequential wins at small scale, rather
than being told.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import os

from repro.dicts.factory import DEFAULT_KIND
from repro.errors import ConfigurationError
from repro.exec.parallel import auto_grain
from repro.plan.calibration import CalibrationStore

__all__ = ["PhasePlan", "PhaseWorkload", "PhaseEstimate", "RealCostModel"]

@dataclass(frozen=True)
class PhasePlan:
    """One candidate configuration for one phase."""

    phase: str
    backend: str  # "sequential" | "threads" | "processes"
    workers: int = 1
    shm: bool = False
    #: Items per task; ``None`` = the backend's Cilk-style auto grain.
    grain: int | None = None
    dict_kind: str = DEFAULT_KIND
    #: True when the phase's full result sits in the run's result cache:
    #: the phase serves from disk instead of computing, and the cost
    #: model prices it at deserialization speed.
    cached: bool = False
    #: True when the phase goes through the tiled data plane: the
    #: transform writes binary spill tiles instead of keeping the matrix
    #: resident, and k-means streams them back every assignment pass.
    #: Output stays bit-identical; the model adds a tile-I/O term per
    #: matrix pass, which is why an unconstrained plan never tiles.
    tiled: bool = False

    def describe(self) -> str:
        if self.cached:
            return "cached+tiled" if self.tiled else "cached"
        backend = self.backend
        if self.backend != "sequential":
            backend = f"{self.backend}-{self.workers}"
        if self.shm:
            backend += "+shm"
        if self.tiled:
            backend += "+tiled"
        if self.phase == "kmeans":
            # Blocking and merge order are part of the output contract;
            # grain and dictionary kind are not knobs here.
            return backend
        grain = "auto" if self.grain is None else str(self.grain)
        return f"{backend} grain={grain} dict={self.dict_kind}"


@dataclass(frozen=True)
class PhaseWorkload:
    """What a phase must chew through (the cost model's multiplicand)."""

    phase: str
    n_docs: int
    input_bytes: int = 0
    #: Assignment passes for ``kmeans`` (constants are per doc per pass).
    iterations: int = 1
    #: Estimated resident bytes of the score matrix — the volume a tiled
    #: phase moves through the spill directory per pass (write once for
    #: the transform, read once per k-means iteration).
    matrix_bytes: int = 0


@dataclass
class PhaseEstimate:
    """A costed candidate: predicted seconds plus the term breakdown."""

    plan: PhasePlan
    predicted_s: float
    breakdown: dict[str, float] = field(default_factory=dict)

    def penalty_vs(self, best: "PhaseEstimate") -> str:
        """Human line: where this candidate loses against ``best``."""
        gap = self.predicted_s - best.predicted_s
        terms = sorted(
            (
                (term, self.breakdown.get(term, 0.0) - best.breakdown.get(term, 0.0))
                for term in set(self.breakdown) | set(best.breakdown)
            ),
            key=lambda entry: -entry[1],
        )
        worst = [f"{term} +{delta:.3f}s" for term, delta in terms[:2] if delta > 1e-4]
        suffix = f" ({', '.join(worst)})" if worst else ""
        return f"+{gap:.3f}s{suffix}"


class RealCostModel:
    """Price a :class:`PhasePlan` against measured constants."""

    def __init__(
        self, calibration: CalibrationStore, cpu_count: int | None = None
    ) -> None:
        self.calibration = calibration
        self.cpu_count = cpu_count or os.cpu_count() or 1

    def predict(
        self, workload: PhaseWorkload, plan: PhasePlan
    ) -> PhaseEstimate:
        """Predicted wall seconds for running ``workload`` under ``plan``."""
        c = self.calibration
        # Tile I/O: a tiled transform writes the matrix to spill tiles
        # once; a tiled k-means re-reads it every assignment pass. The
        # term is what makes an unconstrained plan prefer the resident
        # matrix — tiling only wins when the budget forbids residency.
        tile_passes = (
            workload.iterations if workload.phase == "kmeans" else 1
        )
        tile_io_s = (
            max(0, workload.matrix_bytes)
            * c.tile_io_ns_per_byte * 1e-9 * tile_passes
            if plan.tiled
            else 0.0
        )
        if plan.cached:
            # A cached phase deserializes its stored result instead of
            # computing: near-zero, linear in the corpus (iteration count
            # is irrelevant — the stored clustering is served whole). A
            # cached *tiled* transform additionally re-materializes its
            # spill tiles (one write pass) while serving.
            serve_s = (
                max(0, workload.n_docs) * c.cache_serve_ns_per_doc * 1e-9
            )
            breakdown = {"cache_serve": serve_s}
            if plan.tiled and workload.phase != "kmeans":
                breakdown["tile_io"] = tile_io_s
            return PhaseEstimate(
                plan=plan,
                predicted_s=sum(breakdown.values()),
                breakdown=breakdown,
            )
        try:
            constants = c.phases[workload.phase]
        except KeyError:
            raise ConfigurationError(
                f"calibration store has no constants for phase "
                f"{workload.phase!r} (has: {sorted(c.phases)})"
            ) from None
        n = max(0, workload.n_docs)
        passes = workload.iterations if workload.phase == "kmeans" else 1
        compute_s = n * passes * constants.compute_ns_per_doc * 1e-9
        # Parent-side dictionary merge: charged once, scaled by the
        # candidate's dictionary implementation.
        dict_s = (
            n * constants.merge_ops_per_doc * c.dict_factor_ns(plan.dict_kind)
            * 1e-9
        )

        grain = plan.grain or auto_grain(n, plan.workers)
        n_tasks = -(-n // grain) if n else 0

        breakdown: dict[str, float]
        if plan.backend == "sequential":
            breakdown = {"compute": compute_s, "dict": dict_s}
        elif plan.backend == "threads":
            # The kernels are CPU-bound pure Python: the GIL serializes
            # them, so threads pay overhead without gaining parallelism.
            breakdown = {
                "compute": compute_s,
                "dict": dict_s,
                "task_overhead": n_tasks * c.task_overhead_s,
            }
        elif plan.backend == "processes":
            p = max(1, min(plan.workers, self.cpu_count))
            task_bpd = constants.task_bytes_per_doc
            if plan.shm and constants.shm_task_bytes_per_doc < task_bpd:
                task_bytes = n * passes * constants.shm_task_bytes_per_doc
            else:
                task_bytes = n * passes * task_bpd
            result_bytes = n * passes * constants.result_bytes_per_doc
            pickle_s = (
                (task_bytes + result_bytes)
                * (c.pickle_ns_per_byte + c.unpickle_ns_per_byte)
                * 1e-9
            )
            # One pool generation per configure: every phase
            # reconfigures its initializer, so every phase pays a spawn.
            spawn_s = c.pool_spawn_s_per_worker * plan.workers
            shm_s = c.shm_setup_s * (1 if plan.shm else 0)
            # Last-chunk imbalance: the final grain-sized task has no
            # peers to overlap with; bounded by one task's compute.
            imbalance_s = (
                (compute_s / max(1, n_tasks)) * (p - 1) / p if p > 1 else 0.0
            )
            breakdown = {
                "compute": compute_s / p,
                "dict": dict_s,
                "pickle": pickle_s,
                "spawn": spawn_s,
                "shm_setup": shm_s,
                "task_overhead": n_tasks * c.task_overhead_s,
                "imbalance": imbalance_s,
            }
        else:
            raise ConfigurationError(
                f"unknown backend tier {plan.backend!r} in {plan}"
            )
        if plan.tiled:
            breakdown["tile_io"] = tile_io_s
        total = sum(breakdown.values())
        return PhaseEstimate(plan=plan, predicted_s=total, breakdown=breakdown)
