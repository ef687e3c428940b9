"""Measured-cost adaptive planning for the real execution path.

The measure → calibrate → plan loop (ROADMAP item 2):

1. **Measure** — traced runs capture per-task spans
   (:mod:`repro.exec.spans`) and exact IPC byte counters
   (:mod:`repro.exec.shm`).
2. **Calibrate** — :class:`CalibrationStore` fits per-phase cost
   constants from those measurements, or from a cheap sampled sequential
   probe when no history exists; stores persist as JSON.
3. **Plan** — :class:`RealCostModel` prices every candidate
   :class:`PhasePlan` (backend × workers × shm × grain × dict kind)
   and :class:`AdaptivePlanner` picks the per-phase argmin,
   returning a :class:`RealPlan` whose ``explain()`` narrates the
   rejected candidates.

``run_pipeline(plan="auto")`` drives the whole loop; see
``docs/planner.md``.
"""

from repro.plan.calibration import (
    DEFAULT_PROBE_FRACTION,
    CalibrationStore,
    PhaseConstants,
)
from repro.plan.cost_model import (
    PhaseEstimate,
    PhasePlan,
    PhaseWorkload,
    RealCostModel,
)
from repro.plan.planner import AdaptivePlanner, PairEstimate, RealPlan

__all__ = [
    "CalibrationStore",
    "PhaseConstants",
    "DEFAULT_PROBE_FRACTION",
    "PhasePlan",
    "PhaseWorkload",
    "PhaseEstimate",
    "RealCostModel",
    "PairEstimate",
    "RealPlan",
    "AdaptivePlanner",
]
