"""Cost-based workflow planner.

The paper's conclusion: fusion and data-structure choice "are influenced by
the presence and degree of intra-node parallelism … the choice of internal
data structure must be taken judiciously, depending on the overall time
taken by each step of the workflow and also on the extent to which each
phase can be parallelized" (§3.4). This planner makes that judgement
mechanical: it measures a small *pilot* sample of the input under every
candidate configuration — execution mode (fused or discrete), dictionary
implementation per phase, thread count — on the simulated machine,
extrapolates to the full input, and ranks the configurations.

It is a sampling optimizer in the classic database mould: the pilot plays
the role of table statistics, and the simulated machine is the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dicts.factory import PLANNER_KINDS, dict_candidate_pairs
from repro.errors import PlannerError
from repro.io.corpus_io import corpus_paths
from repro.io.storage import MemStorage, Storage
from repro.sim.cost_model import DEFAULT_COSTS, CostConstants
from repro.sim.machine import MachineSpec
from repro.sim.scheduler import SimScheduler
from repro.sim.workflow import build_tfidf_kmeans_workflow

__all__ = ["PlanConfig", "PlanEstimate", "Plan", "WorkflowPlanner"]


@dataclass(frozen=True)
class PlanConfig:
    """One point in the planner's search space."""

    mode: str  # "merged" | "discrete"
    wc_dict_kind: str
    transform_dict_kind: str
    workers: int

    def describe(self) -> str:
        """One-line summary used in plan listings."""
        return (
            f"{self.mode}, wc={self.wc_dict_kind}, "
            f"transform={self.transform_dict_kind}, threads={self.workers}"
        )


@dataclass
class PlanEstimate:
    """Predicted full-scale behaviour of one configuration."""

    config: PlanConfig
    #: Predicted total virtual seconds at full input size.
    predicted_s: float
    #: Predicted peak resident memory at full input size.
    predicted_peak_bytes: float
    #: Per-phase seconds (full-scale), for explanation.
    breakdown: dict[str, float] = field(default_factory=dict)


@dataclass
class Plan:
    """Ranked outcome of a planning pass."""

    best: PlanEstimate
    candidates: list[PlanEstimate]
    pilot_docs: int
    full_docs: int

    @property
    def scale_factor(self) -> float:
        """Pilot-to-full extrapolation factor."""
        return self.full_docs / self.pilot_docs

    def explain(self) -> str:
        """Human-readable plan summary (best first)."""
        lines = [
            f"planned over {len(self.candidates)} configurations "
            f"(pilot: {self.pilot_docs} docs, extrapolated to {self.full_docs}):"
        ]
        for rank, estimate in enumerate(self.candidates, start=1):
            marker = "*" if estimate is self.best else " "
            lines.append(
                f" {marker} #{rank} {estimate.config.describe():<58} "
                f"{estimate.predicted_s:9.2f}s  "
                f"{estimate.predicted_peak_bytes / 1e9:6.2f} GB"
            )
        return "\n".join(lines)


class WorkflowPlanner:
    """Plans the TF/IDF → K-means workflow over a given machine."""

    def __init__(
        self,
        machine: MachineSpec,
        costs: CostConstants = DEFAULT_COSTS,
        dict_kinds: tuple[str, ...] = PLANNER_KINDS,
        modes: tuple[str, ...] = ("merged", "discrete"),
        worker_options: tuple[int, ...] | None = None,
        mixed_dicts: bool = True,
    ) -> None:
        self.machine = machine
        self.costs = costs
        self.dict_kinds = dict_kinds
        self.modes = modes
        if worker_options is None:
            worker_options = tuple(
                sorted({1, 4, 8, machine.cores} & set(range(1, machine.cores + 1)))
            ) or (machine.cores,)
        self.worker_options = worker_options
        self.mixed_dicts = mixed_dicts

    def _dict_configs(self) -> list[tuple[str, str]]:
        return dict_candidate_pairs(self.dict_kinds, mixed=self.mixed_dicts)

    def plan(
        self,
        storage: Storage,
        input_prefix: str,
        pilot_docs: int = 64,
        n_clusters: int = 8,
        max_iters: int = 10,
        memory_budget_bytes: float | None = None,
    ) -> Plan:
        """Search the configuration space and return the ranked plan.

        The pilot re-runs the *real* workflow on the first ``pilot_docs``
        documents for every configuration; predictions extrapolate
        per-document phases linearly to the full document count (vocabulary
        growth is sublinear, making the extrapolation mildly conservative).
        """
        paths = corpus_paths(storage, input_prefix)
        if not paths:
            raise PlannerError(f"no input documents under {input_prefix!r}")
        if pilot_docs < n_clusters:
            raise PlannerError(
                f"pilot_docs={pilot_docs} must cover n_clusters={n_clusters}"
            )
        pilot_paths = paths[: min(pilot_docs, len(paths))]
        scale = len(paths) / len(pilot_paths)

        # Copy the pilot sample into a private store so path prefixes match.
        pilot_storage = MemStorage()
        for index, path in enumerate(pilot_paths):
            pilot_storage.write(f"pilot/{index:06d}.txt", storage.read_data(path))

        estimates: list[PlanEstimate] = []
        for mode in self.modes:
            for wc_kind, transform_kind in self._dict_configs():
                for workers in self.worker_options:
                    estimates.append(
                        self._measure(
                            pilot_storage,
                            PlanConfig(mode, wc_kind, transform_kind, workers),
                            scale,
                            n_clusters,
                            max_iters,
                        )
                    )

        feasible = estimates
        if memory_budget_bytes is not None:
            feasible = [
                e for e in estimates if e.predicted_peak_bytes <= memory_budget_bytes
            ]
            if not feasible:
                raise PlannerError(
                    f"no configuration fits the memory budget "
                    f"({memory_budget_bytes / 1e9:.2f} GB)"
                )
        ranked = sorted(feasible, key=lambda e: e.predicted_s)
        return Plan(
            best=ranked[0],
            candidates=ranked,
            pilot_docs=len(pilot_paths),
            full_docs=len(paths),
        )

    def _measure(
        self,
        pilot_storage: Storage,
        config: PlanConfig,
        scale: float,
        n_clusters: int,
        max_iters: int,
    ) -> PlanEstimate:
        workflow = build_tfidf_kmeans_workflow(
            mode=config.mode,
            wc_dict_kind=config.wc_dict_kind,
            transform_dict_kind=config.transform_dict_kind,
            n_clusters=n_clusters,
            max_iters=max_iters,
            costs=self.costs,
            output_path="pilot-out/clusters.txt",
        )
        scheduler = SimScheduler(self.machine)
        result = workflow.run(
            scheduler,
            pilot_storage,
            inputs={"tfidf.corpus_prefix": "pilot/"},
            workers=config.workers,
            scratch_prefix="pilot-tmp/",
        )
        return PlanEstimate(
            config=config,
            predicted_s=result.total_s * scale,
            predicted_peak_bytes=result.peak_resident_bytes * scale,
            breakdown={
                name: seconds * scale
                for name, seconds in result.breakdown().items()
            },
        )
