"""Dense, object-churning K-means — the WEKA ``SimpleKMeans`` stand-in.

The paper compares its operator against WEKA 3.6.13's single-threaded
``SimpleKMeans`` and aborts the WEKA run after two hours, versus 3.3 s /
40.9 s for its own sequential implementation (§3.1). The two pathologies
behind that gap, which this baseline deliberately reproduces:

* **dense representation** — every document becomes a vector over the full
  vocabulary, so each iteration costs O(D · K · V) instead of
  O(nnz · K);
* **allocation churn** — fresh per-attribute objects are created every
  iteration (WEKA's ``Instance`` copying), charged per element.

The baseline is numerically identical to the sparse operator given the
same seeding, which the integration tests exploit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.exec.task import TaskCost
from repro.sim.cost_model import DEFAULT_COSTS, CostConstants
from repro.sim.metrics import Timeline
from repro.sim.operators import SimKMeansResult
from repro.sim.scheduler import SimScheduler
from repro.sparse.matrix import CsrMatrix

__all__ = ["SimpleKMeansBaseline", "PHASE_BASELINE"]

PHASE_BASELINE = "weka-kmeans"


class SimpleKMeansBaseline:
    """Single-threaded dense K-means with per-iteration allocation."""

    def __init__(
        self,
        n_clusters: int = 8,
        max_iters: int = 10,
        seed: int = 0,
        costs: CostConstants = DEFAULT_COSTS,
    ) -> None:
        if n_clusters < 1:
            raise OperatorError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.max_iters = max_iters
        self.seed = seed
        self.costs = costs

    def iteration_seconds(self, n_docs: int, vocabulary: int) -> float:
        """Closed-form virtual cost of one baseline iteration.

        Used to project full-scale runtimes (the ">2 hours" report) without
        materialising a full-scale dense matrix.
        """
        distance_work = n_docs * self.n_clusters * vocabulary
        churn = n_docs * vocabulary
        return (
            distance_work * self.costs.dense_element_ns
            + churn * self.costs.dense_alloc_ns_per_element
        ) * 1e-9

    def projected_seconds(self, n_docs: int, vocabulary: int) -> float:
        """Projected full run: densification plus ``max_iters`` iterations."""
        densify = n_docs * vocabulary * self.costs.dense_alloc_ns_per_element * 1e-9
        return densify + self.max_iters * self.iteration_seconds(n_docs, vocabulary)

    def run_simulated(
        self, scheduler: SimScheduler, matrix: CsrMatrix
    ) -> SimKMeansResult:
        """Execute the baseline (serially, as WEKA does) on real data."""
        K = self.n_clusters
        D, V = matrix.n_rows, matrix.n_cols
        if D < K:
            raise OperatorError(f"need at least {K} documents, got {D}")
        timeline = Timeline()

        # Densify every document: the representation sin, paid up front.
        dense = np.zeros((D, V), dtype=np.float64)
        for i, row in enumerate(matrix.iter_rows()):
            dense[i, row.indices] = row.values
        timeline.add(
            scheduler.serial_phase(
                TaskCost(
                    cpu_s=D * V * self.costs.dense_alloc_ns_per_element * 1e-9,
                    mem_bytes=D * V * 8,
                ),
                name=PHASE_BASELINE,
            )
        )

        # Same deterministic seeding as the sparse operator.
        stride = D // K
        offset = self.seed % max(1, stride)
        seeds = [min(D - 1, offset + k * stride) for k in range(K)]
        centroids = dense[seeds].copy()

        assignments = np.zeros(D, dtype=np.intp)
        previous = None
        converged = False
        inertia = 0.0
        n_iters = 0
        doc_sq = np.einsum("ij,ij->i", dense, dense)
        for _ in range(self.max_iters):
            n_iters += 1
            c_sq = np.einsum("ij,ij->i", centroids, centroids)
            distances = doc_sq[:, None] - 2.0 * (dense @ centroids.T) + c_sq[None, :]
            assignments = distances.argmin(axis=1)
            inertia = float(
                np.maximum(distances[np.arange(D), assignments], 0.0).sum()
            )
            for k in range(K):
                members = dense[assignments == k]
                if len(members):
                    centroids[k] = members.mean(axis=0)
            timeline.add(
                scheduler.serial_phase(
                    TaskCost(
                        cpu_s=self.iteration_seconds(D, V),
                        mem_bytes=D * V * 8 * 2,
                    ),
                    name=PHASE_BASELINE,
                )
            )
            if previous is not None and np.array_equal(assignments, previous):
                converged = True
                break
            previous = assignments.copy()

        return SimKMeansResult(
            assignments=[int(a) for a in assignments],
            centroids=centroids,
            n_iters=n_iters,
            inertia=inertia,
            converged=converged,
            timeline=timeline,
        )
