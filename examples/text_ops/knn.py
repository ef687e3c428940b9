"""k-nearest-neighbour text classifier over TF/IDF vectors.

Another "diverse operator" (paper §1) built on the same substrates: given
labelled documents as normalized TF/IDF rows, classify new documents by
cosine similarity against the training set. Since the vectors are
unit-norm, cosine similarity is just the sparse dot product, so
prediction costs O(n_train · nnz) merge-joins per query — exactly the
kind of sparse kernel whose data-structure and parallelism choices the
paper studies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import OperatorError
from repro.exec.task import TaskCost
from repro.sim.cost_model import DEFAULT_COSTS, CostConstants
from repro.sim.scheduler import SimScheduler
from repro.sparse.matrix import CsrMatrix
from repro.sparse.vector import SparseVector

__all__ = ["KnnClassifier", "Neighbor"]


@dataclass(frozen=True)
class Neighbor:
    """One retrieved neighbour."""

    doc_id: int
    similarity: float
    label: str


class KnnClassifier:
    """Cosine k-NN over sparse unit vectors.

    Parameters
    ----------
    k:
        Number of neighbours consulted per prediction.
    """

    def __init__(self, k: int = 5, costs: CostConstants = DEFAULT_COSTS) -> None:
        if k < 1:
            raise OperatorError(f"k must be >= 1, got {k}")
        self.k = k
        self.costs = costs
        self._matrix: CsrMatrix | None = None
        self._labels: list[str] = []

    def fit(self, matrix: CsrMatrix, labels: list[str]) -> "KnnClassifier":
        """Index the training documents (rows must be L2-normalized)."""
        if matrix.n_rows != len(labels):
            raise OperatorError(
                f"{matrix.n_rows} rows but {len(labels)} labels"
            )
        if matrix.n_rows == 0:
            raise OperatorError("cannot fit on an empty matrix")
        self._matrix = matrix
        self._labels = list(labels)
        return self

    @property
    def is_fitted(self) -> bool:
        return self._matrix is not None

    def neighbors(
        self, query: SparseVector, cost: TaskCost | None = None
    ) -> list[Neighbor]:
        """The k most cosine-similar training documents, best first."""
        if self._matrix is None:
            raise OperatorError("classifier is not fitted")
        scored = []
        nnz_touched = 0
        for doc_id in range(self._matrix.n_rows):
            row = self._matrix.row(doc_id)
            nnz_touched += row.nnz + query.nnz
            scored.append((query.dot(row), -doc_id))
        scored.sort(reverse=True)
        if cost is not None:
            cost.cpu_s += nnz_touched * 2.0 * 1e-9  # merge-join step cost
            cost.mem_bytes += nnz_touched * 12
        return [
            Neighbor(doc_id=-neg_id, similarity=sim, label=self._labels[-neg_id])
            for sim, neg_id in scored[: self.k]
        ]

    def predict(self, query: SparseVector, cost: TaskCost | None = None) -> str:
        """Majority label among the k nearest neighbours.

        Ties break toward the higher total similarity, then
        lexicographically — fully deterministic.
        """
        votes = Counter()
        similarity_mass: dict[str, float] = {}
        for neighbor in self.neighbors(query, cost):
            votes[neighbor.label] += 1
            similarity_mass[neighbor.label] = (
                similarity_mass.get(neighbor.label, 0.0) + neighbor.similarity
            )
        return max(
            votes,
            key=lambda label: (votes[label], similarity_mass[label], label),
        )

    def predict_many(
        self,
        queries: CsrMatrix,
        scheduler: SimScheduler | None = None,
        workers: int | None = None,
    ) -> list[str]:
        """Classify every row; optionally simulate the parallel loop.

        Prediction is embarrassingly parallel over queries (the same
        doc-loop structure as the paper's operators), so when a scheduler
        is supplied each query is a metered task.
        """
        predictions = []
        costs = []
        for row_id in range(queries.n_rows):
            cost = TaskCost()
            predictions.append(self.predict(queries.row(row_id), cost))
            costs.append(cost)
        if scheduler is not None:
            scheduler.simulate_phase(costs, workers=workers, name="knn")
        return predictions
