"""Top-K frequent-terms operator.

A small text-analytics operator in the spirit of the paper's §1 ("the
operators are diverse ... any algorithm to transform, classify or
structure the data"): find the K most frequent terms of a corpus, by
collection frequency or document frequency. It reuses the word-count
step's dictionaries and demonstrates a second consumer hanging off the
same workflow stage (the engine supports fan-out).

Selection uses a bounded min-heap, so the pass over the dictionary is
O(V log K) rather than a full sort.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

from repro.core.cost_model import DEFAULT_COSTS, CostConstants
from repro.core.ports import ScoreMatrix, WorkflowContext, WorkflowOp
from repro.dicts.api import Dictionary
from repro.dicts.cost import profile_for_kind
from repro.errors import OperatorError
from repro.exec.task import TaskCost

__all__ = ["TermCount", "top_k_terms", "TopTermsOp", "PHASE_TOPK"]

PHASE_TOPK = "topk"


@dataclass(frozen=True)
class TermCount:
    """One ranked term."""

    term: str
    count: int


def top_k_terms(
    dictionary: Dictionary,
    k: int,
    cost: TaskCost | None = None,
    costs: CostConstants = DEFAULT_COSTS,
) -> list[TermCount]:
    """The K highest-count entries of a term → count dictionary.

    Ties resolve lexicographically (stable, deterministic). When ``cost``
    is given, the iteration and heap work are metered.
    """
    if k < 1:
        raise OperatorError(f"k must be >= 1, got {k}")
    before = dictionary.stats.copy()
    heap: list[tuple[int, _ReverseStr]] = []
    for term, count in dictionary.items():
        entry = (count, _ReverseStr(term))
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
    ranked = sorted(heap, reverse=True)
    if cost is not None:
        profile = profile_for_kind(dictionary.kind)
        delta = dictionary.stats.delta(before)
        cost.cpu_s += profile.cpu_seconds(delta)
        cost.mem_bytes += profile.memory_traffic(delta)
        # Heap maintenance: ~log2(k) comparisons per considered entry.
        n = max(1, delta.iterations)
        cost.cpu_s += n * max(1, k.bit_length()) * costs.vocab_sort_ns_per_cmp * 1e-9
    return [TermCount(term=str(entry[1].value), count=entry[0]) for entry in ranked]


class _ReverseStr:
    """Orders strings descending so the min-heap keeps lexicographically
    smallest terms on count ties."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "_ReverseStr") -> bool:
        return self.value > other.value

    def __gt__(self, other: "_ReverseStr") -> bool:
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReverseStr) and self.value == other.value


class TopTermsOp(WorkflowOp):
    """Workflow node: document-frequency ranking from a TF/IDF sibling.

    Consumes the same ``scores`` payload the K-means node does (fan-out),
    ranking terms by how many documents they appear in.
    """

    inputs = ("scores",)
    outputs = ("top_terms",)

    def __init__(
        self,
        name: str = "topk",
        k: int = 20,
        costs: CostConstants = DEFAULT_COSTS,
    ) -> None:
        if k < 1:
            raise OperatorError(f"k must be >= 1, got {k}")
        self.name = name
        self.k = k
        self.costs = costs

    def execute(
        self, ctx: WorkflowContext, inputs: dict[str, Any]
    ) -> dict[str, Any]:
        scores: ScoreMatrix = self._require(inputs, "scores")
        matrix = scores.matrix
        document_frequency = [0] * matrix.n_cols
        for row_id in range(matrix.n_rows):
            row = matrix.row(row_id)
            for term_id in row.indices:
                document_frequency[term_id] += 1
        heap: list[tuple[int, _ReverseStr]] = []
        for term_id, count in enumerate(document_frequency):
            if count == 0:
                continue
            entry = (count, _ReverseStr(scores.vocabulary[term_id]))
            if len(heap) < self.k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
        ranked = [
            TermCount(term=entry[1].value, count=entry[0])
            for entry in sorted(heap, reverse=True)
        ]
        cost = TaskCost(
            cpu_s=(matrix.nnz * 4.0 + matrix.n_cols * 10.0) * 1e-9,
            mem_bytes=matrix.nnz * 8 + matrix.n_cols * 8,
        )
        ctx.timeline.add(ctx.scheduler.serial_phase(cost, name=PHASE_TOPK))
        return {"top_terms": ranked}

