"""Port-level workflow abstractions (no operator dependencies).

These are the pieces both the workflow engine and individual operator
adapters need: the execution context threaded through a run, the
:class:`WorkflowOp` node protocol, the :class:`Materializer` protocol for
file edges, and the :class:`ScoreMatrix` payload that crosses the
TF/IDF → K-means edge. They live below :mod:`repro.ops` so that operator
modules can define their own workflow adapters without import cycles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.errors import WorkflowError
from repro.io.storage import Storage
from repro.sim.metrics import Timeline
from repro.sim.scheduler import SimScheduler
from repro.sparse.matrix import CsrMatrix

__all__ = ["WorkflowContext", "WorkflowOp", "Materializer", "ScoreMatrix"]


@dataclass
class WorkflowContext:
    """Shared execution state threaded through a workflow run."""

    scheduler: SimScheduler
    storage: Storage
    workers: int
    timeline: Timeline = field(default_factory=Timeline)
    #: Scratch path prefix for materialised intermediates.
    scratch_prefix: str = "tmp/"
    #: High-water mark of modelled resident memory (Figure 4's axis).
    peak_resident_bytes: int = 0
    #: Currently live modelled memory.
    live_resident_bytes: int = 0

    def note_allocation(self, n_bytes: int) -> None:
        """Record modelled memory becoming live."""
        self.live_resident_bytes += n_bytes
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.live_resident_bytes
        )

    def note_release(self, n_bytes: int) -> None:
        """Record modelled memory being freed."""
        self.live_resident_bytes = max(0, self.live_resident_bytes - n_bytes)


@dataclass
class ScoreMatrix:
    """A document × term score matrix plus its vocabulary — the payload
    flowing across the TF/IDF → K-means edge."""

    matrix: CsrMatrix
    vocabulary: list[str]

    def resident_bytes(self) -> int:
        return self.matrix.resident_bytes() + sum(
            len(term) + 8 for term in self.vocabulary
        )


class WorkflowOp(ABC):
    """An operator node: named input/output ports plus an execute method."""

    #: Node name (unique within a workflow).
    name: str = "op"
    #: Input port names, in order.
    inputs: tuple[str, ...] = ()
    #: Output port names, in order.
    outputs: tuple[str, ...] = ()

    @abstractmethod
    def execute(
        self, ctx: WorkflowContext, inputs: dict[str, Any]
    ) -> dict[str, Any]:
        """Run the operator, appending its phases to ``ctx.timeline``."""

    def _require(self, inputs: dict[str, Any], port: str) -> Any:
        try:
            return inputs[port]
        except KeyError:
            raise WorkflowError(
                f"operator {self.name!r} missing input port {port!r}"
            ) from None


class Materializer(ABC):
    """Writes/reads one payload type through storage (discrete edges)."""

    @abstractmethod
    def write(self, ctx: WorkflowContext, value: Any, path: str) -> None: ...

    @abstractmethod
    def read(self, ctx: WorkflowContext, path: str) -> Any: ...
