"""Benchmark-side spans: one record per call into a layer.

The traced pass wraps every call the benchmark makes into the program in
a span ``{name, start, end, parent, op_id}``. Spans stay in memory and
are written out once, when the run ends. Nothing here reaches inside the
program — spans inside the layers are a later change. The default pass
uses :class:`NullRecorder`, so end-to-end numbers are measured with no
benchmark spans at all.
"""

from __future__ import annotations

import contextlib
import threading
import time

__all__ = ["Span", "SpanRecorder", "NullRecorder"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "index")

    def __init__(self, name, parent, op_id, index):
        self.name = name
        self.parent = parent
        self.op_id = op_id
        self.index = index
        self.start = time.perf_counter()
        self.end = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op_id": self.op_id,
        }


class SpanRecorder:
    """Collects spans; nesting (``parent``) is tracked per thread, so the
    closed-loop serve clients can record side by side."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, op_id: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(
                name,
                parent.index if parent else None,
                op_id if op_id is not None else (parent.op_id if parent else None),
                len(self.spans),
            )
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.index]

    def as_dicts(self) -> list[dict]:
        return [span.as_dict() for span in self.spans]


class NullRecorder:
    """Tracing off: ``span()`` costs one shared no-op context manager."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, op_id: str | None = None):
        return self._NULL
