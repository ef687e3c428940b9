"""Storage backends with explicit I/O cost accounting.

Workflows in *discrete* mode (paper §3.3) communicate through files; every
read and write therefore reports a :class:`~repro.exec.task.TaskCost`
carrying bytes moved and files opened. The scheduler turns those into
virtual time against the machine's disk model — so storing an intermediate
data set "to a local hard disk" costs what it cost the paper.

Two interchangeable backends:

* :class:`MemStorage` — an in-memory dict of path → text. It is the
  default for simulation: contents are real (operators parse real bytes),
  only the *timing* is modelled.
* :class:`FsStorage` — a directory on the host filesystem, for functional
  use and for inspecting outputs with external tools (e.g. loading the
  ARFF into WEKA).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from repro.errors import StorageError
from repro.exec.task import TaskCost

__all__ = ["Storage", "MemStorage", "FsStorage"]


class Storage(ABC):
    """Path-addressed text-file store that meters its traffic."""

    @abstractmethod
    def read(self, path: str) -> tuple[str, TaskCost]:
        """Return ``(contents, cost)``; cost covers the open and the bytes."""

    @abstractmethod
    def write(self, path: str, data: str) -> TaskCost:
        """Store ``data`` under ``path``, replacing any previous contents."""

    @abstractmethod
    def exists(self, path: str) -> bool: ...

    @abstractmethod
    def size(self, path: str) -> int:
        """Size in bytes of the stored file."""

    @abstractmethod
    def delete(self, path: str) -> None:
        """Remove ``path``; missing paths are ignored."""

    @abstractmethod
    def list(self, prefix: str = "") -> Iterator[str]:
        """Yield stored paths starting with ``prefix``, sorted."""

    # -- shared helpers -----------------------------------------------------------

    def read_many(
        self,
        paths: "Iterable[str]",
        *,
        workers: int = 1,
        prefetch: int | None = None,
        recorder=None,
        retry=None,
    ) -> Iterator[tuple[str, str, "TaskCost"]]:
        """Read many files concurrently; yield ``(path, contents, cost)``.

        Results arrive strictly in input order with per-file costs still
        metered for the simulator; ``workers`` reader threads keep at most
        ``prefetch`` files in flight (paper §3.2's parallel input). An armed
        :class:`~repro.exec.spans.SpanRecorder` passed as ``recorder``
        captures one span per file; a ``retry``
        :class:`~repro.exec.resilience.RetryPolicy` re-attempts transient
        ``OSError`` reads. See :func:`repro.io.parallel_read.read_paths`.
        """
        from repro.io.parallel_read import read_paths

        return read_paths(
            self,
            paths,
            workers=workers,
            prefetch=prefetch,
            recorder=recorder,
            retry=retry,
        )

    def read_data(self, path: str) -> str:
        """Contents only, discarding the cost (functional use)."""
        data, _ = self.read(path)
        return data

    def total_bytes(self, prefix: str = "") -> int:
        """Aggregate size of all files under ``prefix``."""
        return sum(self.size(path) for path in self.list(prefix))


class MemStorage(Storage):
    """In-memory storage; contents are real, timing comes from the model."""

    def __init__(self) -> None:
        self._files: dict[str, str] = {}

    def read(self, path: str) -> tuple[str, TaskCost]:
        try:
            data = self._files[path]
        except KeyError:
            raise StorageError(f"no such file: {path!r}") from None
        return data, TaskCost(disk_read_bytes=len(data), disk_opens=1)

    def write(self, path: str, data: str) -> TaskCost:
        self._files[path] = data
        return TaskCost(disk_write_bytes=len(data), disk_opens=1)

    def exists(self, path: str) -> bool:
        return path in self._files

    def size(self, path: str) -> int:
        try:
            return len(self._files[path])
        except KeyError:
            raise StorageError(f"no such file: {path!r}") from None

    def delete(self, path: str) -> None:
        self._files.pop(path, None)

    def list(self, prefix: str = "") -> Iterator[str]:
        return iter(sorted(p for p in self._files if p.startswith(prefix)))


class FsStorage(Storage):
    """Directory-backed storage on the host filesystem."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _resolve(self, path: str) -> str:
        full = os.path.abspath(os.path.join(self.root, path))
        if not full.startswith(self.root + os.sep) and full != self.root:
            raise StorageError(f"path escapes storage root: {path!r}")
        return full

    def read(self, path: str) -> tuple[str, TaskCost]:
        full = self._resolve(path)
        try:
            with open(full, "r", encoding="utf-8") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise StorageError(f"no such file: {path!r}") from None
        return data, TaskCost(disk_read_bytes=len(data), disk_opens=1)

    def write(self, path: str, data: str) -> TaskCost:
        full = self._resolve(path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as handle:
            handle.write(data)
        return TaskCost(disk_write_bytes=len(data), disk_opens=1)

    def exists(self, path: str) -> bool:
        return os.path.isfile(self._resolve(path))

    def size(self, path: str) -> int:
        full = self._resolve(path)
        try:
            return os.path.getsize(full)
        except FileNotFoundError:
            raise StorageError(f"no such file: {path!r}") from None

    def delete(self, path: str) -> None:
        try:
            os.remove(self._resolve(path))
        except FileNotFoundError:
            pass

    def list(self, prefix: str = "") -> Iterator[str]:
        # ``os.walk`` yields ``root`` joined with the sub-folder, so the
        # relative folder is a slice of it — one per directory, not an
        # ``os.path.relpath`` per file.
        cut = len(self.root.rstrip(os.sep)) + 1
        found = []
        for dirpath, _, filenames in os.walk(self.root):
            folder = dirpath[cut:].replace(os.sep, "/")
            head = folder + "/" if folder else ""
            found.extend(
                rel for rel in map(head.__add__, filenames)
                if rel.startswith(prefix)
            )
        return iter(sorted(found))
