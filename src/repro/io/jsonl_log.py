"""Append-only JSONL logs: one durable append, one stamp, one tolerant reader.

The run ledger (:mod:`repro.obs.ledger`) and the serve journal
(:mod:`repro.serve.journal`) are the same mechanism over different
records, so the mechanism lives here once and each of them is a
:class:`LogSchema` plus a thin writer. The durability contract this
module keeps (one write + ``fsync`` per append, every append on a fresh
line, short writes raise, readers skip damage loudly) is stated in
``docs/ledger.md``.
"""

from __future__ import annotations

import fnmatch
import json
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import ConfigurationError, StorageError

__all__ = ["WallAnchor", "StrictClock", "JsonlLog", "LogSchema", "NUMBER"]

#: Minimum gap between consecutive timestamps of one writer. One
#: microsecond survives double rounding at epoch magnitude (~1e9 s has
#: ~2.4e-7 s float spacing, so a nanosecond bump would vanish) while
#: staying far below any real phase duration.
_TS_STEP = 1e-6

#: Types of a JSON number field (a JSON ``true`` is a ``bool``, not one).
NUMBER = (int, float)


@dataclass(frozen=True)
class WallAnchor:
    """An epoch: one wall-clock reading paired with one monotonic.

    ``at(offset_s)`` maps a monotonic duration since the anchor onto the
    wall-clock axis, so timestamps are comparable across processes while
    intervals keep ``perf_counter`` precision.
    """

    wall: float
    mono: float

    @classmethod
    def capture(cls) -> "WallAnchor":
        return cls(wall=time.time(), mono=time.perf_counter())

    def at(self, offset_s: float) -> float:
        """Wall-clock time of a moment ``offset_s`` after the anchor."""
        return self.wall + offset_s

    def now(self) -> float:
        """Current wall-clock time via the monotonic offset (NTP-step-proof:
        never earlier than a previous ``now()``; *strict* ordering is
        :class:`StrictClock`'s job, because sub-microsecond monotonic
        deltas round away at epoch magnitude)."""
        return self.wall + (time.perf_counter() - self.mono)


class StrictClock:
    """Strictly increasing timestamps: each at least ``_TS_STEP`` after
    the previous one, even for zero-length intervals."""

    def __init__(self, last: float = 0.0) -> None:
        self.last = last

    def stamp(self, ts: float) -> float:
        self.last = max(ts, self.last + _TS_STEP)
        return self.last


class JsonlLog:
    """Writer for the append-only JSONL file ``name`` in directory ``root``
    (the directory is created now, the file on first append).

    ``append`` is thread-safe and durable (``docs/ledger.md``). ``lock``
    is reentrant so a subclass can stamp records under it and keep file
    order equal to timestamp order. ``last_append_s`` holds the seconds
    the most recent append cost.
    """

    def __init__(self, root: str, name: str) -> None:
        if not root:
            raise ConfigurationError(f"the directory of {name} must be a "
                                     f"non-empty path")
        os.makedirs(root, exist_ok=True)
        self.root = root
        self.path = os.path.join(root, name)
        self.lock = threading.RLock()
        self.last_append_s = 0.0

    def append(self, records: Iterable[dict]) -> float:
        """Append ``records`` in one write + fsync and return the seconds
        it took; a short write raises."""
        t0 = time.perf_counter()
        payload = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ).encode("utf-8")
        with self.lock:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    # A crash tore the last append: end that line, so it
                    # does not swallow this record. Racing writers can
                    # leave a blank line at worst, which readers skip.
                    payload = b"\n" + payload
                written = os.write(fd, payload)
                if written != len(payload):
                    raise StorageError(
                        f"{self.path}: short append ({written} of "
                        f"{len(payload)} bytes written; disk full?) — free "
                        f"space, then delete the torn tail"
                    )
                os.fsync(fd)
            finally:
                os.close(fd)
            self.last_append_s = time.perf_counter() - t0
            return self.last_append_s


@dataclass(frozen=True)
class LogSchema:
    """What a reader of one log requires of a record, and how it complains.

    ``files`` is the pattern of the log's files inside its directory.
    ``required`` maps each key to the exact type(s) its value must have
    (JSON decodes to exact builtin types, so ``bool`` is never an
    ``int`` here); a line
    that is not JSON, not an object, of a newer ``schema``, or lacking or
    mistyping a required key is skipped with a ``warning`` naming file,
    line and ``remedy``. Per-event rules stay out: a reader that dropped
    a ``done`` lacking its digest would resurrect a finished job.
    """

    name: str
    files: str
    version: int
    required: dict
    warning: type
    remedy: str
    sort_key: Callable[[dict], object]

    def __post_init__(self) -> None:
        types = {key: t if isinstance(t, tuple) else (t,)
                 for key, t in self.required.items()}
        object.__setattr__(self, "required", types)

    def paths(self, root: str) -> list[str]:
        """The log's files in directory ``root`` (none if it is missing)."""
        names = sorted(os.listdir(root)) if os.path.isdir(root) else []
        return [os.path.join(root, name) for name in names
                if fnmatch.fnmatch(name, self.files)]

    def version_of(self, record: object) -> int | None:
        """The record's integer ``schema`` >= 1, or ``None``."""
        schema = record.get("schema") if isinstance(record, dict) else None
        return schema if type(schema) is int and schema >= 1 else None

    def problems(self, record: object) -> list[str]:
        """Why this reader cannot use ``record`` (empty when it can)."""
        schema = self.version_of(record)
        if schema is not None and schema <= self.version:
            bad = [key for key, types in self.required.items()
                   if type(record.get(key)) not in types]
            if not bad:
                return []
            missing = [key for key in bad if key not in record]
            if missing:
                return [f"record lacking required key(s) "
                        f"{', '.join(missing)}; {self.remedy}"]
            return [f"record whose {key!r} has the wrong type "
                    f"({type(record[key]).__name__}); {self.remedy}"
                    for key in bad]
        if not isinstance(record, dict):
            return [f"non-object {self.name} line; {self.remedy}"]
        if schema is None:
            return [f"record without an integer 'schema' (not a {self.name} "
                    f"record?); {self.remedy}"]
        return [f"schema-{schema} record written by a newer version "
                f"(this reader understands schema <= {self.version})"]

    def scan(self, path: str) -> Iterator[tuple[str, object, list[str]]]:
        """``(label, record, problems)`` for each non-blank line of ``path``;
        ``record`` is ``None`` for a line that is not JSON."""
        try:
            with open(path, "rb") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            yield path, None, [f"unreadable {self.name} file: {exc}"]
            return
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            label = f"{path}:{lineno}"
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError included
                yield label, None, [
                    f"corrupt {self.name} line, not valid JSON (truncated "
                    f"append?); {self.remedy}"
                ]
                continue
            yield label, record, self.problems(record)

    def read(self, root: str) -> tuple[list[dict], list[str]]:
        """``(records sorted by sort_key, problems)`` over the log's files
        in ``root``; every skipped line is one problem and one warning.
        A missing directory or file is an empty log. Never raises."""
        records: list[dict] = []
        problems: list[str] = []
        for path in self.paths(root):
            for label, record, issues in self.scan(path):
                if not issues:
                    records.append(record)
                    continue
                message = f"{label}: skipping {'; '.join(issues)}"
                problems.append(message)
                warnings.warn(message, self.warning, stacklevel=3)
        records.sort(key=self.sort_key)
        return records, problems
