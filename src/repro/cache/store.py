"""On-disk result store: pickle payloads, an atomic JSON index, LRU eviction.

Layout under the store root::

    index.json          # key -> {bytes, seconds, used} + an access clock
    objects/<key>.pkl   # one pickle per entry

The index is the only metadata file and is rewritten atomically
(:func:`repro.io.atomic.atomic_write_json`) — killing a process mid-save
leaves either the old index or the new one, never a truncated file.
Payload files get the same temp-file + ``os.replace`` treatment, so a
partially written object can never be observed under its final name.

The index is fsynced only when its set of entries changed (a put, a
delete, an eviction). A flush that only carries access recency — every
warm run's, whose hits moved the LRU clock — is still an atomic replace
but is not fsynced: a power cut may lose it, and a lost recency update
costs eviction order, never a wrong answer (a damaged index is rebuilt
from the objects below).

Corruption is *demoted*, never raised: an unreadable index is rebuilt
from the object files on disk, an unpicklable entry is deleted and
reported as a miss. The cache is an accelerator; the worst a damaged
store may cost is a recompute.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import time

from repro.errors import CacheError
from repro.io.atomic import atomic_write_json

__all__ = ["CacheStore"]

_INDEX_NAME = "index.json"
_OBJECTS_DIR = "objects"


class CacheStore:
    """Keyed pickle store with bounded size, LRU eviction, and TTL.

    ``max_age_s`` is honored *at lookup*: an entry stored longer ago
    than the budget demotes to a miss and its files are deleted — stale
    results must never be served, but nothing pays an expiry sweep on
    the hot path. ``invalidate`` is the explicit form (one key or the
    whole store), the surface behind ``repro cache invalidate``.
    """

    def __init__(
        self,
        root: str,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise CacheError(f"max_bytes must be positive, got {max_bytes}")
        if max_age_s is not None and max_age_s <= 0:
            raise CacheError(f"max_age_s must be positive, got {max_age_s}")
        self.root = root
        self.max_bytes = max_bytes
        self.max_age_s = max_age_s
        self._objects = os.path.join(root, _OBJECTS_DIR)
        os.makedirs(self._objects, exist_ok=True)
        self._clock = 0
        #: key -> {"bytes": int, "seconds": float, "used": int,
        #: "stored_at": float (epoch seconds)}
        self._index: dict[str, dict] = {}
        #: Set when the entry set changed since the last flush: that
        #: flush is fsynced, a recency-only one is not.
        self._entries_changed = False
        self._load_index()

    # -- index persistence ---------------------------------------------------------

    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX_NAME)

    def _load_index(self) -> None:
        try:
            with open(self._index_path(), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            entries = payload["entries"]
            if not isinstance(entries, dict):
                raise ValueError("entries must be an object")
            self._index = {
                key: {
                    "bytes": int(meta["bytes"]),
                    "seconds": float(meta.get("seconds", 0.0)),
                    "used": int(meta.get("used", 0)),
                    # Pre-TTL indexes lack stored_at; the payload file's
                    # mtime is the honest fallback (entries are written
                    # once, so mtime is the store time).
                    "stored_at": float(
                        meta.get("stored_at")
                        or self._mtime(key)
                    ),
                }
                for key, meta in entries.items()
            }
            self._clock = int(payload.get("clock", 0))
        except FileNotFoundError:
            self._index = {}
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt index: rebuild what we can from the objects on disk.
            # Entries recovered this way lose their recorded compute time
            # (seconds-saved accounting restarts at zero for them).
            self._index = {}
            self._clock = 0
            self._entries_changed = True
            for name in sorted(os.listdir(self._objects)):
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(self._objects, name)
                try:
                    size = os.path.getsize(path)
                except OSError:
                    continue
                try:
                    mtime = os.path.getmtime(path)
                except OSError:
                    mtime = time.time()
                self._index[name[: -len(".pkl")]] = {
                    "bytes": size, "seconds": 0.0, "used": 0,
                    "stored_at": mtime,
                }
        # Entries whose payload file vanished are unusable.
        present = {
            key: meta
            for key, meta in self._index.items()
            if os.path.exists(self._object_path(key))
        }
        if len(present) != len(self._index):
            self._entries_changed = True
        self._index = present

    def flush(self) -> None:
        """Persist the index (atomic replace; crash-safe).

        Fsynced when entries were added or removed since the last flush,
        not when only their access recency moved (module docstring).
        Written compact: without ``indent`` the encoder is the C one, and
        a warm run rewrites the whole index once (its access clock moved).
        """
        atomic_write_json(
            self._index_path(),
            {"version": 1, "clock": self._clock, "entries": self._index},
            indent=None, fsync=self._entries_changed,
        )
        self._entries_changed = False

    # -- entries --------------------------------------------------------------------

    def _object_path(self, key: str) -> str:
        if os.sep in key or key.startswith("."):
            raise CacheError(f"invalid cache key {key!r}")
        return os.path.join(self._objects, key + ".pkl")

    def _mtime(self, key: str) -> float:
        try:
            return os.path.getmtime(self._object_path(key))
        except (OSError, CacheError):
            return time.time()

    def _expired(self, meta: dict) -> bool:
        if self.max_age_s is None:
            return False
        stored_at = float(meta.get("stored_at", 0.0))
        return (time.time() - stored_at) > self.max_age_s

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    @property
    def total_bytes(self) -> int:
        return sum(meta["bytes"] for meta in self._index.values())

    def get(self, key: str):
        """``(payload, stored_seconds, stored_bytes)`` or ``None`` on miss.

        A present-but-unreadable entry (truncated file, unpicklable
        bytes) is deleted and reported as a miss.
        """
        meta = self._index.get(key)
        if meta is None:
            return None
        if self._expired(meta):
            self.delete(key)
            return None
        try:
            with open(self._object_path(key), "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError, IndexError):
            self.delete(key)
            return None
        self._clock += 1
        meta["used"] = self._clock
        return payload, meta["seconds"], meta["bytes"]

    def put(self, key: str, payload, seconds: float = 0.0) -> int:
        """Store ``payload`` under ``key``; returns the stored byte count.

        The pickle streams directly into the temp file — no transient
        ``dumps`` copy of the whole payload in memory, which matters for
        matrix-sized entries under a bounded-memory run.
        """
        path = self._object_path(key)
        fd, tmp_path = tempfile.mkstemp(
            prefix=key + ".", suffix=".tmp", dir=self._objects
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                nbytes = handle.tell()
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._clock += 1
        self._index[key] = {
            "bytes": nbytes, "seconds": seconds, "used": self._clock,
            "stored_at": time.time(),
        }
        self._entries_changed = True
        self._evict()
        return nbytes

    def delete(self, key: str) -> None:
        if self._index.pop(key, None) is not None:
            self._entries_changed = True
        try:
            os.unlink(self._object_path(key))
        except OSError:
            pass

    def invalidate(self, key: str | None = None) -> int:
        """Delete one entry (or every entry); returns how many fell.

        The explicit-invalidation path behind ``repro cache
        invalidate``; the index is flushed so a crash right after still
        sees the deletion.
        """
        victims = [key] if key is not None else list(self._index)
        dropped = 0
        for victim in victims:
            if victim in self._index:
                self.delete(victim)
                dropped += 1
        self.flush()
        return dropped

    def purge_expired(self) -> int:
        """Delete every entry older than ``max_age_s``; returns the count."""
        victims = [
            key for key, meta in self._index.items() if self._expired(meta)
        ]
        for victim in victims:
            self.delete(victim)
        if victims:
            self.flush()
        return len(victims)

    def _evict(self) -> None:
        """Drop least-recently-used entries until under ``max_bytes``.

        The newest entry always survives, even when it alone exceeds the
        budget — evicting what was just stored would make the store
        useless below a pathological budget.
        """
        if self.max_bytes is None:
            return
        while self.total_bytes > self.max_bytes and len(self._index) > 1:
            victim = min(self._index, key=lambda k: self._index[k]["used"])
            self.delete(victim)
