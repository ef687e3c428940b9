"""Snapshot dictionary: precomputed entries behind the Dictionary protocol.

The real execution backends (:mod:`repro.exec.inline`,
:mod:`repro.exec.process`) count terms inside worker processes using plain
builtin dicts — instrumentation would be wasted there, and the
instrumented structures are expensive to pickle across the IPC boundary.
The workers ship back columnar blocks (:mod:`repro.sparse.blocks`); on
demand the parent wraps a document's entries — or the merged
document-frequency table — in a :class:`SnapshotDict` so code off the
timed path (``items_sorted``, ``resident_bytes``, ``top_k_terms``,
tests) sees a normal :class:`~repro.dicts.api.Dictionary`.

A snapshot reports the *kind* of the structure it stands in for (so cost
profiles still resolve) but its op stats stay zero: the simulated path is
authoritative for cost accounting, the backend path for wall-clock time.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.dicts.api import Dictionary

__all__ = ["SnapshotDict"]

#: Kinds whose iteration order is sorted by key (tree-like structures).
_SORTED_KINDS = ("map", "btree")

#: Modelled per-entry footprint, matching the tree node estimate.
_ENTRY_BYTES = 64


class SnapshotDict(Dictionary):
    """Dictionary backed by a builtin dict, seeded from entry pairs.

    Fully mutable (``put``/``remove``/``increment`` work), but optimized
    for the snapshot use case: O(n) construction from the entries a worker
    computed, with no per-operation instrumentation.
    """

    def __init__(self, entries=(), kind: str = "map") -> None:
        super().__init__()
        self.kind = kind
        self._data: dict[Any, Any] = dict(entries)

    def get(self, key: Any, default: Any = None) -> Any:
        return self._data.get(key, default)

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value

    def remove(self, key: Any) -> bool:
        return self._data.pop(key, _MISSING) is not _MISSING

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> Iterator[tuple[Any, Any]]:
        if self.kind in _SORTED_KINDS:
            return iter(sorted(self._data.items()))
        return iter(self._data.items())

    def clear(self) -> None:
        self._data.clear()

    def resident_bytes(self) -> int:
        key_bytes = sum(
            len(key) for key in self._data if isinstance(key, str)
        )
        return _ENTRY_BYTES * len(self._data) + key_bytes


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
