"""Mmap-backed tile spill store with an LRU pinned-byte budget.

The :class:`TileStore` owns a temporary spill directory and the tile
files inside it — the file-backed generalization of the PR-3 shm
descriptor machinery: where a shared :class:`~repro.exec.shm.Segment`
holds arrays in ``/dev/shm`` that workers attach by descriptor, a
``TileStore`` writes row-range tiles to disk and hands out a picklable
:class:`TileManifest` that any process turns into a read-only
:class:`TileReader`. Workers therefore receive *no matrix bytes over
IPC at all* — they map the same files, and the page cache deduplicates.

Memory is bounded by **LRU pinning**: a reader counts the bytes of the
tiles it currently has mapped ("pinned"), and opening a tile past the
``memory_budget`` unmaps least-recently-used tiles first (always keeping
the tile being served). ``peak_pinned_bytes`` is the deterministic
bounded-memory witness the oocore benchmark and CI smoke assert on —
unlike ``ru_maxrss`` it has no allocator noise in it.

Spill directories are registered with the shm module's atexit/SIGTERM
cleanup registry (:func:`repro.exec.shm.register_cleanup_resource`), so
a run killed mid-flight cannot leak ``$TMPDIR/repro_tiles_*`` any more
than it can leak ``/dev/shm`` segments; a ``weakref.finalize`` backstop
removes the directory when an unclosed store is garbage collected.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import os
import shutil
import tempfile
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.errors import TileError
from repro.exec.shm import (
    register_cleanup_resource,
    unregister_cleanup_resource,
)
from repro.tiles import format as tile_format

__all__ = ["SPILL_PREFIX", "TileMeta", "TileManifest", "TileReader", "TileStore"]

#: Every spill directory name starts with this — the conftest leak guard
#: and ops tooling scan ``$TMPDIR`` for it, mirroring ``SEGMENT_PREFIX``
#: scans of ``/dev/shm``.
SPILL_PREFIX = "repro_tiles"

_SEQUENCE = itertools.count()


@dataclass(frozen=True)
class TileMeta:
    """Identity of one tile file within a manifest."""

    name: str
    row_start: int
    n_rows: int
    nnz: int
    nbytes: int
    checksum: int


@dataclass(frozen=True)
class TileManifest:
    """Picklable description of a sealed tile set.

    Carries everything a worker (or the result cache) needs to map and
    verify the tiles: the spill directory, the matrix shape, and per-tile
    row ranges, sizes, and checksums. :meth:`digest` folds the per-tile
    identities into one hash — the content key the pipeline cache stores
    tiled transform entries under.
    """

    root: str
    n_cols: int
    tiles: tuple[TileMeta, ...]

    @property
    def n_rows(self) -> int:
        if not self.tiles:
            return 0
        last = self.tiles[-1]
        return last.row_start + last.n_rows

    @property
    def nnz(self) -> int:
        return sum(meta.nnz for meta in self.tiles)

    @property
    def total_bytes(self) -> int:
        return sum(meta.nbytes for meta in self.tiles)

    def path(self, meta: TileMeta) -> str:
        return os.path.join(self.root, meta.name)

    def row_starts(self) -> tuple[int, ...]:
        return tuple(meta.row_start for meta in self.tiles)

    def digest(self) -> str:
        """Content digest over shape + per-tile checksums (hex)."""
        h = hashlib.sha256()
        h.update(f"{self.n_cols}:{len(self.tiles)}".encode("ascii"))
        for meta in self.tiles:
            h.update(
                f"{meta.row_start}:{meta.n_rows}:{meta.nnz}:"
                f"{meta.checksum:08x}".encode("ascii")
            )
        return h.hexdigest()


class TileReader:
    """Read-only mapped view over a manifest, LRU-bounded by budget.

    ``memory_budget`` bounds the *pinned* (currently mapped) tile bytes;
    ``None`` means map-and-keep everything. Safe to build in any process
    that can see the spill directory — closing a reader only unmaps, it
    never deletes files. Threads may share one reader.
    """

    def __init__(
        self,
        manifest: TileManifest,
        memory_budget: int | None = None,
        stats=None,
        verify: bool = False,
    ) -> None:
        self.manifest = manifest
        self.memory_budget = memory_budget
        self.verify = verify
        self._stats = stats
        self._row_starts = manifest.row_starts()
        self._open: dict[int, tile_format.TileView] = {}
        #: Serialises open / evict / LRU-touch: one reader serves every
        #: worker thread of a ``ThreadBackend``.
        self._lock = threading.Lock()
        self.pinned_bytes = 0
        self.peak_pinned_bytes = 0
        self.evictions = 0
        self.reads = 0
        self.read_bytes = 0

    def tile(self, index: int) -> tile_format.TileView:
        """The mapped view of tile ``index``, opening (and evicting) as needed.

        The view's array attributes go ``None`` when another thread's
        open evicts it; threads sharing a reader use :meth:`arrays`.
        """
        with self._lock:
            return self._pin(index)

    def arrays(self, index: int):
        """``(indptr, indices, data, sq_norms)`` of tile ``index``.

        The references are taken under the same lock as the pin, so a
        concurrent eviction cannot null them in between; a holder keeps
        the evicted mapping alive until it drops them (see
        :meth:`~repro.tiles.format.TileView.close`).
        """
        with self._lock:
            view = self._pin(index)
            return view.indptr, view.indices, view.data, view.sq_norms

    def _pin(self, index: int) -> tile_format.TileView:
        view = self._open.get(index)
        if view is not None:
            # Refresh LRU position (dict preserves insertion order).
            del self._open[index]
            self._open[index] = view
            return view
        meta = self.manifest.tiles[index]
        view = tile_format.open_tile(self.manifest.path(meta), verify=self.verify)
        if (
            view.header.row_start != meta.row_start
            or view.header.n_rows != meta.n_rows
            or view.header.nnz != meta.nnz
            or view.header.checksum != meta.checksum
        ):
            view.close()
            raise TileError(
                f"{self.manifest.path(meta)}: header does not match manifest"
            )
        self._open[index] = view
        self.pinned_bytes += meta.nbytes
        self.reads += 1
        self.read_bytes += meta.nbytes
        if self._stats is not None:
            self._stats.record_tile_read(meta.nbytes)
        if self.memory_budget is not None:
            while self.pinned_bytes > self.memory_budget and len(self._open) > 1:
                self._evict_lru(keep=index)
        self.peak_pinned_bytes = max(self.peak_pinned_bytes, self.pinned_bytes)
        return view

    def _evict_lru(self, keep: int) -> None:
        for victim in self._open:
            if victim != keep:
                break
        else:  # pragma: no cover - guarded by len(_open) > 1
            return
        view = self._open.pop(victim)
        self.pinned_bytes -= view.nbytes
        view.close()
        self.evictions += 1
        if self._stats is not None:
            self._stats.record_tile_eviction()

    def tile_index_for_row(self, row: int) -> int:
        index = bisect.bisect_right(self._row_starts, row) - 1
        if index < 0 or row >= self.manifest.n_rows:
            raise TileError(
                f"row {row} outside tiled matrix of {self.manifest.n_rows} rows"
            )
        return index

    def stats_dict(self) -> dict:
        return {
            "tiles": len(self.manifest.tiles),
            "tile_bytes": self.manifest.total_bytes,
            "memory_budget": self.memory_budget,
            "pinned_bytes": self.pinned_bytes,
            "peak_pinned_bytes": self.peak_pinned_bytes,
            "evictions": self.evictions,
            "reads": self.reads,
            "read_bytes": self.read_bytes,
        }

    def close(self) -> None:
        with self._lock:
            views, self._open = self._open, {}
            for view in views.values():
                view.close()
            self.pinned_bytes = 0


class TileStore:
    """Owner of one spill directory: writes tiles, seals a manifest.

    ``memory_budget`` is inherited by every :meth:`reader` built from
    this store. ``stats`` (an :class:`~repro.exec.shm.IpcStats`) charges
    tile writes/reads to the backend's current phase, so the bench's IPC
    snapshots account spill traffic next to pickle traffic.
    """

    def __init__(
        self,
        memory_budget: int | None = None,
        stats=None,
        root: str | None = None,
    ) -> None:
        self.memory_budget = memory_budget
        self._stats = stats
        self.root = tempfile.mkdtemp(
            prefix=f"{SPILL_PREFIX}_{os.getpid()}_{next(_SEQUENCE)}_",
            dir=root,
        )
        self.owner_pid = os.getpid()
        self._metas: list[TileMeta] = []
        self._readers: list[TileReader] = []
        self._closed = False
        register_cleanup_resource(self)
        # GC backstop: if the owner never calls close(), removing the
        # directory when the store object dies still prevents a leak
        # (live mmaps on unlinked files keep working on POSIX).
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self.root, True
        )

    # -- writing -----------------------------------------------------------------

    def append(
        self,
        row_start: int,
        n_cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        sq_norms: np.ndarray,
    ) -> TileMeta:
        """Write the next tile; row ranges must be appended in order."""
        if self._metas:
            last = self._metas[-1]
            expected = last.row_start + last.n_rows
            if row_start != expected:
                raise TileError(
                    f"tile rows must be contiguous: expected row_start "
                    f"{expected}, got {row_start}"
                )
        elif row_start != 0:
            raise TileError(f"first tile must start at row 0, got {row_start}")
        name = f"tile_{len(self._metas):06d}.rt"
        header = tile_format.write_tile(
            os.path.join(self.root, name),
            row_start, n_cols, indptr, indices, data, sq_norms,
        )
        meta = TileMeta(
            name=name, row_start=row_start, n_rows=header.n_rows,
            nnz=header.nnz, nbytes=header.nbytes, checksum=header.checksum,
        )
        self._metas.append(meta)
        if self._stats is not None:
            self._stats.record_tile_write(meta.nbytes)
        return meta

    def adopt_tile(self, blob: bytes) -> TileMeta:
        """Append a tile from its raw file bytes, verifying the checksum.

        The cache-serve path re-hydrates stored tiles through this; a
        corrupt blob raises :class:`~repro.errors.TileError` (the caller
        treats it as a cache miss), leaving no partial file behind.
        """
        name = f"tile_{len(self._metas):06d}.rt"
        path = os.path.join(self.root, name)
        tmp = path + ".adopt"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        try:
            view = tile_format.open_tile(tmp, verify=True)
            header = view.header
            view.close()
            if self._metas:
                last = self._metas[-1]
                if header.row_start != last.row_start + last.n_rows:
                    raise TileError(
                        f"adopted tile row_start {header.row_start} is not "
                        f"contiguous with previous tiles"
                    )
            elif header.row_start != 0:
                raise TileError(
                    f"first adopted tile must start at row 0, "
                    f"got {header.row_start}"
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        meta = TileMeta(
            name=name, row_start=header.row_start, n_rows=header.n_rows,
            nnz=header.nnz, nbytes=header.nbytes, checksum=header.checksum,
        )
        self._metas.append(meta)
        if self._stats is not None:
            self._stats.record_tile_write(meta.nbytes)
        return meta

    def tile_bytes(self, meta: TileMeta) -> bytes:
        """Raw file bytes of one tile (the cache's storage payload)."""
        with open(os.path.join(self.root, meta.name), "rb") as handle:
            return handle.read()

    def reset(self) -> None:
        """Drop all tiles (degrade-replay restarts a tiled phase cleanly)."""
        for reader in self._readers:
            reader.close()
        self._readers = []
        for meta in self._metas:
            try:
                os.unlink(os.path.join(self.root, meta.name))
            except OSError:
                pass
        self._metas = []

    # -- reading -----------------------------------------------------------------

    @property
    def metas(self) -> tuple[TileMeta, ...]:
        return tuple(self._metas)

    def seal(self, n_cols: int) -> TileManifest:
        return TileManifest(
            root=self.root, n_cols=n_cols, tiles=tuple(self._metas)
        )

    def reader(
        self, manifest: TileManifest | None = None, verify: bool = False
    ) -> TileReader:
        if manifest is None:
            raise TileError("seal() the store and pass the manifest")
        reader = TileReader(
            manifest, memory_budget=self.memory_budget,
            stats=self._stats, verify=verify,
        )
        self._readers.append(reader)
        return reader

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for reader in self._readers:
            reader.close()
        self._readers = []
        self._finalizer.detach()
        shutil.rmtree(self.root, ignore_errors=True)
        unregister_cleanup_resource(self)
