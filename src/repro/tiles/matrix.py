"""A CSR matrix view over on-disk tiles, duck-typing ``CsrMatrix``.

:class:`TiledCsrMatrix` exposes the read API operators already use —
``n_rows``/``n_cols``/``nnz``, ``row()``, ``row_nnz()``, ``iter_rows()``,
``resident_bytes()`` — but backs it with an LRU-budgeted
:class:`~repro.tiles.store.TileReader` instead of in-memory arrays, so
at most ``memory_budget`` bytes of matrix are mapped at any time.

It is also a k-means *block source* — the spilled twin of
:class:`~repro.sparse.matrix.ResidentRows`:

* :meth:`block_arrays` assembles one row block ``[start, stop)`` as the
  exact ``(indices, values, sq_norms)`` triple
  :func:`repro.ops.kernels._assign_block` consumes — float64/int64 views
  sliced straight out of the tile mmaps, with the per-row squared norms
  precomputed at tile-write time. Feeding the same doubles through the
  same kernel in the same block order is what makes tiled output
  bit-identical to the in-memory path.
* :meth:`place` places nothing: the tile files are already a plane every
  process can map, so the placement's recipe is the picklable manifest
  plus the budget. In-process backends resolve it to this very matrix —
  one reader, one budget, one set of counters; a worker *process* maps
  its own read-only view (:meth:`from_manifest`), and no matrix bytes
  ever ride the task pickles.

``as_arrays()`` still works (ARFF export, ad-hoc analysis) but
materializes the full matrix — it is the documented escape hatch out of
bounded memory, not a fast path.
"""

from __future__ import annotations

import numpy as np

from repro.exec.shm import Placement
from repro.sparse.vector import SparseVector
from repro.tiles.store import TileManifest, TileReader

__all__ = ["TiledCsrMatrix"]


class TiledCsrMatrix:
    """Chunk-at-a-time CSR matrix over a sealed tile manifest."""

    def __init__(
        self,
        manifest: TileManifest,
        reader: TileReader | None = None,
        store=None,
        memory_budget: int | None = None,
    ) -> None:
        self.manifest = manifest
        self._store = store
        if reader is None:
            if store is not None:
                reader = store.reader(manifest)
            else:
                reader = TileReader(manifest, memory_budget=memory_budget)
        self._reader = reader
        self.memory_budget = (
            store.memory_budget if store is not None else reader.memory_budget
        )

    @classmethod
    def from_manifest(
        cls, manifest: TileManifest, memory_budget: int | None = None
    ) -> "TiledCsrMatrix":
        """Worker-side constructor: map tiles read-only, own no files."""
        return cls(manifest, memory_budget=memory_budget)

    # -- CsrMatrix protocol -------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.manifest.n_rows

    @property
    def n_cols(self) -> int:
        return self.manifest.n_cols

    @property
    def nnz(self) -> int:
        return self.manifest.nnz

    def row(self, i: int) -> SparseVector:
        index = self._reader.tile_index_for_row(i)
        indptr, indices, data, _ = self._reader.arrays(index)
        local = i - self.manifest.tiles[index].row_start
        lo = int(indptr[local])
        hi = int(indptr[local + 1])
        vector = SparseVector.__new__(SparseVector)
        vector.indices = indices[lo:hi]
        vector.values = data[lo:hi]
        return vector

    def row_nnz(self, i: int) -> int:
        index = self._reader.tile_index_for_row(i)
        indptr = self._reader.arrays(index)[0]
        local = i - self.manifest.tiles[index].row_start
        return int(indptr[local + 1]) - int(indptr[local])

    def iter_rows(self):
        for index, meta in enumerate(self.manifest.tiles):
            indptr, indices, data, _ = self._reader.arrays(index)
            for local in range(meta.n_rows):
                lo = int(indptr[local])
                hi = int(indptr[local + 1])
                vector = SparseVector.__new__(SparseVector)
                vector.indices = indices[lo:hi]
                vector.values = data[lo:hi]
                yield vector

    def as_arrays(self):
        """Materialize the full (indptr, indices, data) — O(matrix) memory."""
        n = self.n_rows
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(self.nnz, dtype=np.intp)
        data = np.empty(self.nnz, dtype=np.float64)
        cursor = 0
        for index, meta in enumerate(self.manifest.tiles):
            tile_indptr, tile_indices, tile_data, _ = self._reader.arrays(index)
            tile_nnz = meta.nnz
            indices[cursor:cursor + tile_nnz] = tile_indices
            data[cursor:cursor + tile_nnz] = tile_data
            base = meta.row_start
            indptr[base + 1: base + meta.n_rows + 1] = (
                np.asarray(tile_indptr[1:], dtype=np.int64) + cursor
            )
            cursor += tile_nnz
        return indptr, indices, data

    def resident_bytes(self) -> int:
        # Same accounting model as CsrMatrix.resident_bytes() — the cost
        # model compares the two forms, so they must use the same ruler.
        return 8 * self.nnz + 4 * self.nnz + 4 * (self.n_rows + 1)

    # -- block source ---------------------------------------------------------------

    def block_source(self) -> "TiledCsrMatrix":
        return self

    def place(self, backend) -> Placement:
        return Placement(
            self, TiledCsrMatrix.from_manifest,
            (self.manifest, self.memory_budget),
        )

    def block_nnz(self, bounds) -> list[int]:
        """Stored entries of each row block ``(start, stop)``: one pass
        over the tiles' ``indptr`` (what a shared gather arena sizes its
        slots by)."""
        prefix = np.zeros(self.n_rows + 1, dtype=np.int64)
        cursor = 0
        for index, meta in enumerate(self.manifest.tiles):
            indptr = self._reader.arrays(index)[0]
            base = meta.row_start
            prefix[base + 1 : base + meta.n_rows + 1] = (
                np.asarray(indptr[1:], dtype=np.int64) + cursor
            )
            cursor += meta.nnz
        return [int(prefix[stop] - prefix[start]) for start, stop in bounds]

    def block_arrays(self, start: int, stop: int):
        """Per-row (indices, values) views plus sq_norms for ``[start, stop)``.

        Returns ``(doc_indices, doc_values, sq_norms)`` with local
        indexing — position 0 is row ``start`` — shaped exactly like the
        per-document lists a resident source slices in memory.
        """
        doc_indices: list[np.ndarray] = []
        doc_values: list[np.ndarray] = []
        norms = np.empty(stop - start, dtype=np.float64)
        row = start
        while row < stop:
            index = self._reader.tile_index_for_row(row)
            meta = self.manifest.tiles[index]
            # One atomic pin + reference grab: worker threads share the
            # reader, and another thread's open may evict this tile.
            indptr, indices, data, sq_norms = self._reader.arrays(index)
            local_stop = min(stop, meta.row_start + meta.n_rows)
            for doc in range(row, local_stop):
                local = doc - meta.row_start
                lo = int(indptr[local])
                hi = int(indptr[local + 1])
                doc_indices.append(indices[lo:hi])
                doc_values.append(data[lo:hi])
                norms[doc - start] = sq_norms[local]
            row = local_stop
        return doc_indices, doc_values, norms

    def spill_stats(self) -> dict:
        stats = self._reader.stats_dict()
        if self._store is not None:
            stats["spill_dir"] = self._store.root
        return stats

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Unmap all tiles; delete the spill directory if this view owns it."""
        self._reader.close()
        if self._store is not None:
            self._store.close()
