"""CsrMatrix array-conversion edge cases, and the tiled round trip.

``from_arrays``/``as_arrays`` are the seams between the operators'
list-backed matrices, the shm plane's segment views, and the tile
plane's on-disk spill — the degenerate shapes (no rows, empty rows,
odd dtypes) must survive every crossing unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OperatorError, TileError
from repro.sparse.matrix import CsrMatrix
from repro.sparse.vector import SparseVector
from repro.tiles import TileStore
from repro.tiles.matrix import TiledCsrMatrix


class TestEmptyShapes:
    def test_empty_matrix_round_trips(self):
        empty = CsrMatrix([0], [], [], n_cols=5)
        indptr, indices, data = empty.as_arrays()
        assert (empty.n_rows, empty.nnz) == (0, 0)
        assert list(indptr) == [0] and len(indices) == 0 and len(data) == 0
        back = CsrMatrix.from_arrays(indptr, indices, data, n_cols=5)
        assert (back.n_rows, back.n_cols, back.nnz) == (0, 5, 0)
        assert list(back.iter_rows()) == []

    def test_empty_rows_survive_conversion(self):
        # Documents with no surviving terms (stopword-only, min_df-pruned)
        # become empty rows; row identity must survive the array crossing.
        matrix = CsrMatrix([0, 0, 2, 2, 3], [1, 4, 0], [0.5, 1.5, 2.0], 5)
        back = CsrMatrix.from_arrays(*matrix.as_arrays(), n_cols=5)
        assert back.n_rows == 4
        assert back.row_nnz(0) == 0 and back.row_nnz(2) == 0
        assert list(back.row(0).indices) == []
        assert list(back.row(1).indices) == [1, 4]
        assert list(back.row(3).values) == [2.0]

    def test_zero_indptr_is_rejected(self):
        with pytest.raises(OperatorError, match="indptr"):
            CsrMatrix([], [], [], n_cols=1)


class TestDtypes:
    def test_as_arrays_fixes_dtypes_from_lists(self):
        matrix = CsrMatrix([0, 2], [0, 3], [1.0, 2.0], 4)
        indptr, indices, data = matrix.as_arrays()
        assert indptr.dtype == np.int64
        assert indices.dtype == np.intp
        assert data.dtype == np.float64

    def test_non_default_index_dtypes_accepted(self):
        # Arrays arriving as int32/float32 (foreign producers, compact
        # storage) still convert; values are preserved exactly because
        # the sample values are representable in both widths.
        matrix = CsrMatrix.from_arrays(
            np.array([0, 1, 3], dtype=np.int32),
            np.array([2, 0, 1], dtype=np.uint16),
            np.array([1.0, 0.5, 0.25], dtype=np.float32),
            n_cols=3,
        )
        indptr, indices, data = matrix.as_arrays()
        assert indptr.dtype == np.int64 and list(indptr) == [0, 1, 3]
        assert indices.dtype == np.intp and list(indices) == [2, 0, 1]
        assert data.dtype == np.float64 and list(data) == [1.0, 0.5, 0.25]

    def test_array_backed_rows_match_list_backed(self):
        rows = [
            SparseVector.from_pairs([(0, 1.0), (2, 0.5)]),
            SparseVector.from_pairs([]),
            SparseVector.from_pairs([(1, 2.0)]),
        ]
        listed = CsrMatrix.from_rows(rows, n_cols=3)
        arrayed = CsrMatrix.from_arrays(*listed.as_arrays(), n_cols=3)
        for a, b in zip(listed.iter_rows(), arrayed.iter_rows()):
            assert list(a.indices) == list(b.indices)
            assert list(a.values) == list(b.values)


class TestArrayValidation:
    """``from_arrays`` checks what ``from_rows`` gets from ``SparseVector``:
    a transform handed a wrong term-id map must fail here, loudly."""

    def _arrays(self, indptr, indices):
        return (
            np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int32),
            np.ones(len(indices)),
        )

    def test_column_out_of_range_is_rejected(self):
        with pytest.raises(OperatorError, match=r"\[0, 3\)"):
            CsrMatrix.from_arrays(*self._arrays([0, 2], [1, 3]), n_cols=3)
        with pytest.raises(OperatorError, match=r"\[0, 3\)"):
            CsrMatrix.from_arrays(*self._arrays([0, 2], [-1, 2]), n_cols=3)

    def test_unsorted_or_repeated_column_in_a_row_is_rejected(self):
        for indices in ([2, 1, 0], [0, 1, 1]):
            with pytest.raises(OperatorError, match="strictly increasing"):
                CsrMatrix.from_arrays(*self._arrays([0, 1, 3], indices), n_cols=3)

    def test_order_is_per_row_and_empty_rows_are_fine(self):
        # Each row restarts the order; empty rows (first, middle, last)
        # contribute no comparison at all.
        matrix = CsrMatrix.from_arrays(
            *self._arrays([0, 0, 2, 2, 2, 4, 4], [1, 2, 0, 1]), n_cols=3
        )
        assert [row.indices for row in matrix.iter_rows()] == [
            [], [1, 2], [], [], [0, 1], [],
        ]

    def test_decreasing_indptr_is_rejected(self):
        with pytest.raises(OperatorError, match="non-decreasing"):
            CsrMatrix.from_arrays(*self._arrays([0, 2, 1, 2], [0, 1]), n_cols=2)

    def test_a_wrong_gmap_fails_the_transform(self):
        from repro.ops import kernels
        from repro.sparse.blocks import TermBlock, concat_csr

        block = TermBlock.from_counts([{"a": 1, "b": 2, "c": 1}], [4])
        swapped = block.bound(np.array([1, 0, 2], dtype=np.int32), np.ones(3))
        rows = kernels.transform_chunk(swapped)
        with pytest.raises(OperatorError, match="strictly increasing"):
            CsrMatrix.from_arrays(*concat_csr([rows]), n_cols=3)

    def test_array_backed_rows_are_list_valued(self):
        matrix = CsrMatrix.from_arrays(*self._arrays([0, 2], [0, 2]), n_cols=3)
        row = matrix.row(0)
        assert row.indices == [0, 2] and row.values == [1.0, 1.0]
        assert type(row.indices) is list and type(matrix.row_nnz(0)) is int


class TestTiledRoundTrip:
    def _spill(self, matrix: CsrMatrix, store: TileStore, rows_per_tile=2):
        indptr, indices, data = matrix.as_arrays()
        for start in range(0, matrix.n_rows, rows_per_tile):
            stop = min(matrix.n_rows, start + rows_per_tile)
            lo, hi = int(indptr[start]), int(indptr[stop])
            local = indptr[start:stop + 1] - lo
            norms = np.array([
                float(data[indptr[i]:indptr[i + 1]] @ data[indptr[i]:indptr[i + 1]])
                for i in range(start, stop)
            ])
            store.append(start, matrix.n_cols, local,
                         indices[lo:hi], data[lo:hi], norms)
        return store.seal(matrix.n_cols)

    def test_tiled_matrix_round_trips_including_empty_rows(self):
        matrix = CsrMatrix(
            [0, 2, 2, 3, 6, 6], [1, 3, 0, 0, 2, 4],
            [0.5, 1.0, 2.0, 0.25, 0.75, 1.5], 5,
        )
        store = TileStore()
        try:
            tiled = TiledCsrMatrix(self._spill(matrix, store), store=store)
            assert (tiled.n_rows, tiled.n_cols, tiled.nnz) == (5, 5, 6)
            for a, b in zip(matrix.iter_rows(), tiled.iter_rows()):
                assert list(a.indices) == list(b.indices)
                assert a.values == list(b.values)
            indptr, indices, data = tiled.as_arrays()
            ref_indptr, ref_indices, ref_data = matrix.as_arrays()
            assert indptr.tobytes() == ref_indptr.tobytes()
            assert list(indices) == list(ref_indices)
            assert data.tobytes() == ref_data.tobytes()
        finally:
            store.close()

    def test_corrupted_tile_checksum_raises_on_verified_read(self):
        matrix = CsrMatrix([0, 1, 2], [0, 1], [1.0, 2.0], 2)
        store = TileStore()
        try:
            manifest = self._spill(matrix, store, rows_per_tile=1)
            path = manifest.path(manifest.tiles[1])
            with open(path, "r+b") as handle:
                handle.seek(-1, 2)
                byte = handle.read(1)
                handle.seek(-1, 2)
                handle.write(bytes([byte[0] ^ 0x01]))
            verified = TiledCsrMatrix(
                manifest, reader=store.reader(manifest, verify=True)
            )
            assert list(verified.row(0).values) == [1.0]  # tile 0 intact
            with pytest.raises(TileError, match="checksum"):
                verified.row(1)
        finally:
            store.close()
