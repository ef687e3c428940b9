"""TileStore / TileReader: spill lifecycle, LRU budget, adopt path.

The store's contract mirrors the shm plane's: deterministic accounting
(``peak_pinned_bytes`` is the bounded-memory witness the oocore bench
asserts on), loud failures on damaged input, and no leaked spill
directories on any exit path — the repo-wide conftest guard watches
``$TMPDIR/repro_tiles_*`` around every one of these tests.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import TileError
from repro.tiles import SPILL_PREFIX, TileStore


def _tile_arrays(n_rows, n_cols=16, seed=0):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 4, size=n_rows)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    nnz = int(indptr[-1])
    indices = rng.integers(0, n_cols, size=nnz).astype(np.int64)
    data = rng.random(nnz)
    sq_norms = np.array(
        [float(data[indptr[i]:indptr[i + 1]] @ data[indptr[i]:indptr[i + 1]])
         for i in range(n_rows)]
    )
    return indptr, indices, data, sq_norms


def _fill(store, tiles=4, rows_per_tile=3, n_cols=16):
    row = 0
    for at in range(tiles):
        store.append(row, n_cols, *_tile_arrays(rows_per_tile, n_cols, seed=at))
        row += rows_per_tile
    return store.seal(n_cols)


class TestStoreLifecycle:
    def test_spill_dir_uses_prefix_and_close_removes_it(self):
        store = TileStore()
        root = store.root
        assert os.path.basename(root).startswith(SPILL_PREFIX)
        assert os.path.isdir(root)
        _fill(store)
        store.close()
        assert not os.path.exists(root)
        store.close()  # idempotent

    def test_gc_backstop_removes_unclosed_store(self):
        store = TileStore()
        _fill(store)
        root = store.root
        del store
        assert not os.path.exists(root)

    def test_append_enforces_contiguity(self):
        store = TileStore()
        try:
            with pytest.raises(TileError, match="start at row 0"):
                store.append(5, 16, *_tile_arrays(2))
            store.append(0, 16, *_tile_arrays(2))
            with pytest.raises(TileError, match="contiguous"):
                store.append(7, 16, *_tile_arrays(2))
        finally:
            store.close()

    def test_reset_drops_tiles_for_replay(self):
        store = TileStore()
        try:
            _fill(store, tiles=3)
            assert len(store.metas) == 3
            store.reset()
            assert store.metas == ()
            assert [n for n in os.listdir(store.root)
                    if n.endswith(".rt")] == []
            # A reset store accepts a fresh row-0 tile sequence.
            store.append(0, 16, *_tile_arrays(2))
        finally:
            store.close()


class TestManifest:
    def test_shape_totals_and_paths(self):
        store = TileStore()
        try:
            manifest = _fill(store, tiles=4, rows_per_tile=3)
            assert manifest.n_rows == 12
            assert manifest.nnz == sum(m.nnz for m in manifest.tiles)
            assert manifest.total_bytes == sum(m.nbytes for m in manifest.tiles)
            for meta in manifest.tiles:
                assert os.path.getsize(manifest.path(meta)) == meta.nbytes
        finally:
            store.close()

    def test_digest_tracks_content(self):
        store_a, store_b = TileStore(), TileStore()
        try:
            digest_a = _fill(store_a, tiles=2).digest()
            assert digest_a == _fill(store_b, tiles=2).digest()
            store_b.reset()
            store_b.append(0, 16, *_tile_arrays(3, seed=99))
            assert store_b.seal(16).digest() != digest_a
        finally:
            store_a.close()
            store_b.close()


class TestReaderBudget:
    def test_unbudgeted_reader_pins_everything(self):
        store = TileStore()
        try:
            manifest = _fill(store, tiles=4)
            reader = store.reader(manifest)
            for index in range(4):
                reader.tile(index)
            stats = reader.stats_dict()
            assert stats["pinned_bytes"] == manifest.total_bytes
            assert stats["evictions"] == 0
            assert stats["reads"] == 4
        finally:
            store.close()

    def test_budget_bounds_peak_pinned_and_evicts_lru(self):
        store = TileStore()
        try:
            manifest = _fill(store, tiles=6, rows_per_tile=4)
            per_tile = manifest.tiles[0].nbytes
            budget = int(per_tile * 2.5)  # room for two tiles, never three
            store.memory_budget = budget
            reader = store.reader(manifest)
            for _sweep in range(2):
                for index in range(6):
                    view = reader.tile(index)
                    assert view.header.row_start == manifest.tiles[index].row_start
            stats = reader.stats_dict()
            assert stats["peak_pinned_bytes"] <= budget
            assert stats["evictions"] > 0
            # Second sweep re-reads evicted tiles: more loads than tiles.
            assert stats["reads"] > 6
        finally:
            store.close()

    def test_pathological_budget_keeps_served_tile(self):
        # A budget smaller than one tile still serves every tile; the
        # tile being handed out is never evicted from under the caller.
        store = TileStore()
        try:
            manifest = _fill(store, tiles=3)
            store.memory_budget = 1
            reader = store.reader(manifest)
            for index in range(3):
                view = reader.tile(index)
                assert view.indptr is not None
            stats = reader.stats_dict()
            assert stats["peak_pinned_bytes"] <= manifest.tiles[0].nbytes * 2
            assert stats["pinned_bytes"] <= max(m.nbytes for m in manifest.tiles)
        finally:
            store.close()

    def test_lru_refresh_on_repeat_access(self):
        store = TileStore()
        try:
            manifest = _fill(store, tiles=3)
            per_tile = manifest.tiles[0].nbytes
            store.memory_budget = per_tile * 2
            reader = store.reader(manifest)
            reader.tile(0)
            reader.tile(1)
            reader.tile(0)  # refresh: tile 1 is now the LRU victim
            reader.tile(2)
            assert reader.reads == 3
            reader.tile(0)  # still pinned — no new load
            assert reader.reads == 3
            reader.tile(1)  # was evicted — reloads
            assert reader.reads == 4
        finally:
            store.close()

    def test_tile_index_for_row(self):
        store = TileStore()
        try:
            manifest = _fill(store, tiles=3, rows_per_tile=4)
            reader = store.reader(manifest)
            assert reader.tile_index_for_row(0) == 0
            assert reader.tile_index_for_row(3) == 0
            assert reader.tile_index_for_row(4) == 1
            assert reader.tile_index_for_row(11) == 2
            with pytest.raises(TileError, match="outside"):
                reader.tile_index_for_row(12)
        finally:
            store.close()

    def test_manifest_mismatch_detected(self):
        # A tile whose header disagrees with the manifest (swapped file,
        # stale directory) is rejected even without CRC verification.
        store = TileStore()
        try:
            manifest = _fill(store, tiles=2, rows_per_tile=3)
            paths = [manifest.path(m) for m in manifest.tiles]
            os.replace(paths[1], paths[1] + ".save")
            os.replace(paths[0], paths[1])
            reader = store.reader(manifest)
            with pytest.raises(TileError, match="does not match manifest"):
                reader.tile(1)
        finally:
            store.close()


class TestSharedReader:
    def test_threads_share_one_reader_under_eviction(self):
        # ThreadBackend workers all read through one reader — the tiled
        # matrix's own, which kernels.init_kmeans_worker resolves the
        # placement to in-process. With room for fewer than two
        # tiles every open evicts, so without the reader's lock one
        # thread's eviction nulls the arrays another is slicing
        # (TypeError: 'NoneType' object is not subscriptable).
        from repro.tiles import TiledCsrMatrix

        tiles, rows_per_tile = 6, 4
        n_rows = tiles * rows_per_tile
        store = TileStore()
        interval = sys.getswitchinterval()
        try:
            manifest = _fill(store, tiles=tiles, rows_per_tile=rows_per_tile)
            expected = [
                _tile_arrays(rows_per_tile, seed=at) for at in range(tiles)
            ]
            budget = int(manifest.tiles[0].nbytes * 1.5)
            matrix = TiledCsrMatrix.from_manifest(manifest, memory_budget=budget)
            sys.setswitchinterval(1e-6)

            def sweep(worker):
                rng = np.random.default_rng(worker)
                for _ in range(1000):
                    start = int(rng.integers(0, n_rows - 1))
                    stop = int(rng.integers(start + 1, min(n_rows, start + 9) + 1))
                    _, values, norms = matrix.block_arrays(start, stop)
                    for row, val, norm in zip(range(start, stop), values, norms):
                        indptr, _, data, sq_norms = expected[row // rows_per_tile]
                        local = row % rows_per_tile
                        want = data[indptr[local]:indptr[local + 1]]
                        assert val.tobytes() == want.tobytes()
                        assert norm == sq_norms[local]

            with ThreadPoolExecutor(max_workers=4) as pool:
                for future in [pool.submit(sweep, w) for w in range(4)]:
                    future.result(timeout=120)
            stats = matrix.spill_stats()
            assert stats["evictions"] > 0
            assert stats["peak_pinned_bytes"] <= budget
            matrix.close()
        finally:
            sys.setswitchinterval(interval)
            store.close()


class TestAdopt:
    def test_adopt_round_trips_tile_bytes(self):
        source, target = TileStore(), TileStore()
        try:
            manifest = _fill(source, tiles=3)
            for meta in manifest.tiles:
                adopted = target.adopt_tile(source.tile_bytes(meta))
                assert (adopted.row_start, adopted.n_rows, adopted.nnz,
                        adopted.checksum) == (
                    meta.row_start, meta.n_rows, meta.nnz, meta.checksum)
            assert target.seal(16).digest() == manifest.digest()
        finally:
            source.close()
            target.close()

    def test_adopt_rejects_corrupt_blob_without_partial_files(self):
        source, target = TileStore(), TileStore()
        try:
            manifest = _fill(source, tiles=1)
            blob = bytearray(source.tile_bytes(manifest.tiles[0]))
            blob[-1] ^= 0xFF
            with pytest.raises(TileError, match="checksum"):
                target.adopt_tile(bytes(blob))
            assert os.listdir(target.root) == []
            assert target.metas == ()
        finally:
            source.close()
            target.close()

    def test_adopt_enforces_contiguity(self):
        source, target = TileStore(), TileStore()
        try:
            manifest = _fill(source, tiles=2)
            with pytest.raises(TileError, match="start at row 0"):
                target.adopt_tile(source.tile_bytes(manifest.tiles[1]))
        finally:
            source.close()
            target.close()
