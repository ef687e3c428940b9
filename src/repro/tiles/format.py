"""Binary on-disk tile format for CSR row ranges.

A *tile* is one contiguous row range ``[row_start, row_start + n_rows)``
of a CSR matrix, stored as a single binary file that can be mapped
read-only and viewed as numpy arrays without a copy — the intermediate
format that replaces ARFF text for spilled matrices (the paper's Figure 3
singles ARFF materialization out as the dominant workflow cost; a tile
is written once, byte-exact, and read by ``mmap`` instead of a parser).

Layout::

    header   48 bytes, little-endian, see HEADER below
    indptr   int64[n_rows + 1]   tile-local (indptr[0] == 0)
    indices  int64[nnz]          16-byte aligned
    data     float64[nnz]        16-byte aligned
    sq_norms float64[n_rows]     16-byte aligned

``sq_norms[i]`` is ``float(v @ v)`` of row ``i``'s value vector, computed
at write time with the exact arithmetic a resident
:class:`~repro.sparse.matrix.ResidentRows` applies — so a streaming
k-means pass reads per-row norms from the tile instead of re-deriving
them each iteration, and gets bit-identical doubles.

The header carries a CRC-32 of the payload region; :func:`open_tile`
verifies it on demand (``verify=True``) and raises
:class:`~repro.errors.TileError` on any mismatch, truncation, or
malformed field. Writes are atomic (same-directory temp file +
``os.replace``), so a crash never leaves a half-written tile under a
valid name.
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
import zlib

import numpy as np

from repro.errors import TileError

__all__ = [
    "TILE_MAGIC",
    "TILE_VERSION",
    "HEADER",
    "TileHeader",
    "TileView",
    "tile_nbytes",
    "write_tile",
    "open_tile",
    "read_header",
]

TILE_MAGIC = b"RTIL"
TILE_VERSION = 1

#: Array dtypes, fixed by the format: indptr/indices int64 ("q"),
#: data/sq_norms float64 ("d"). Stored in the header so a reader can
#: reject tiles written by a future incompatible revision.
_DTYPE_CODES = b"qqdd"

#: magic, version, dtype codes, row_start, n_rows, n_cols, nnz, crc32, pad.
HEADER = struct.Struct("<4sH4sqqqqI2x")

_ALIGN = 16


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _layout(n_rows: int, nnz: int) -> tuple[list[tuple[str, str, int, int]], int]:
    """(name, dtype, offset, count) per array, plus total file size."""
    fields = []
    offset = _aligned(HEADER.size)
    end = offset
    for name, dtype, count in (
        ("indptr", "<i8", n_rows + 1),
        ("indices", "<i8", nnz),
        ("data", "<f8", nnz),
        ("sq_norms", "<f8", n_rows),
    ):
        fields.append((name, dtype, offset, count))
        end = offset + count * 8
        offset = _aligned(end)
    # No padding after the last array: the file ends where the data ends.
    return fields, end


def tile_nbytes(n_rows: int, nnz: int) -> int:
    """Exact on-disk size of a tile with the given shape."""
    return _layout(n_rows, nnz)[1]


class TileHeader:
    """Parsed header fields of one tile file."""

    __slots__ = ("row_start", "n_rows", "n_cols", "nnz", "checksum", "nbytes")

    def __init__(self, row_start, n_rows, n_cols, nnz, checksum):
        self.row_start = row_start
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.nnz = nnz
        self.checksum = checksum
        self.nbytes = tile_nbytes(n_rows, nnz)


def _parse_header(buf: bytes, label: str) -> TileHeader:
    if len(buf) < HEADER.size:
        raise TileError(f"{label}: truncated header ({len(buf)} bytes)")
    magic, version, codes, row_start, n_rows, n_cols, nnz, checksum = (
        HEADER.unpack_from(buf)
    )
    if magic != TILE_MAGIC:
        raise TileError(f"{label}: bad magic {magic!r}")
    if version != TILE_VERSION:
        raise TileError(f"{label}: unsupported tile version {version}")
    if codes != _DTYPE_CODES:
        raise TileError(f"{label}: unsupported dtype codes {codes!r}")
    if n_rows < 0 or nnz < 0 or n_cols < 0 or row_start < 0:
        raise TileError(f"{label}: negative shape field in header")
    return TileHeader(row_start, n_rows, n_cols, nnz, checksum)


def read_header(path: str) -> TileHeader:
    """Parse and validate just the header of ``path``."""
    try:
        with open(path, "rb") as handle:
            buf = handle.read(HEADER.size)
    except OSError as exc:
        raise TileError(f"cannot read tile {path!r}: {exc}") from exc
    return _parse_header(buf, path)


def write_tile(
    path: str,
    row_start: int,
    n_cols: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    sq_norms: np.ndarray,
) -> TileHeader:
    """Atomically write one tile; returns its parsed header.

    Arrays are coerced to the format's fixed dtypes (a no-op copy when
    already int64/float64 contiguous). ``indptr`` must be tile-local:
    ``indptr[0] == 0`` and ``indptr[-1] == len(indices)``.
    """
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    data = np.ascontiguousarray(data, dtype=np.float64)
    sq_norms = np.ascontiguousarray(sq_norms, dtype=np.float64)
    n_rows = len(indptr) - 1
    nnz = len(indices)
    if len(indptr) == 0 or int(indptr[0]) != 0:
        raise TileError(f"tile {path!r}: indptr must be tile-local")
    if int(indptr[-1]) != nnz or len(data) != nnz or len(sq_norms) != n_rows:
        raise TileError(
            f"tile {path!r}: inconsistent arrays "
            f"(indptr[-1]={int(indptr[-1])}, nnz={nnz}, "
            f"data={len(data)}, sq_norms={len(sq_norms)}, rows={n_rows})"
        )

    fields, total = _layout(n_rows, nnz)
    arrays = {"indptr": indptr, "indices": indices,
              "data": data, "sq_norms": sq_norms}
    # CRC over the payload region exactly as laid out on disk, inter-array
    # padding included (it is written as zeros below).
    crc = 0
    cursor = _aligned(HEADER.size)
    for name, _dtype, offset, _count in fields:
        if offset > cursor:
            crc = zlib.crc32(b"\x00" * (offset - cursor), crc)
        blob = arrays[name].tobytes()
        crc = zlib.crc32(blob, crc)
        cursor = offset + len(blob)
    header = HEADER.pack(
        TILE_MAGIC, TILE_VERSION, _DTYPE_CODES,
        row_start, n_rows, n_cols, nnz, crc & 0xFFFFFFFF,
    )

    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(header)
            cursor = HEADER.size
            for name, _dtype, offset, _count in fields:
                if offset > cursor:
                    handle.write(b"\x00" * (offset - cursor))
                blob = arrays[name].tobytes()
                handle.write(blob)
                cursor = offset + len(blob)
            handle.flush()
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    meta = TileHeader(row_start, n_rows, n_cols, nnz, crc & 0xFFFFFFFF)
    assert meta.nbytes == total
    return meta


class TileView:
    """A read-only mmap of one tile file, exposing numpy array views.

    The arrays alias the mapping — zero copies, pages faulted in on
    first touch. ``close()`` drops the views and unmaps; exported views
    that escaped keep the mapping alive until they are garbage collected
    (``BufferError`` from an eager unmap is tolerated, mirroring the shm
    segment release path).
    """

    __slots__ = (
        "header", "indptr", "indices", "data", "sq_norms", "_mmap", "_closed"
    )

    def __init__(self, path: str, verify: bool = False) -> None:
        try:
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < HEADER.size:
                    raise TileError(
                        f"{path}: truncated tile ({size} bytes)"
                    )
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except OSError as exc:
            raise TileError(f"cannot map tile {path!r}: {exc}") from exc
        try:
            header = _parse_header(mapped[: HEADER.size], path)
            if size != header.nbytes:
                raise TileError(
                    f"{path}: size {size} != expected {header.nbytes} "
                    f"for {header.n_rows} rows / {header.nnz} nnz"
                )
            if verify:
                payload_start = _aligned(HEADER.size)
                crc = zlib.crc32(
                    memoryview(mapped)[payload_start:]
                ) & 0xFFFFFFFF
                if crc != header.checksum:
                    raise TileError(
                        f"{path}: checksum mismatch "
                        f"(stored {header.checksum:#010x}, "
                        f"computed {crc:#010x}) — corrupt tile"
                    )
            fields, _total = _layout(header.n_rows, header.nnz)
            views = {}
            for name, dtype, offset, count in fields:
                views[name] = np.frombuffer(
                    mapped, dtype=dtype, count=count, offset=offset
                )
        except BaseException:
            mapped.close()
            raise
        self.header = header
        self.indptr = views["indptr"]
        self.indices = views["indices"]
        self.data = views["data"]
        self.sq_norms = views["sq_norms"]
        self._mmap = mapped
        self._closed = False

    @property
    def nbytes(self) -> int:
        return self.header.nbytes

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.indptr = self.indices = self.data = self.sq_norms = None
        mapped, self._mmap = self._mmap, None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:
                # A caller still holds an array view; the mapping is
                # released when the last view is garbage collected.
                pass


def open_tile(path: str, verify: bool = False) -> TileView:
    """Map ``path`` read-only; ``verify=True`` checks the payload CRC."""
    return TileView(path, verify=verify)
