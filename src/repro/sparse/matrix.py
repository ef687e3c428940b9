"""Compressed sparse row document-term matrix.

The TF/IDF operator's output — one sparse vector per document — is held in
CSR form so the whole corpus representation is three flat arrays. Rows are
cheap views, which is what lets the fused workflow hand the TF/IDF scores
to K-means without any serialization (paper §3.3).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import OperatorError
from repro.exec.shm import Placement
from repro.sparse.vector import SparseVector

__all__ = ["CsrMatrix", "ResidentRows", "csr_row_views"]


def csr_row_views(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-row ``(indices, data)`` views over a flat CSR triple.

    Zero-copy slices in row order — the shape the k-means assignment
    kernel indexes by document, whether the triple is the parent's
    matrix, an attached shared segment, or one tile's worth of rows.
    """
    bounds = indptr.tolist()
    pairs = list(zip(bounds[:-1], bounds[1:]))
    return [indices[a:b] for a, b in pairs], [data[a:b] for a, b in pairs]


class ResidentRows:
    """Block source over a resident CSR triple: what k-means reads.

    A *block source* answers ``n_rows``, ``n_cols``,
    ``block_arrays(start, stop)`` and ``place(backend)``; this is the
    in-memory one (:class:`~repro.tiles.matrix.TiledCsrMatrix` is the
    spilled one). The per-row views and squared norms are computed once
    and recycled across iterations. ``place`` puts the flat triple plus
    norms on the backend's array plane — a shared segment, a by-value
    copy, or nothing at all in-process — and a worker that resolves the
    placement elsewhere gets a source built by :meth:`attach` over those
    arrays.
    """

    def __init__(self, indptr, indices, data, n_cols, sq_norms=None,
                 attached=None) -> None:
        self.arrays = (indptr, indices, data)
        self.indices, self.values = csr_row_views(indptr, indices, data)
        if sq_norms is None:
            sq_norms = [float(val @ val) for val in self.values]
        self.sq_norms = sq_norms
        self.n_rows = len(indptr) - 1
        self.n_cols = n_cols
        #: The arrays descriptor this source reads through, when it does.
        self._attached = attached

    @classmethod
    def attach(cls, descriptor, n_cols: int) -> "ResidentRows":
        """Worker side of :meth:`place`: views over the placed arrays."""
        arrays = descriptor.resolve()
        return cls(
            arrays["indptr"], arrays["indices"], arrays["values"], n_cols,
            arrays["sq_norms"], descriptor,
        )

    def block_arrays(self, start: int, stop: int):
        """``(indices, values, sq_norms)`` of rows ``[start, stop)``,
        position 0 being row ``start``."""
        return (
            self.indices[start:stop],
            self.values[start:stop],
            self.sq_norms[start:stop],
        )

    def place(self, backend) -> Placement:
        indptr, indices, data = self.arrays
        shared = backend.share_arrays(
            "rows",
            {
                "indptr": indptr,
                "indices": indices,
                "values": data,
                "sq_norms": np.asarray(self.sq_norms, dtype=np.float64),
            },
        )
        return Placement(
            self, ResidentRows.attach, (shared.descriptor(), self.n_cols), shared
        )

    def close(self) -> None:
        """Drop the views, then the attachment they were views of."""
        self.arrays = self.indices = self.values = self.sq_norms = None
        if self._attached is not None:
            self._attached.release()


class CsrMatrix:
    """Row-major sparse matrix: ``indptr``, ``indices``, ``data``.

    The three backing arrays may be plain Python lists (what
    :meth:`from_rows` builds) or numpy arrays (:meth:`from_arrays`, what
    the backend transform and the cache hand over). ``row()`` yields
    list-valued vectors from either; hot paths read :meth:`as_arrays`.
    """

    def __init__(
        self,
        indptr: list[int],
        indices: list[int],
        data: list[float],
        n_cols: int,
    ) -> None:
        if len(indptr) == 0 or indptr[0] != 0:
            raise OperatorError("indptr must start with 0")
        if indptr[-1] != len(indices) or len(indices) != len(data):
            raise OperatorError("indptr/indices/data lengths are inconsistent")
        if (np.diff(np.asarray(indptr)) < 0).any():
            raise OperatorError("indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.n_cols = n_cols

    @classmethod
    def from_rows(
        cls, rows: Iterable[SparseVector], n_cols: int | None = None
    ) -> "CsrMatrix":
        """Pack sparse vectors into CSR; infers ``n_cols`` when omitted."""
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        max_index = -1
        for row in rows:
            indices.extend(row.indices)
            data.extend(row.values)
            indptr.append(len(indices))
            if row.indices:
                max_index = max(max_index, row.indices[-1])
        if n_cols is None:
            n_cols = max_index + 1
        elif max_index >= n_cols:
            raise OperatorError(
                f"row index {max_index} out of range for n_cols={n_cols}"
            )
        return cls(indptr, indices, data, n_cols)

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        n_cols: int,
    ) -> "CsrMatrix":
        """Wrap existing flat arrays without copying them.

        Validated in full, vectorised: beyond the shape checks of the
        constructor, every column id must lie in ``[0, n_cols)`` and be
        strictly increasing within its row — a transform handed a wrong
        term-id map fails here instead of corrupting centroids later.
        """
        matrix = cls(indptr, indices, data, n_cols)
        indices = np.asarray(indices)
        if len(indices):
            if indices.min() < 0 or indices.max() >= n_cols:
                raise OperatorError(
                    f"column ids must lie in [0, {n_cols}), got "
                    f"[{indices.min()}, {indices.max()}]"
                )
            rising = indices[1:] > indices[:-1]
            starts = np.asarray(indptr)[1:-1]
            rising[starts[(starts > 0) & (starts < len(indices))] - 1] = True
            if not rising.all():
                raise OperatorError(
                    "column ids must be strictly increasing within each row"
                )
        return matrix

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR triple as flat numpy arrays ``(indptr, indices, data)``.

        List-backed matrices are converted (one copy); array-backed ones
        pass through. Dtypes are fixed (int64/intp/float64) so the triple
        can be placed into a shared segment and resolved on any worker.
        """
        return (
            np.ascontiguousarray(self.indptr, dtype=np.int64),
            np.ascontiguousarray(self.indices, dtype=np.intp),
            np.ascontiguousarray(self.data, dtype=np.float64),
        )

    def block_source(self) -> ResidentRows:
        """The matrix as a k-means block source (views + norms, built once)."""
        return ResidentRows(*self.as_arrays(), self.n_cols)

    @property
    def n_rows(self) -> int:
        """Number of rows (documents)."""
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        """Number of stored entries across all rows."""
        return len(self.data)

    def row(self, i: int) -> SparseVector:
        """Materialise row ``i`` as a :class:`SparseVector`."""
        if not 0 <= i < self.n_rows:
            raise OperatorError(f"row {i} out of range [0, {self.n_rows})")
        return self._row(int(self.indptr[i]), int(self.indptr[i + 1]))

    def _row(self, start: int, end: int) -> SparseVector:
        indices, values = self.indices[start:end], self.data[start:end]
        vector = SparseVector.__new__(SparseVector)
        if isinstance(indices, np.ndarray):
            indices, values = indices.tolist(), values.tolist()
        vector.indices = indices
        vector.values = values
        return vector

    def row_nnz(self, i: int) -> int:
        """Number of stored entries in row ``i`` without materialising it."""
        return int(self.indptr[i + 1] - self.indptr[i])

    def iter_rows(self) -> Iterator[SparseVector]:
        """Yield every row as a :class:`SparseVector`, in order."""
        bounds = self.indptr
        if isinstance(bounds, np.ndarray):
            bounds = bounds.tolist()  # plain ints slice arrays much faster
        for start, end in zip(bounds[:-1], bounds[1:]):
            yield self._row(start, end)

    def resident_bytes(self) -> int:
        """Modelled footprint: 8-byte values, 4-byte indices and offsets."""
        return 8 * len(self.data) + 4 * len(self.indices) + 4 * len(self.indptr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CsrMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"
        )
