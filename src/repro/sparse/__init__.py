"""Sparse linear-algebra substrate used by TF/IDF output and K-means."""

from repro.sparse.blocks import TermBlock, concat_csr
from repro.sparse.matrix import CsrMatrix, csr_row_views
from repro.sparse.ops import (
    cosine_similarity,
    dense_squared_norm,
    mean_of_rows,
    nearest_centroid,
    scale_dense,
    zero_dense,
)
from repro.sparse.vector import SparseVector

__all__ = [
    "SparseVector",
    "CsrMatrix",
    "TermBlock",
    "concat_csr",
    "csr_row_views",
    "cosine_similarity",
    "dense_squared_norm",
    "mean_of_rows",
    "nearest_centroid",
    "scale_dense",
    "zero_dense",
]
