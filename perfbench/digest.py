"""Output digest: the benchmark's own bit-identity check.

One SHA-256 over the TF/IDF rows, the cluster assignments and the raw
centroid bytes. The byte stream is the same one the serve daemon hashes
into its result payload (little-endian struct-packed ``int64`` lengths
and indices, ``float64`` values), which is what lets ``serve-closed``
compare a daemon-reported digest against the in-process reference. The
benchmark keeps its own copy so the program's helper can move or go
without touching the instrument.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["output_digest"]


def output_digest(result) -> str:
    """Hex digest of a ``run_pipeline`` result (resident or tiled matrix).

    Rows are read through ``iter_rows()`` so a tiled matrix is hashed
    tile-at-a-time under its own pinning budget — verification must not
    be what blows a bounded-memory workload's resident set.
    """
    h = hashlib.sha256()
    matrix = result.tfidf.matrix
    h.update(struct.pack("<qq", matrix.n_rows, matrix.n_cols))
    for row in matrix.iter_rows():
        indices = np.asarray(row.indices, dtype="<i8")
        h.update(struct.pack("<q", len(indices)))
        h.update(indices.tobytes())
        h.update(np.asarray(row.values, dtype="<f8").tobytes())
    assignments = np.asarray(result.kmeans.assignments, dtype="<i8")
    h.update(struct.pack("<q", len(assignments)))
    h.update(assignments.tobytes())
    h.update(result.kmeans.centroids.tobytes())
    return h.hexdigest()
