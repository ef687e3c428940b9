"""Pinned numerics: the k-means gather's operand layout is frozen.

``kernels._assign_block`` computes each document's K dot products as
``by_column.take(idx, 0).T @ val`` over the centroids transposed
(C-contiguous, V×K). Its K×m operand has the layout of
``centroids[:, idx]`` (F-ordered, strides ``(8, 8·K)``), so numpy picks
the same gemv kernel and every dot is bit-equal to the original
``centroids[:, idx] @ val``. A C-ordered operand — the natural
``centroids.take(idx, 1)`` — is a different kernel and differs in the
last bits; the kernel test below fails if the kernel drifts to such a
spelling (a copy whose gather made its operand C-ordered fails it).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops import kernels


@st.composite
def _rows(draw):
    """Centroids and a few documents' sorted columns and values."""
    K = draw(st.integers(1, 9))
    V = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((K, V)) * draw(st.sampled_from([1e-3, 1, 1e3]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        m = draw(st.integers(1, V))
        idx = np.sort(rng.choice(V, m, replace=False)).astype(np.intp)
        rows.append((idx, rng.standard_normal(m)))
    return centroids, rows


def _reference_dots(centroids, rows):
    return np.array([centroids[:, idx] @ val for idx, val in rows])


class TestGatherIsPinned:
    @settings(max_examples=200, deadline=None)
    @given(_rows())
    def test_transposed_row_gather_is_bit_equal(self, problem):
        centroids, rows = problem
        by_column = np.ascontiguousarray(centroids.T)
        for idx, val in rows:
            gathered = by_column.take(idx, 0).T
            assert gathered.strides == centroids[:, idx].strides
            expected = centroids[:, idx] @ val
            assert (gathered @ val).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_rows())
    def test_block_kernel_uses_the_pinned_dots(self, problem):
        # Each document is its own block: its inertia is the distance
        # the pinned dots give to its nearest centroid, double for double.
        centroids, rows = problem
        indices = [idx for idx, _ in rows]
        values = [val for _, val in rows]
        sq_norms = [float(val @ val) for val in values]
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        by_column = np.ascontiguousarray(centroids.T)
        dots = _reference_dots(centroids, rows)
        distances = (
            np.asarray(sq_norms)[:, None] - 2.0 * dots + centroid_sq_norms
        )
        for doc in range(len(rows)):
            best, _, _, _, inertia = kernels._assign_block(
                doc, doc + 1, by_column, centroid_sq_norms,
                indices, values, sq_norms,
            )
            nearest = int(np.argmin(distances[doc]))
            assert best == [nearest]
            assert inertia == max(0.0, float(distances[doc, nearest]))
