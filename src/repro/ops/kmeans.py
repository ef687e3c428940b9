"""Sparse K-means clustering operator.

The paper's numeric operator (§3.1): Lloyd's algorithm over the documents'
normalized TF/IDF vectors, K=8, with the paper's two stated
optimizations —

* **sparse vectors** for the inherently sparse data: assignment costs
  O(nnz · K) per document, not O(|vocabulary| · K);
* **recycled data structures**: centroid and merge buffers are allocated
  once and reused every iteration, never reallocated.

:meth:`KMeansOperator.fit` is the one real fit, on any backend and any
matrix form. The simulator's virtual-time loop behind Figure 1 — fixed
8 192-document chunks, per-view partials and a serial reducer chain —
is :func:`repro.sim.operators.run_kmeans`; at one core it is the
reference every real fit is held to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from repro.errors import OperatorError
from repro.exec.inline import ExecutionBackend, SequentialBackend
from repro.ops import kernels
from repro.sparse.matrix import CsrMatrix

__all__ = ["KMeansResult", "KMeansOperator", "PHASE_KMEANS"]

PHASE_KMEANS = "kmeans"


#: Worker-state slot of each real fit (see ``kernels._KMEANS``). Starting
#: past 16 bits makes every slot pickle to the same five bytes, so span
#: tasks stay constant-size tokens from one fit to the next.
_SLOTS = count(1 << 16)


def _block_spans(
    n_blocks: int, workers: int, per_worker: int = 8
) -> list[tuple[int, int]]:
    """Group block indices into ≤ ``per_worker·workers`` contiguous spans.

    Each task covers a *span* of blocks, so the number of tasks per
    iteration — and with constant-size tokens, the pickled bytes per
    iteration — depends only on the worker count, never on how many
    blocks the document count produced. ``per_worker`` is the backend's
    grain rule (``tasks_per_worker``): ~8 spans per worker in-process,
    one per worker on a process pool, where every task is a round trip.
    """
    n_spans = min(n_blocks, per_worker * workers)
    base, extra = divmod(n_blocks, n_spans)
    spans = []
    first = 0
    for at in range(n_spans):
        size = base + (1 if at < extra else 0)
        spans.append((first, first + size))
        first += size
    return spans


@dataclass
class KMeansResult:
    """Clustering produced by :class:`KMeansOperator`."""

    #: Cluster id per document.
    assignments: list[int]
    #: Final centroids, shape (K, V).
    centroids: np.ndarray
    #: Iterations actually executed.
    n_iters: int
    #: Sum of squared distances of documents to their centroid.
    inertia: float
    #: True when assignments stabilised before the iteration cap.
    converged: bool
    #: Inertia after each iteration (length ``n_iters``).
    inertia_history: list[float] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> list[int]:
        """Documents per cluster."""
        sizes = [0] * self.n_clusters
        for assignment in self.assignments:
            sizes[assignment] += 1
        return sizes


#: Rows fetched from a block source at a time by the serial passes
#: (k-means++ seeding here, the simulator's reference loop): bounds what
#: a tiled source pins.
_STREAM_ROWS = 1024


class KMeansOperator:
    """Sparse Lloyd's K-means."""

    def __init__(
        self,
        n_clusters: int = 8,
        max_iters: int = 10,
        seed: int = 0,
        init: str = "spread",
    ) -> None:
        if n_clusters < 1:
            raise OperatorError(f"n_clusters must be >= 1, got {n_clusters}")
        if max_iters < 1:
            raise OperatorError(f"max_iters must be >= 1, got {max_iters}")
        if init not in ("spread", "kmeans++"):
            raise OperatorError(
                f"init must be 'spread' or 'kmeans++', got {init!r}"
            )
        self.n_clusters = n_clusters
        self.max_iters = max_iters
        self.seed = seed
        self.init = init

    def _init_centroids(self, source) -> np.ndarray:
        """Deterministic seeding, either evenly spread or k-means++.

        ``spread`` mirrors the paper-era practice of seeding from K
        documents spread through the input; ``kmeans++`` picks each next
        seed with probability proportional to its squared distance from
        the chosen ones, which is far more robust on clumpy data. Reads
        through the block source: ``spread`` touches exactly K rows.
        """
        K = self.n_clusters
        n_docs = source.n_rows
        if n_docs < K:
            raise OperatorError(f"need at least {K} documents, got {n_docs}")
        if self.init == "spread":
            seeds = []
            stride = n_docs // K
            offset = self.seed % max(1, stride)
            for k in range(K):
                seeds.append(min(n_docs - 1, offset + k * stride))
        else:
            seeds = self._kmeanspp_seeds(source)
        centroids = np.zeros((K, source.n_cols), dtype=np.float64)
        for k, doc in enumerate(seeds):
            (idx,), (val,), _ = source.block_arrays(doc, doc + 1)
            centroids[k, idx] = val
        return centroids

    def _kmeanspp_seeds(self, source) -> list[int]:
        """Deterministic k-means++ seeding (Arthur & Vassilvitskii 2007),
        its K distance passes streamed ``_STREAM_ROWS`` rows at a time."""
        rng = random.Random(self.seed)
        n_docs = source.n_rows
        seeds = [rng.randrange(n_docs)]
        # Squared distance of every document to its nearest chosen seed.
        nearest = np.full(n_docs, np.inf)
        for _ in range(1, self.n_clusters):
            last = seeds[-1]
            (idx,), (val,), (last_sq,) = source.block_arrays(last, last + 1)
            last_dense = np.zeros(source.n_cols)
            last_dense[idx] = val
            for start in range(0, n_docs, _STREAM_ROWS):
                stop = min(n_docs, start + _STREAM_ROWS)
                doc_idx, doc_val, sq_norms = source.block_arrays(start, stop)
                for local in range(stop - start):
                    idx, val = doc_idx[local], doc_val[local]
                    dot = float(last_dense[idx] @ val) if len(idx) else 0.0
                    dist = max(0.0, sq_norms[local] - 2.0 * dot + last_sq)
                    if dist < nearest[start + local]:
                        nearest[start + local] = dist
            total = float(nearest.sum())
            if total <= 0.0:
                seeds.append(rng.randrange(n_docs))
                continue
            target = rng.random() * total
            cumulative = 0.0
            chosen = n_docs - 1
            for doc in range(n_docs):
                cumulative += float(nearest[doc])
                if cumulative >= target:
                    chosen = doc
                    break
            seeds.append(chosen)
        return seeds

    def fit(
        self, matrix: CsrMatrix, backend: ExecutionBackend | None = None
    ) -> KMeansResult:
        """Cluster the rows of ``matrix``.

        Lloyd's iterations run for real on ``backend`` (``None``: a
        :class:`SequentialBackend`): seed, place, iterate. The matrix's
        block source is *placed* once for the backend's workers — a
        resident matrix puts its CSR triple and norms on the array plane
        (a shared segment, a by-value copy, or the parent's own arrays
        in-process), a
        :class:`~repro.tiles.matrix.TiledCsrMatrix` hands over its
        manifest — and each iteration's centroids are *broadcast* once
        (transposed, the layout the kernel gathers rows of), so
        tasks are ``(slot, first_block, last_block, token)`` spans. Block
        results come back through a *gather* channel (by reference
        in-process, written into a shared arena by pool workers, by value
        without shared memory) and ``backend.imap``, and each block's
        partial is scatter-added as it arrives: an in-process fit holds
        the spans not merged yet, not one partial per block, so a tiled
        matrix's budget is not undone by up to 16 B per stored entry of
        partials. The block bounds depend only on the document count and
        the partials are merged in block order, so assignments and
        centroids are bit-identical across backends, worker counts,
        transports and matrix forms.
        """
        backend = backend or SequentialBackend()
        backend.begin_phase(PHASE_KMEANS)
        source = matrix.block_source()
        centroids = self._init_centroids(source)
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)

        # Block bounds depend only on the document count (not on the
        # backend's worker count): floating-point accumulation order is
        # fixed, which is what makes the output backend-invariant. At
        # most 64 blocks keeps the per-iteration result count bounded.
        n_docs = source.n_rows
        grain = max(32, -(-n_docs // 64))
        bounds = [
            (start, min(start + grain, n_docs))
            for start in range(0, n_docs, grain)
        ]
        spans = _block_spans(
            len(bounds), backend.workers, backend.tasks_per_worker
        )
        K = self.n_clusters

        def gather_slots():
            # A block ships at most one cell per stored entry.
            return [
                ((np.int64, stop - start), (np.intp, nnz), (np.float64, nnz),
                 (np.int64, K), (np.float64, 1))
                for (start, stop), nnz in zip(bounds, source.block_nnz(bounds))
            ]

        slot = next(_SLOTS)
        placed = source.place(backend)
        # The kernel gathers rows of the transposed centroids (see
        # ``kernels._assign_block``): that is what each iteration ships.
        channel = backend.open_broadcast(
            "kmeans-centroids", (centroids.T, centroid_sq_norms)
        )
        gather = backend.open_gather("kmeans-partials", gather_slots)
        try:
            backend.configure(
                kernels.init_kmeans_worker,
                (slot, placed.descriptor(), channel.descriptor(), tuple(bounds),
                 gather.descriptor()),
            )

            def run_iteration(centroids, centroid_sq_norms):
                token = backend.broadcast(
                    channel,
                    (np.ascontiguousarray(centroids.T), centroid_sq_norms),
                )
                span_results = backend.imap(
                    kernels.assign_block_span,
                    [(slot, first, last, token) for first, last in spans],
                )
                # Flatten spans back to per-block results as they arrive:
                # the merge sees the block sequence, whatever the span
                # grouping. Views into a shared arena are merged before
                # the next iteration's tasks rewrite them.
                block = 0
                for span in span_results:
                    for returned in span:
                        best, cells, partial, counts, inertia = gather.take(
                            block, returned
                        )
                        yield best.tolist(), cells, partial, counts, float(inertia[0])
                        block += 1
                    del span  # merged: the next span runs without it

            return self._lloyd(bounds, centroids, centroid_sq_norms, run_iteration)
        finally:
            try:
                # In-process backends release the worker state right here;
                # pool workers drop theirs in one install, so no worker is
                # left attached to what the fit unlinks below.
                backend.configure(kernels.release_kmeans_worker, (slot,))
            finally:
                gather.close()
                channel.close()
                placed.close()

    def _lloyd(
        self,
        bounds: list[tuple[int, int]],
        centroids: np.ndarray,
        centroid_sq_norms: np.ndarray,
        run_iteration,
    ) -> KMeansResult:
        """The iteration loop of every real fit.

        ``run_iteration(centroids, centroid_sq_norms)`` returns an
        iterable of one result per block, in block order; each is
        scatter-added as it arrives, so a generator's block results never
        all exist at once. The fixed block-order merge, finalize and
        convergence test live here and nowhere else.
        """
        K = self.n_clusters
        n_docs = bounds[-1][1]
        assignments = [-1] * n_docs
        previous = list(assignments)
        inertia = 0.0
        converged = False
        n_iters = 0
        inertia_history: list[float] = []
        # Recycled merge buffer, with a flat view for the scatter-add.
        merged = np.zeros(centroids.shape, dtype=np.float64)
        merged_flat = merged.reshape(-1)
        for _ in range(self.max_iters):
            n_iters += 1

            # Merge in fixed block order (deterministic float grouping).
            merged.fill(0.0)
            merged_counts = np.zeros(K, dtype=np.int64)
            inertia = 0.0
            # Block results first, so zip drains their generator to its end.
            for (block_assign, cells, partial, counts, block_inertia), (
                start, _
            ) in zip(run_iteration(centroids, centroid_sq_norms), bounds):
                assignments[start : start + len(block_assign)] = block_assign
                # Scatter-add the block's compact partial: only the cells
                # it touched travelled, the rest of its K×V were +0.0.
                merged_flat[cells] += partial
                merged_counts += counts
                inertia += block_inertia
            inertia_history.append(inertia)

            for k in range(K):
                if merged_counts[k] > 0:
                    centroids[k] = merged[k] / merged_counts[k]
                # Empty cluster: previous centroid is kept (recycled buffer).
            centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)

            if assignments == previous:
                converged = True
                break
            previous = list(assignments)

        return KMeansResult(
            assignments=assignments,
            centroids=centroids,
            n_iters=n_iters,
            inertia=inertia,
            converged=converged,
            inertia_history=inertia_history,
        )
