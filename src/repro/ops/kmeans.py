"""Sparse K-means clustering operator.

The paper's numeric operator (§3.1): Lloyd's algorithm over the documents'
normalized TF/IDF vectors, K=8. The implementation follows the paper's two
stated optimizations —

* **sparse vectors** for the inherently sparse data: assignment costs
  O(nnz · K) per document, not O(|vocabulary| · K);
* **recycled data structures**: centroid and accumulator buffers are
  allocated once and reused every iteration, never reallocated.

Parallel structure per iteration (the source of Figure 1's curves):

1. *assignment* — parallel over documents in fixed-size chunks of
   :data:`KMEANS_GRAIN_DOCS` documents (the loop grain of the original
   implementation); each active worker accumulates into a private
   partial-centroid buffer (Cilk-reducer style, no locks). The fixed grain
   is what Figure 1 measures: Mix's 23 432 documents yield only ~3 chunks
   — a hard ~2.5-3x speedup ceiling — while NSF Abstracts' 101 483
   documents yield ~12 chunks and keep scaling to ~8x, matching the
   paper's observation that "as the number of documents grows, so does the
   parallel scalability";
2. *merge* — the worker-private partials are combined the way a Cilk
   reducer combines its views: a chain of (workers − 1) pairwise merges
   executed serially at the end of the parallel loop, each streaming the
   whole K×V buffer through memory. The chain *grows* with the worker
   count, which is why small data sets (Mix, whose assignment work is
   modest relative to K×V) stop scaling early while NSF Abstracts keeps
   climbing — exactly Figure 1;
3. *finalize* — divide by counts and refresh centroid norms, parallel over
   the K clusters only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost_model import (
    DEFAULT_COSTS,
    UNIT_SCALE,
    CostConstants,
    WorkloadScale,
)
from repro.errors import OperatorError
from repro.exec.inline import ExecutionBackend
from repro.exec.machine import MachineSpec
from repro.exec.metrics import Timeline
from repro.exec.scheduler import SimScheduler
from repro.exec.task import TaskCost
from repro.ops import kernels
from repro.sparse.matrix import CsrMatrix, csr_row_views

__all__ = ["KMeansResult", "KMeansOperator", "PHASE_KMEANS", "KMEANS_GRAIN_DOCS"]

PHASE_KMEANS = "kmeans"

#: Scheduling grain of the assignment loop, in full-scale documents.
KMEANS_GRAIN_DOCS = 8192


def _block_spans(n_blocks: int, workers: int) -> list[tuple[int, int]]:
    """Group block indices into ≤ ``8·workers`` contiguous spans.

    On the shm path each task covers a *span* of blocks, so the number of
    tasks per iteration — and with constant-size tokens, the pickled bytes
    per iteration — depends only on the worker count, never on how many
    blocks the document count produced. ~8 spans per worker keeps load
    balancing on par with one-task-per-block scheduling.
    """
    n_spans = min(n_blocks, 8 * workers)
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
    #: Virtual-time record (empty for functional runs).
    timeline: Timeline = field(default_factory=Timeline)
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


class _Prepared:
    """Per-document numpy views precomputed once (recycled across iters)."""

    __slots__ = ("arrays", "indices", "values", "sq_norms", "n_docs")

    def __init__(self, matrix: CsrMatrix) -> None:
        #: The flat CSR triple the views slice (what the shm plane places).
        self.arrays = matrix.as_arrays()
        self.indices, self.values = csr_row_views(*self.arrays)
        self.sq_norms: list[float] = [float(val @ val) for val in self.values]
        self.n_docs = matrix.n_rows


class KMeansOperator:
    """Sparse Lloyd's K-means with simulated-parallel execution."""

    def __init__(
        self,
        n_clusters: int = 8,
        max_iters: int = 10,
        seed: int = 0,
        costs: CostConstants = DEFAULT_COSTS,
        scale: WorkloadScale = UNIT_SCALE,
        grain_docs: int = KMEANS_GRAIN_DOCS,
        init: str = "spread",
    ) -> None:
        if n_clusters < 1:
            raise OperatorError(f"n_clusters must be >= 1, got {n_clusters}")
        if max_iters < 1:
            raise OperatorError(f"max_iters must be >= 1, got {max_iters}")
        if grain_docs < 1:
            raise OperatorError(f"grain_docs must be >= 1, got {grain_docs}")
        if init not in ("spread", "kmeans++"):
            raise OperatorError(
                f"init must be 'spread' or 'kmeans++', got {init!r}"
            )
        self.n_clusters = n_clusters
        self.max_iters = max_iters
        self.seed = seed
        self.costs = costs
        self.scale = scale
        self.grain_docs = grain_docs
        self.init = init

    # -- pieces -------------------------------------------------------------------

    def _init_centroids(self, matrix: CsrMatrix, prepared: _Prepared) -> np.ndarray:
        """Deterministic seeding, either evenly spread or k-means++.

        ``spread`` mirrors the paper-era practice of seeding from K
        documents spread through the input; ``kmeans++`` picks each next
        seed with probability proportional to its squared distance from
        the chosen ones, which is far more robust on clumpy data.
        """
        K = self.n_clusters
        if matrix.n_rows < K:
            raise OperatorError(
                f"need at least {K} documents, got {matrix.n_rows}"
            )
        if self.init == "spread":
            seeds = []
            stride = matrix.n_rows // K
            offset = self.seed % max(1, stride)
            for k in range(K):
                seeds.append(min(matrix.n_rows - 1, offset + k * stride))
        else:
            seeds = self._kmeanspp_seeds(matrix, prepared)
        centroids = np.zeros((K, matrix.n_cols), dtype=np.float64)
        for k, doc in enumerate(seeds):
            centroids[k, prepared.indices[doc]] = prepared.values[doc]
        return centroids

    def _kmeanspp_seeds(self, matrix: CsrMatrix, prepared: _Prepared) -> list[int]:
        """Deterministic k-means++ seeding (Arthur & Vassilvitskii 2007)."""
        rng = random.Random(self.seed)
        n_docs = matrix.n_rows
        seeds = [rng.randrange(n_docs)]
        # Squared distance of every document to its nearest chosen seed.
        nearest = np.full(n_docs, np.inf)
        for _ in range(1, self.n_clusters):
            last = seeds[-1]
            last_dense = np.zeros(matrix.n_cols)
            last_dense[prepared.indices[last]] = prepared.values[last]
            last_sq = prepared.sq_norms[last]
            for doc in range(n_docs):
                idx, val = prepared.indices[doc], prepared.values[doc]
                dot = float(last_dense[idx] @ val) if len(idx) else 0.0
                dist = max(0.0, prepared.sq_norms[doc] - 2.0 * dot + last_sq)
                if dist < nearest[doc]:
                    nearest[doc] = dist
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

    def _assign_block(
        self,
        prepared: _Prepared,
        doc_ids: range | list[int],
        centroids: np.ndarray,
        centroid_sq_norms: np.ndarray,
        partial: np.ndarray,
        counts: np.ndarray,
        assignments: list[int],
        cost: TaskCost,
    ) -> float:
        """Assign a block of documents; accumulate into worker partials.

        Returns the block's contribution to inertia and meters the block's
        virtual cost: ``nnz·K`` gather-FMA pairs plus the accumulate.
        """
        K = self.n_clusters
        inertia = 0.0
        nnz_total = 0
        for doc in doc_ids:
            idx = prepared.indices[doc]
            val = prepared.values[doc]
            nnz_total += len(idx)
            if len(idx):
                dots = centroids[:, idx] @ val
            else:
                dots = np.zeros(K)
            distances = prepared.sq_norms[doc] - 2.0 * dots + centroid_sq_norms
            best = int(np.argmin(distances))
            assignments[doc] = best
            inertia += float(max(0.0, distances[best]))
            partial[best, idx] += val
            counts[best] += 1
        cost.cpu_s += nnz_total * K * self.costs.kmeans_flop_ns * 1e-9
        cost.mem_bytes += nnz_total * K * self.costs.kmeans_flop_bytes
        cost.cpu_s += nnz_total * self.costs.centroid_accumulate_ns * 1e-9
        cost.mem_bytes += nnz_total * 16
        return inertia

    # -- simulated execution --------------------------------------------------------

    def run_simulated(
        self,
        scheduler: SimScheduler,
        matrix: CsrMatrix,
        workers: int | None = None,
        phase_name: str = PHASE_KMEANS,
    ) -> KMeansResult:
        """Cluster ``matrix`` rows, accounting virtual time per iteration."""
        machine: MachineSpec = scheduler.machine
        T = machine.effective_workers(workers)
        K = self.n_clusters
        V = matrix.n_cols
        timeline = Timeline()

        prepared = _Prepared(matrix)
        centroids = self._init_centroids(matrix, prepared)
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        if self.init == "kmeans++":
            # Seeding makes K serial passes over all documents.
            total_nnz = sum(len(idx) for idx in prepared.indices)
            timeline.add(
                scheduler.serial_phase(
                    TaskCost(
                        cpu_s=K * total_nnz * self.costs.kmeans_flop_ns * 1e-9,
                        mem_bytes=K * total_nnz * self.costs.kmeans_flop_bytes,
                    ).scaled(self.scale.doc_factor),
                    name=phase_name,
                )
            )

        # Chunk the document loop at the operator's fixed grain. The grain
        # is defined in full-scale documents, so a scaled-down corpus is
        # chunked proportionally (same chunk count as the full corpus).
        actual_grain = max(1, round(self.grain_docs / self.scale.doc_factor))
        blocks = [
            list(range(start, min(start + actual_grain, prepared.n_docs)))
            for start in range(0, prepared.n_docs, actual_grain)
        ]
        n_views = min(T, len(blocks))

        # Recycled buffers: one partial per active reducer view.
        partials = [np.zeros((K, V), dtype=np.float64) for _ in range(n_views)]
        counts = [np.zeros(K, dtype=np.int64) for _ in range(n_views)]
        assignments = [-1] * prepared.n_docs
        previous = list(assignments)

        inertia = 0.0
        converged = False
        n_iters = 0
        inertia_history: list[float] = []
        for _ in range(self.max_iters):
            n_iters += 1
            for partial, count in zip(partials, counts):
                partial.fill(0.0)
                count.fill(0)

            # 1. Parallel assignment: one scheduled task per chunk,
            # accumulating into the owning view's partial buffer.
            assign_costs = [TaskCost() for _ in range(len(blocks))]
            inertia = 0.0
            for chunk_id, block in enumerate(blocks):
                inertia += self._assign_block(
                    prepared,
                    block,
                    centroids,
                    centroid_sq_norms,
                    partials[chunk_id % n_views],
                    counts[chunk_id % n_views],
                    assignments,
                    assign_costs[chunk_id],
                )
            inertia_history.append(inertia)
            timeline.add(
                scheduler.simulate_phase(
                    [c.scaled(self.scale.doc_factor) for c in assign_costs],
                    workers=T,
                    name=phase_name,
                )
            )

            # 2. Reducer combine: a serial chain of (views - 1) pairwise
            # merges, as a Cilk reducer performs at the sync point. The
            # chain grows with the number of active views — K-means'
            # Amdahl term.
            for view in range(1, n_views):
                partials[0] += partials[view]
                counts[0] += counts[view]
            if n_views > 1:
                merge_chain = TaskCost(
                    cpu_s=(n_views - 1) * K * V * self.costs.centroid_merge_ns * 1e-9,
                    mem_bytes=(n_views - 1) * K * V * self.costs.centroid_merge_bytes,
                ).scaled(self.scale.vocab_factor)
                timeline.add(scheduler.serial_phase(merge_chain, name=phase_name))

            # 3. Finalize centroids (parallel over the K clusters only).
            merged, merged_counts = partials[0], counts[0]
            finalize_costs = []
            for k in range(K):
                if merged_counts[k] > 0:
                    centroids[k] = merged[k] / merged_counts[k]
                # Empty cluster: previous centroid is kept (recycled buffer).
                finalize_costs.append(
                    TaskCost(
                        cpu_s=V * self.costs.centroid_finalize_ns * 1e-9,
                        mem_bytes=V * 16,
                    )
                )
            centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
            timeline.add(
                scheduler.simulate_phase(
                    [c.scaled(self.scale.vocab_factor) for c in finalize_costs],
                    workers=min(T, K),
                    name=phase_name,
                )
            )

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
            timeline=timeline,
            inertia_history=inertia_history,
        )

    # -- functional execution ---------------------------------------------------------

    def fit(
        self, matrix: CsrMatrix, backend: ExecutionBackend | None = None
    ) -> KMeansResult:
        """Cluster without caring about timings (single simulated core).

        With a ``backend``, Lloyd's iterations run for real on it (wall
        clock, no virtual-time accounting): the assignment loop is split
        into fixed blocks whose partial centroid accumulators are merged
        in block order, so assignments and centroids are bit-identical
        across backends and worker counts.

        A :class:`~repro.tiles.matrix.TiledCsrMatrix` dispatches to the
        streaming path automatically — the matrix form, not the plan,
        decides how the data is read.
        """
        from repro.tiles.matrix import TiledCsrMatrix

        if isinstance(matrix, TiledCsrMatrix):
            return self._fit_tiled(matrix, backend)
        if backend is not None:
            return self._fit_backend(matrix, backend)
        scheduler = SimScheduler(MachineSpec(cores=1, name="functional"))
        return self.run_simulated(scheduler, matrix, workers=1)

    def _fit_backend(
        self, matrix: CsrMatrix, backend: ExecutionBackend
    ) -> KMeansResult:
        backend.begin_phase(PHASE_KMEANS)
        prepared = _Prepared(matrix)
        centroids = self._init_centroids(matrix, prepared)
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)

        # Block bounds depend only on the document count (not on the
        # backend's worker count): floating-point accumulation order is
        # fixed, which is what makes the output backend-invariant. At
        # most 64 blocks keeps the per-task centroid shipping bounded.
        n_docs = prepared.n_docs
        grain = max(32, -(-n_docs // 64))
        bounds = [
            (start, min(start + grain, n_docs))
            for start in range(0, n_docs, grain)
        ]

        if backend.uses_shm:
            return self._fit_shm(
                matrix, backend, prepared, centroids, centroid_sq_norms, bounds
            )

        backend.configure(
            kernels.init_kmeans_worker,
            (prepared.indices, prepared.values, prepared.sq_norms),
        )

        def run_iteration(centroids, centroid_sq_norms):
            # The dense K×V centroid array rides inside every block task —
            # the per-iteration IPC the shm path eliminates.
            tasks = [
                (start, stop, centroids, centroid_sq_norms)
                for start, stop in bounds
            ]
            return backend.map(kernels.assign_chunk, tasks, grain=1)

        return self._lloyd(bounds, centroids, centroid_sq_norms, run_iteration)

    def _fit_tiled(
        self, matrix, backend: ExecutionBackend | None
    ) -> KMeansResult:
        """Lloyd's streaming spilled tiles: peak memory O(tile + centroids).

        Nothing about the arithmetic changes — the block bounds formula,
        the per-block assignment kernel, and the fixed block-order merge
        are exactly the in-memory path's; only the block *fetch* differs
        (mapped tile views instead of a resident ``_Prepared``, with the
        squared norms read from the tiles where they were precomputed at
        write time). Workers receive the picklable tile manifest instead
        of matrix bytes, so there is no per-fit matrix IPC at all, and
        the shm plane is unnecessary — the tile files *are* the shared
        plane, whatever the backend.
        """
        if backend is None:
            return self._fit_tiled_inline(matrix)

        centroids = self._init_centroids_tiled(matrix)
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)

        # Same bounds as _fit_backend: they depend only on the document
        # count, which is what keeps tiled output bit-identical.
        n_docs = matrix.n_rows
        grain = max(32, -(-n_docs // 64))
        bounds = [
            (start, min(start + grain, n_docs))
            for start in range(0, n_docs, grain)
        ]

        backend.begin_phase(PHASE_KMEANS)
        backend.configure(
            kernels.init_kmeans_worker_tiled,
            (matrix.manifest, matrix.memory_budget),
        )

        def run_iteration(centroids, centroid_sq_norms):
            tasks = [
                (start, stop, centroids, centroid_sq_norms)
                for start, stop in bounds
            ]
            return backend.map(kernels.assign_chunk_tiled, tasks, grain=1)

        return self._lloyd(bounds, centroids, centroid_sq_norms, run_iteration)

    def _fit_tiled_inline(self, matrix) -> KMeansResult:
        """Streaming Lloyd's replicating the inline untiled arithmetic.

        The inline (no-backend) untiled fit runs through the simulated
        scheduler at one core: one reducer view, so a *single* partial
        buffer accumulated document-by-document across blocks of
        ``grain_docs`` documents, with inertia summed per block. This
        loop replicates that accumulation order exactly — a running
        buffer/scalar is invariant to how the documents are fetched — so
        streaming small tile chunks still produces output bit-identical
        to the in-memory inline path.
        """
        K = self.n_clusters
        n_docs = matrix.n_rows
        centroids = self._init_centroids_tiled(matrix)
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        actual_grain = max(1, round(self.grain_docs / self.scale.doc_factor))
        blocks = [
            (start, min(start + actual_grain, n_docs))
            for start in range(0, n_docs, actual_grain)
        ]
        stream = 1024

        partial = np.zeros_like(centroids)
        counts = np.zeros(K, dtype=np.int64)
        assignments = [-1] * n_docs
        previous = list(assignments)
        inertia = 0.0
        converged = False
        n_iters = 0
        inertia_history: list[float] = []
        for _ in range(self.max_iters):
            n_iters += 1
            partial.fill(0.0)
            counts.fill(0)
            inertia = 0.0
            for block_start, block_stop in blocks:
                block_inertia = 0.0
                for start in range(block_start, block_stop, stream):
                    stop = min(block_stop, start + stream)
                    doc_idx, doc_val, sq_norms = matrix.block_arrays(start, stop)
                    for local in range(stop - start):
                        idx = doc_idx[local]
                        val = doc_val[local]
                        if len(idx):
                            dots = centroids[:, idx] @ val
                        else:
                            dots = np.zeros(K)
                        distances = (
                            sq_norms[local] - 2.0 * dots + centroid_sq_norms
                        )
                        best = int(np.argmin(distances))
                        assignments[start + local] = best
                        block_inertia += float(max(0.0, distances[best]))
                        partial[best, idx] += val
                        counts[best] += 1
                inertia += block_inertia
            inertia_history.append(inertia)

            for k in range(K):
                if counts[k] > 0:
                    centroids[k] = partial[k] / counts[k]
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

    def _init_centroids_tiled(self, matrix) -> np.ndarray:
        """:meth:`_init_centroids` reading seed rows from tiles.

        ``spread`` needs exactly K rows; ``kmeans++`` streams its K
        distance passes block-at-a-time. Seed selection and centroid
        values replicate the in-memory arithmetic double-for-double.
        """
        K = self.n_clusters
        if matrix.n_rows < K:
            raise OperatorError(
                f"need at least {K} documents, got {matrix.n_rows}"
            )
        if self.init == "spread":
            seeds = []
            stride = matrix.n_rows // K
            offset = self.seed % max(1, stride)
            for k in range(K):
                seeds.append(min(matrix.n_rows - 1, offset + k * stride))
        else:
            seeds = self._kmeanspp_seeds_tiled(matrix)
        centroids = np.zeros((K, matrix.n_cols), dtype=np.float64)
        for k, doc in enumerate(seeds):
            row = matrix.row(doc)
            centroids[k, np.asarray(row.indices, dtype=np.intp)] = row.values
        return centroids

    def _kmeanspp_seeds_tiled(self, matrix) -> list[int]:
        """:meth:`_kmeanspp_seeds` with block-streamed distance passes."""
        rng = random.Random(self.seed)
        n_docs = matrix.n_rows
        seeds = [rng.randrange(n_docs)]
        nearest = np.full(n_docs, np.inf)
        block = 1024
        for _ in range(1, self.n_clusters):
            last = seeds[-1]
            row = matrix.row(last)
            last_dense = np.zeros(matrix.n_cols)
            last_dense[np.asarray(row.indices, dtype=np.intp)] = row.values
            last_sq = matrix.sq_norm(last)
            for start in range(0, n_docs, block):
                stop = min(n_docs, start + block)
                doc_idx, doc_val, sq_norms = matrix.block_arrays(start, stop)
                for local in range(stop - start):
                    idx, val = doc_idx[local], doc_val[local]
                    dot = float(last_dense[idx] @ val) if len(idx) else 0.0
                    dist = max(0.0, sq_norms[local] - 2.0 * dot + last_sq)
                    doc = start + local
                    if dist < nearest[doc]:
                        nearest[doc] = dist
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

    def _fit_shm(
        self,
        matrix: CsrMatrix,
        backend: ExecutionBackend,
        prepared: _Prepared,
        centroids: np.ndarray,
        centroid_sq_norms: np.ndarray,
        bounds: list[tuple[int, int]],
    ) -> KMeansResult:
        """Lloyd's on the shared-memory data plane.

        The prepared matrix is *placed* once (workers attach zero-copy in
        the initializer instead of receiving a pickled copy), and each
        iteration's centroids are *broadcast* once into a double-buffered
        segment — block tasks shrink to ``(first, last, generation)``
        tokens, so per-iteration pickled bytes are independent of both
        the block count and the K×V centroid size.
        """
        indptr, flat_indices, flat_values = prepared.arrays
        shared = backend.share_arrays(
            "kmeans-matrix",
            {
                "indptr": indptr,
                "indices": flat_indices,
                "values": flat_values,
                "sq_norms": np.asarray(prepared.sq_norms, dtype=np.float64),
            },
        )
        channel = backend.open_broadcast(
            "kmeans-centroids", (centroids, centroid_sq_norms)
        )
        spans = _block_spans(len(bounds), backend.workers)
        try:
            backend.configure(
                kernels.init_kmeans_worker_shm,
                (shared.descriptor(), channel.descriptor(), tuple(bounds)),
            )

            def run_iteration(centroids, centroid_sq_norms):
                generation = backend.broadcast(
                    channel, (centroids, centroid_sq_norms)
                )
                tasks = [(first, last, generation) for first, last in spans]
                span_results = backend.map(
                    kernels.assign_block_span, tasks, grain=1
                )
                # Flatten spans back to per-block results: the merge below
                # must see the exact block sequence of the non-shm path.
                return [block for span in span_results for block in span]

            return self._lloyd(bounds, centroids, centroid_sq_norms, run_iteration)
        finally:
            # The segments outlive the pool generation (configure recycles
            # pools without touching them) but not the fit; the backend's
            # close() would also unlink them as a crash-path backstop.
            channel.close()
            shared.close()

    def _lloyd(
        self,
        bounds: list[tuple[int, int]],
        centroids: np.ndarray,
        centroid_sq_norms: np.ndarray,
        run_iteration,
    ) -> KMeansResult:
        """The iteration loop shared by the shm and pickled-task paths.

        ``run_iteration(centroids, centroid_sq_norms)`` returns one
        result per block, in block order; everything else — the fixed
        block-order merge, finalize, convergence — is identical, which
        is what makes the two paths bit-identical.
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
            block_results = run_iteration(centroids, centroid_sq_norms)

            # Merge in fixed block order (deterministic float grouping).
            merged.fill(0.0)
            merged_counts = np.zeros(K, dtype=np.int64)
            inertia = 0.0
            for (start, _), (
                block_assign, cells, partial, counts, block_inertia
            ) in zip(bounds, block_results):
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
