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
from itertools import count

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
from repro.sparse.matrix import CsrMatrix

__all__ = ["KMeansResult", "KMeansOperator", "PHASE_KMEANS", "KMEANS_GRAIN_DOCS"]

PHASE_KMEANS = "kmeans"

#: Scheduling grain of the assignment loop, in full-scale documents.
KMEANS_GRAIN_DOCS = 8192


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


#: Rows fetched from a block source at a time by the serial passes (the
#: reference loop, k-means++ seeding): bounds what a tiled source pins.
_STREAM_ROWS = 1024


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

    def _assign_block(
        self,
        source,
        start: int,
        stop: int,
        centroids: np.ndarray,
        centroid_sq_norms: np.ndarray,
        partial: np.ndarray,
        counts: np.ndarray,
        assignments: list[int],
        cost: TaskCost,
    ) -> float:
        """Assign documents ``[start, stop)``; accumulate into worker
        partials, a document at a time.

        Returns the block's contribution to inertia and meters the block's
        virtual cost: ``nnz·K`` gather-FMA pairs plus the accumulate. The
        rows are fetched ``_STREAM_ROWS`` at a time; a running buffer and
        a running sum do not care how the documents arrive.
        """
        K = self.n_clusters
        inertia = 0.0
        nnz_total = 0
        for at in range(start, stop, _STREAM_ROWS):
            doc_idx, doc_val, sq_norms = source.block_arrays(
                at, min(stop, at + _STREAM_ROWS)
            )
            for local, (idx, val) in enumerate(zip(doc_idx, doc_val)):
                nnz_total += len(idx)
                if len(idx):
                    dots = centroids[:, idx] @ val
                else:
                    dots = np.zeros(K)
                distances = sq_norms[local] - 2.0 * dots + centroid_sq_norms
                best = int(np.argmin(distances))
                assignments[at + local] = best
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
        """Cluster ``matrix`` rows, accounting virtual time per iteration.

        The simulator behind Figure 1, and — at one core — the reference
        every real fit is held to. It reads rows through the matrix's
        block source, so a resident and a tiled matrix run this one loop.
        """
        machine: MachineSpec = scheduler.machine
        T = machine.effective_workers(workers)
        K = self.n_clusters
        V = matrix.n_cols
        timeline = Timeline()

        source = matrix.block_source()
        n_docs = source.n_rows
        centroids = self._init_centroids(source)
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        if self.init == "kmeans++":
            # Seeding makes K serial passes over all documents.
            total_nnz = matrix.nnz
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
            (start, min(start + actual_grain, n_docs))
            for start in range(0, n_docs, actual_grain)
        ]
        n_views = min(T, len(blocks))

        # Recycled buffers: one partial per active reducer view.
        partials = [np.zeros((K, V), dtype=np.float64) for _ in range(n_views)]
        counts = [np.zeros(K, dtype=np.int64) for _ in range(n_views)]
        assignments = [-1] * n_docs
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
            for chunk_id, (start, stop) in enumerate(blocks):
                inertia += self._assign_block(
                    source,
                    start,
                    stop,
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
        """Cluster without caring about timings.

        Without a ``backend`` this is :meth:`run_simulated` on a single
        simulated core — the inline reference. With one, Lloyd's
        iterations run for real on it (wall clock, no virtual-time
        accounting): seed, place, iterate. The matrix's block source is
        *placed* once for the backend's workers — a resident matrix puts
        its CSR triple and norms on the array plane (a shared segment, a
        by-value copy, or the parent's own arrays in-process), a
        :class:`~repro.tiles.matrix.TiledCsrMatrix` hands over its
        manifest — and each iteration's centroids are *broadcast* once, so
        tasks are ``(slot, first_block, last_block, token)`` spans. Block
        results come back through a *gather* channel (by reference
        in-process, written into a shared arena by pool workers, by value
        without shared memory). The block bounds depend only on the
        document count and the per-block partials are merged in block
        order, so assignments and centroids are bit-identical across
        backends, worker counts, transports and matrix forms.
        """
        if backend is None:
            scheduler = SimScheduler(MachineSpec(cores=1, name="functional"))
            return self.run_simulated(scheduler, matrix, workers=1)

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
        channel = backend.open_broadcast(
            "kmeans-centroids", (centroids, centroid_sq_norms)
        )
        gather = backend.open_gather("kmeans-partials", gather_slots)
        try:
            backend.configure(
                kernels.init_kmeans_worker,
                (slot, placed.descriptor(), channel.descriptor(), tuple(bounds),
                 gather.descriptor()),
            )

            def run_iteration(centroids, centroid_sq_norms):
                token = backend.broadcast(channel, (centroids, centroid_sq_norms))
                span_results = backend.map(
                    kernels.assign_block_span,
                    [(slot, first, last, token) for first, last in spans],
                    grain=1,
                )
                # Flatten spans back to per-block results: the merge
                # sees the block sequence, whatever the span grouping.
                # Views into a shared arena are merged before the next
                # iteration's tasks rewrite them.
                results = []
                for block, returned in enumerate(
                    part for span in span_results for part in span
                ):
                    best, cells, partial, counts, inertia = gather.take(
                        block, returned
                    )
                    results.append(
                        (best.tolist(), cells, partial, counts, float(inertia[0]))
                    )
                return results

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

        ``run_iteration(centroids, centroid_sq_norms)`` returns one
        result per block, in block order; the fixed block-order merge,
        finalize and convergence test live here and nowhere else.
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
