"""Picklable chunk kernels for the real execution backends.

Every function here is module-level so a :class:`~repro.exec.process.ProcessBackend`
can ship it to worker processes by reference. Phase-constant state
(tokenizer, k-means block source) is installed once per worker by the
``init_*`` functions — dispatched through
:meth:`~repro.exec.inline.ExecutionBackend.configure` — and read back from
a module-level slot by the chunk kernels, so each submitted task carries
only its chunk of data. The transform holds no worker state at all: its
task *is* its input. In-process backends (sequential, threads) run the
same initializers and kernels against the parent's copy of the slot, which
keeps a single code path across all backends — and across the forms the
k-means rows come in: the worker resolves a *block source* and asks it
for ``block_arrays(start, stop)``.

The kernels use plain builtin dicts and numpy internally (instrumented
dictionaries would only be pickling dead weight across the IPC boundary)
but replicate the legacy operators' arithmetic exactly — same term
counts, same ``count * idf`` products, same sort orders, same centroid
accumulation grouping — so operator output is byte-identical across
backends and against the inline reference path.
"""

from __future__ import annotations

import threading
from itertools import compress, count

import numpy as np

from repro.sparse.blocks import TermBlock, sorted_unique
from repro.text.tokenizer import Tokenizer

__all__ = [
    "init_wordcount_worker",
    "count_chunk",
    "transform_chunk",
    "init_kmeans_worker",
    "release_kmeans_worker",
    "assign_block_span",
]

#: Per-worker state installed by the ``init_*`` functions. Keyed by phase
#: so a backend reconfigured mid-workflow cannot read stale state of a
#: different kernel family.
_STATE: dict[str, tuple] = {}


# -- word count (TF/IDF phase 1) ------------------------------------------------------


def init_wordcount_worker(tokenizer: Tokenizer) -> None:
    """Install the tokenizer (with its stopword/length config) once."""
    _STATE["wordcount"] = (tokenizer,)


def count_chunk(texts: list[str]) -> TermBlock:
    """Count one chunk of documents into one columnar chunk block.

    No per-document object is built. (1) Every document is split and its
    words interned into one chunk-wide id stream: ``setdefault`` hands a
    new word the next ticket of a shared counter, a known word its first
    one, at C speed — document by document, so the word strings die as
    they are interned. (2) The tokenizer's filter runs once per *distinct*
    word; occurrences of a dropped word are marked ``-1`` through the
    table that also makes the tickets dense. (3, 4) The numeric grouping
    — one integer sort, one run-length encode — is
    :meth:`TermBlock.from_tokens`. Terms stay in first-seen order: the
    parent's :meth:`TermBlock.concat` sorts the union once.
    """
    (tokenizer,) = _STATE["wordcount"]
    split = tokenizer.split
    tickets: dict[str, int] = {}
    intern = tickets.setdefault
    ticket = count()
    stream: list[int] = []
    ends: list[int] = []
    for text in texts:
        stream.extend(map(intern, split(text), ticket))
        ends.append(len(stream))
    keep = np.fromiter(map(tokenizer.keeps, tickets), dtype=bool, count=len(tickets))
    dense = np.empty(next(ticket), dtype=np.int64)
    dense[np.fromiter(tickets.values(), dtype=np.int64, count=len(tickets))] = (
        np.where(keep, np.cumsum(keep) - 1, -1)
    )
    ids = dense[np.fromiter(stream, dtype=np.int64, count=len(stream))]
    return TermBlock.from_tokens(list(compress(tickets, keep.tolist())), ids, ends)


# -- TF/IDF transform (phase 2a) ------------------------------------------------------


def transform_chunk(
    block: TermBlock,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized TF/IDF rows of a bound block, as one CSR block.

    A pure function of its argument (``block.gmap``: term → vocabulary
    id, ``-1`` = pruned below ``min_df``; ``block.weights``: term → idf).
    Mirrors :meth:`repro.ops.tfidf.TfIdfOperator.transform_document`
    double for double: ``count * idf`` products, rows sorted by
    vocabulary id (block rows are sorted by term, and so is the
    vocabulary), and a squared norm summed left to right per row — a
    Python ``sum`` over a list slice, because numpy's pairwise reductions
    round differently. The result is bit-identical to the inline path.
    """
    ids = block.ids
    indices = block.gmap[ids]
    data = block.counts * block.weights[ids]
    indptr = block.indptr
    kept = indices >= 0
    if not kept.all():
        survivors = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(kept, out=survivors[1:])
        indptr, indices, data = survivors[indptr], indices[kept], data[kept]
    bounds = indptr.tolist()
    squares = (data * data).tolist()
    norms = np.array(
        [sum(squares[a:b]) ** 0.5 for a, b in zip(bounds[:-1], bounds[1:])]
    )
    norms[norms == 0.0] = 1.0  # the zero vector normalises to itself
    data *= np.repeat(1.0 / norms, np.diff(indptr))
    return indptr, indices, data


# -- K-means assignment ----------------------------------------------------------------


#: K-means worker state per fit, keyed by the fit's slot (every task
#: names its slot). A pool worker only ever holds its own fit's; the
#: in-process backends install into the parent's copy, where several
#: fits — one per calling thread — may be live at once.
_KMEANS: dict[int, tuple] = {}


def init_kmeans_worker(
    slot: int, source_descriptor, channel_descriptor, bounds
) -> None:
    """Resolve the placed block source once per worker (per fit).

    ``source_descriptor`` is what ``source.place(backend).descriptor()``
    returned: in the placing process it resolves to the caller's own
    source (resident rows, or the tiled matrix with its one budgeted
    reader), in a pool worker to views over a shared segment, a by-value
    copy, or a read-only mapping of the tile files — the kernel below
    never learns which. ``channel_descriptor``/``bounds`` equip
    :func:`assign_block_span` to read each iteration's centroids and
    walk its blocks. Whatever the slot held before is released first.
    """
    release_kmeans_worker(slot)
    _KMEANS[slot] = (
        source_descriptor,
        source_descriptor.resolve(),
        channel_descriptor,
        tuple(bounds),
    )


def release_kmeans_worker(slot: int) -> None:
    """Drop a slot's state, closing the source if this worker rebuilt it
    (tile readers unmap, shm attachments detach); a source the caller
    placed in this very process stays the caller's."""
    state = _KMEANS.pop(slot, None)
    if state is not None:
        source_descriptor, source = state[:2]
        source_descriptor.release(source)


def assign_block_span(
    task: tuple[int, int, int, object]
) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray, float]]:
    """Assign a span of blocks against the iteration's centroids.

    ``task`` is ``(slot, first_block, last_block, token)``: the centroids
    come out of the broadcast channel (``token`` is a generation number
    on the in-process and shared-memory planes, the arrays themselves on
    the by-value one), and each block's per-document index/value views
    and squared norms out of the worker's block source. The span returns
    one result *per block* — its assignments, its compact partial
    centroids (touched cell ids + their values, see
    :func:`_assign_block`), per-cluster counts and inertia contribution.
    Blocks are never merged worker-side and the caller merges them in
    fixed block order, so the floating-point result does not depend on
    the backend, the worker count, or where the rows live.
    """
    slot, first, last, token = task
    _, source, channel, bounds = _KMEANS[slot]
    centroids, centroid_sq_norms = channel.read(token)
    results = []
    for start, stop in bounds[first:last]:
        indices, values, sq_norms = source.block_arrays(start, stop)
        results.append(
            _assign_block(
                0, stop - start, centroids, centroid_sq_norms,
                indices, values, sq_norms,
            )
        )
    return results


#: Per-thread recycled K×V partial-centroid accumulator, flat (paper
#: §3.1: "allocated once and reused every iteration"). Thread-local, so
#: every worker — a pool process, a ``ThreadBackend`` thread, the caller
#: of a sequential backend — owns exactly one, across blocks, iterations
#: and fits. It is all-zero whenever no block is running on the thread.
_SCRATCH = threading.local()


def _accumulator(size: int) -> np.ndarray:
    """The calling thread's accumulator; re-allocated only on a new K·V."""
    buffer = getattr(_SCRATCH, "accumulator", None)
    if buffer is None or buffer.size != size:
        buffer = _SCRATCH.accumulator = np.zeros(size, dtype=np.float64)
    return buffer


def _assign_block(
    start: int,
    stop: int,
    centroids: np.ndarray,
    centroid_sq_norms: np.ndarray,
    indices,
    values,
    sq_norms,
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, float]:
    """Assign one block; return its partial centroids in compact form.

    Only the dot products run per document; distances, ``argmin``,
    counts, inertia and the accumulation are computed for the block at
    once. The block accumulates into the thread's recycled K×V buffer
    with the per-cell order a fresh dense buffer would see
    (``np.add.at`` is unbuffered and adds in element order, which is
    document order), then ships only what it touched: ``cells`` (sorted
    flat ids ``cluster · V + column`` of the cells some document of the
    block was added to — at most the block's nnz) and the buffer's values
    there. Scatter-adding those (``merged.reshape(-1)[cells] += partial``)
    is bit-identical to adding the dense buffer, whose every other cell
    is ``+0.0``. The buffer is zeroed again at ``cells`` on the way out,
    and wholesale if anything raises mid-block.
    """
    K, V = centroids.shape
    accumulator = _accumulator(K * V)
    block_indices = indices[start:stop]
    block_values = values[start:stop]
    n_docs = stop - start
    dots = np.zeros((n_docs, K))
    try:
        for row, (idx, val) in enumerate(zip(block_indices, block_values)):
            if len(idx):
                # Frozen: the memory layout of the fancy-indexed gather
                # selects the gemv kernel, so ``centroids.take(idx, 1)``,
                # a transposed gather or a block-wide gather sliced per
                # document all differ from this in the last bits.
                dots[row] = centroids[:, idx] @ val
        distances = (
            np.asarray(sq_norms[start:stop], dtype=np.float64)[:, None]
            - 2.0 * dots + centroid_sq_norms
        )
        best = np.argmin(distances, axis=1)
        nearest = distances[np.arange(n_docs), best]
        # max(0.0, d) per document (NaN -> 0.0, which np.maximum is not),
        # summed left to right as floats.
        inertia = 0.0
        for distance in np.where(nearest > 0.0, nearest, 0.0).tolist():
            inertia += distance
        lengths = np.fromiter(map(len, block_indices), dtype=np.int64, count=n_docs)
        touched = np.concatenate(
            [np.empty(0, dtype=np.intp), *block_indices]
        ) + np.repeat(best * V, lengths)
        np.add.at(
            accumulator, touched, np.concatenate([np.empty(0), *block_values])
        )
        cells = sorted_unique(touched)
        partial = accumulator[cells]
    except BaseException:
        accumulator.fill(0.0)
        raise
    accumulator[cells] = 0.0
    return best.tolist(), cells, partial, np.bincount(best, minlength=K), inertia
