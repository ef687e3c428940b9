"""Picklable chunk kernels for the real execution backends.

Every function here is module-level so a :class:`~repro.exec.process.ProcessBackend`
can ship it to worker processes by reference. Phase-constant state
(tokenizer, vocabulary, prepared matrix) is installed once per worker by
the ``init_*`` functions — dispatched through
:meth:`~repro.exec.inline.ExecutionBackend.configure` — and read back from
a module-level slot by the chunk kernels, so each submitted task carries
only its chunk of data. In-process backends (sequential, threads) run the
same initializers and kernels against the parent's copy of the slot, which
keeps a single code path across all backends.

The kernels use plain builtin dicts and numpy internally (instrumented
dictionaries would only be pickling dead weight across the IPC boundary)
but replicate the legacy operators' arithmetic exactly — same term
counts, same ``count * idf`` products, same sort orders, same centroid
accumulation grouping — so operator output is byte-identical across
backends and against the inline reference path.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np

from repro.errors import OperatorError
from repro.sparse.vector import SparseVector
from repro.text.tokenizer import Tokenizer

__all__ = [
    "init_wordcount_worker",
    "count_chunk",
    "init_transform_worker",
    "init_transform_worker_shm",
    "transform_chunk",
    "init_fused_worker",
    "count_chunk_resident",
    "transform_flush",
    "count_transform_chunk",
    "init_kmeans_worker",
    "init_kmeans_worker_shm",
    "init_kmeans_worker_tiled",
    "assign_chunk",
    "assign_chunk_tiled",
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


def count_chunk(
    texts: list[str],
) -> tuple[list[list[tuple[str, int]]], list[int], list[tuple[str, int]]]:
    """Count one chunk of documents.

    Returns per-document sorted term-frequency entries, per-document token
    counts, and the chunk's partial document-frequency table (sorted
    entries) — one pickle for the whole chunk on the way back.
    """
    (tokenizer,) = _STATE["wordcount"]
    doc_entries: list[list[tuple[str, int]]] = []
    token_counts: list[int] = []
    df: Counter[str] = Counter()
    for text in texts:
        tokens = tokenizer.tokenize(text).tokens
        tf = Counter(tokens)
        doc_entries.append(sorted(tf.items()))
        token_counts.append(len(tokens))
        df.update(tf.keys())
    return doc_entries, token_counts, sorted(df.items())


# -- TF/IDF transform (phase 2a) ------------------------------------------------------


def init_transform_worker(
    vocabulary: list[str], idf: list[float], min_df: int
) -> None:
    """Build the term → id index once per worker from the vocabulary."""
    index = {term: term_id for term_id, term in enumerate(vocabulary)}
    _STATE["transform"] = (index, idf, min_df)


def init_transform_worker_shm(descriptor, min_df: int) -> None:
    """Rebuild the vocabulary/idf snapshot from a shared segment.

    ``descriptor`` resolves (zero-copy) to the vocabulary packed as one
    UTF-8 blob with cumulative end offsets plus the idf table; the strings
    and Python floats are reconstructed locally — identical values to the
    pickled initargs they replace — and handed to
    :func:`init_transform_worker`, so :func:`transform_chunk` is untouched.
    """
    arrays = descriptor.resolve()
    raw = arrays["vocab_blob"].tobytes()
    vocabulary: list[str] = []
    start = 0
    for end in arrays["vocab_ends"]:
        end = int(end)
        vocabulary.append(raw[start:end].decode("utf-8"))
        start = end
    init_transform_worker(vocabulary, arrays["idf"].tolist(), min_df)


def transform_chunk(
    chunk: list[list[tuple[str, int]]]
) -> list[SparseVector]:
    """Normalized TF/IDF vectors for one chunk of TF entry lists.

    Mirrors :meth:`repro.ops.tfidf.TfIdfOperator.transform_document`
    term-for-term: same ``count * idf`` products, same sort, same
    normalization — the output is bit-identical to the inline path.
    """
    index, idf, min_df = _STATE["transform"]
    vectors: list[SparseVector] = []
    for entries in chunk:
        pairs: list[tuple[int, float]] = []
        for term, count in entries:
            term_id = index.get(term)
            if term_id is None:
                if min_df > 1:
                    continue  # pruned below the document-frequency cutoff
                raise OperatorError(f"term {term!r} missing from vocabulary index")
            pairs.append((term_id, count * idf[term_id]))
        pairs.sort()
        vector = SparseVector(
            [term_id for term_id, _ in pairs], [score for _, score in pairs]
        )
        vectors.append(vector.normalized())
    return vectors


# -- fused wc→transform (worker-resident intermediates) -------------------------------

#: Per-worker store of counted-but-not-yet-transformed chunks, keyed by
#: chunk id. Filled by :func:`count_chunk_resident` during the fused
#: word-count phase and drained by :func:`transform_flush` — the per-doc
#: term-frequency entries never cross the IPC boundary.
_RESIDENT: dict[int, list[list[tuple[str, int]]]] = {}

#: Decoded vocabulary state per shared segment, so a worker that flushes
#: many chunks decodes the vocab blob exactly once.
_FUSED_VOCAB: dict[str, tuple] = {}


def init_fused_worker(tokenizer: Tokenizer, min_df: int) -> None:
    """Install tokenizer + min_df and reset the resident store (per run)."""
    _STATE["fused"] = (tokenizer, min_df)
    _STATE["wordcount"] = (tokenizer,)
    _RESIDENT.clear()
    _FUSED_VOCAB.clear()


def count_chunk_resident(
    task: tuple[int, list[str]]
) -> tuple[int, list[int], list[tuple[str, int]]]:
    """Count one chunk, keeping the per-doc TF entries worker-resident.

    Identical counting arithmetic to :func:`count_chunk`, but the
    corpus-sized ``doc_entries`` stay in :data:`_RESIDENT` under the chunk
    id instead of being pickled back: only the (much smaller) token counts
    and partial document-frequency table return to the parent, which is
    all it needs to build the vocabulary.
    """
    chunk_id, texts = task
    doc_entries, token_counts, df_entries = count_chunk(texts)
    _RESIDENT[chunk_id] = doc_entries
    return chunk_id, token_counts, df_entries


def _install_fused_vocab(descriptor) -> None:
    """Point ``_STATE['transform']`` at the vocabulary for this flush.

    ``descriptor`` is ``None`` on in-process backends (the parent already
    configured the transform state directly); on the process backend it is
    the tiny shm descriptor riding inside each flush task — shipping it
    per task instead of via ``configure`` is what keeps the worker pool
    (and with it the resident store) alive between the two fused phases.
    """
    if descriptor is None:
        if "transform" not in _STATE:
            raise OperatorError("fused flush before transform state installed")
        return
    cached = _FUSED_VOCAB.get(descriptor.segment)
    if cached is None:
        _, min_df = _STATE["fused"]
        init_transform_worker_shm(descriptor, min_df)
        _FUSED_VOCAB[descriptor.segment] = _STATE["transform"]
    else:
        _STATE["transform"] = cached


def transform_flush(task: tuple[int, object]) -> list[SparseVector] | None:
    """Transform a chunk counted earlier by this worker, if resident.

    Returns ``None`` when the chunk is not resident here (a different
    pool worker counted it — possible at ``workers > 1`` because the
    executor has no task affinity); the parent then falls back to
    :func:`count_transform_chunk` from its retained chunk texts. At one
    worker, and on in-process backends, every chunk hits.
    """
    chunk_id, descriptor = task
    entries = _RESIDENT.pop(chunk_id, None)
    if entries is None:
        return None
    _install_fused_vocab(descriptor)
    return transform_chunk(entries)


def count_transform_chunk(
    task: tuple[list[str], object]
) -> list[SparseVector]:
    """Residency-miss fallback: re-count then transform in one task."""
    texts, descriptor = task
    doc_entries, _token_counts, _df = count_chunk(texts)
    _install_fused_vocab(descriptor)
    return transform_chunk(doc_entries)


# -- K-means assignment ----------------------------------------------------------------


def init_kmeans_worker(
    indices: list[np.ndarray], values: list[np.ndarray], sq_norms: list[float]
) -> None:
    """Install the prepared document views once per worker (per fit)."""
    _STATE["kmeans"] = (indices, values, sq_norms)


def init_kmeans_worker_shm(matrix_descriptor, channel_descriptor, bounds) -> None:
    """Attach to the shared matrix instead of receiving a pickled copy.

    ``matrix_descriptor`` resolves to the flat CSR triple plus squared
    norms placed once by the parent; the per-document index/value views
    are sliced out of the attached buffers — the same values
    :func:`init_kmeans_worker` would have received, at zero IPC cost.
    ``channel_descriptor``/``bounds`` equip :func:`assign_block_span` to
    read each iteration's broadcast centroids and walk its blocks.
    """
    from repro.sparse.matrix import CsrMatrix

    arrays = matrix_descriptor.resolve()
    matrix = CsrMatrix.from_arrays(
        arrays["indptr"],
        arrays["indices"],
        arrays["values"],
        n_cols=0,  # column count is irrelevant to the assignment kernel
    )
    indptr = matrix.indptr
    doc_indices: list[np.ndarray] = []
    doc_values: list[np.ndarray] = []
    for doc in range(matrix.n_rows):
        start, end = int(indptr[doc]), int(indptr[doc + 1])
        doc_indices.append(matrix.indices[start:end])
        doc_values.append(matrix.data[start:end])
    _STATE["kmeans"] = (doc_indices, doc_values, arrays["sq_norms"])
    _STATE["kmeans_shm"] = (channel_descriptor, tuple(bounds))


def assign_chunk(
    task: tuple[int, int, np.ndarray, np.ndarray]
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, float]:
    """Assign documents ``[start, stop)`` to their nearest centroid.

    ``task`` carries the block bounds plus the iteration's centroids and
    centroid squared norms (the only per-iteration data). Returns the
    block's assignments, its compact partial centroids (touched cell ids
    + their values, see :func:`_assign_block`), per-cluster
    counts and inertia contribution. Blocks are worker-independent, and
    the caller merges partials in fixed block order, so the floating-point
    result does not depend on the backend or worker count.
    """
    start, stop, centroids, centroid_sq_norms = task
    indices, values, sq_norms = _STATE["kmeans"]
    return _assign_block(
        start, stop, centroids, centroid_sq_norms, indices, values, sq_norms
    )


def init_kmeans_worker_tiled(manifest, memory_budget) -> None:
    """Map the spilled tile manifest instead of receiving matrix bytes.

    The file-backed twin of :func:`init_kmeans_worker_shm`: ``manifest``
    is a tiny picklable :class:`~repro.tiles.store.TileManifest`, and the
    worker mmaps the parent's tile files directly — zero matrix IPC, with
    the worker's own mapped bytes bounded by ``memory_budget`` through
    the reader's LRU. In-process backends run this too (a second reader
    over the same files; the page cache deduplicates), keeping one code
    path across all backends.
    """
    from repro.tiles.matrix import TiledCsrMatrix

    matrix = TiledCsrMatrix.from_manifest(manifest, memory_budget=memory_budget)
    _STATE["kmeans_tiled"] = (matrix,)


def assign_chunk_tiled(
    task: tuple[int, int, np.ndarray, np.ndarray]
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, float]:
    """Tile-streaming :func:`assign_chunk`: fetch the block, then assign.

    The block's per-document index/value views and precomputed squared
    norms come straight out of the mapped tiles (local indexing), and the
    arithmetic is :func:`_assign_block` verbatim — same doubles in the
    same order as the in-memory path, so the per-block results (and the
    caller's fixed-order merge) are bit-identical.
    """
    start, stop, centroids, centroid_sq_norms = task
    (matrix,) = _STATE["kmeans_tiled"]
    indices, values, sq_norms = matrix.block_arrays(start, stop)
    return _assign_block(
        0, stop - start, centroids, centroid_sq_norms, indices, values, sq_norms
    )


def assign_block_span(
    task: tuple[int, int, int]
) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray, float]]:
    """Assign a span of blocks against broadcast centroids (shm path).

    ``task`` is a constant-size token ``(first_block, last_block,
    generation)``: the centroids travel through the broadcast channel,
    not the task pickle, so per-iteration task bytes are independent of
    the block count. The span returns one result *per block* — blocks
    are never merged worker-side, which keeps the parent's fixed
    block-order merge (and therefore the floating-point grouping)
    identical to the non-shm path.
    """
    first, last, generation = task
    indices, values, sq_norms = _STATE["kmeans"]
    channel, bounds = _STATE["kmeans_shm"]
    centroids, centroid_sq_norms = channel.read(generation)
    return [
        _assign_block(
            start, stop, centroids, centroid_sq_norms, indices, values, sq_norms
        )
        for start, stop in bounds[first:last]
    ]


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


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``ids``: one sort, one neighbour compare.

    Not ``np.unique``: on numpy 2.4 that takes 1.4 ms for a block's ~11 k
    ids where this takes 0.08 ms, and it runs once per block.
    """
    ids = np.sort(ids)
    keep = np.empty(len(ids), dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


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

    The block accumulates into the thread's recycled K×V buffer with the
    per-cell order a fresh dense buffer would see, then ships only what
    it touched: ``cells`` (sorted flat ids ``cluster · V + column`` of the
    cells some document of the block was added to — at most the block's
    nnz) and the buffer's values there. Scatter-adding those
    (``merged.reshape(-1)[cells] += partial``) is bit-identical to adding
    the dense buffer, whose every other cell is ``+0.0``. The buffer is
    zeroed again at ``cells`` on the way out, and wholesale if a document
    raises mid-block.
    """
    K, V = centroids.shape
    accumulator = _accumulator(K * V)
    counts = np.zeros(K, dtype=np.int64)
    assignments: list[int] = []
    touched: list[np.ndarray] = []
    inertia = 0.0
    try:
        for doc in range(start, stop):
            idx = indices[doc]
            val = values[doc]
            if len(idx):
                dots = centroids[:, idx] @ val
            else:
                dots = np.zeros(K)
            distances = sq_norms[doc] - 2.0 * dots + centroid_sq_norms
            best = int(np.argmin(distances))
            assignments.append(best)
            inertia += float(max(0.0, distances[best]))
            doc_cells = idx + best * V
            accumulator[doc_cells] += val
            touched.append(doc_cells)
            counts[best] += 1
        cells = (
            _sorted_unique(np.concatenate(touched))
            if touched else np.empty(0, dtype=np.intp)
        )
        partial = accumulator[cells]
    except BaseException:
        accumulator.fill(0.0)
        raise
    accumulator[cells] = 0.0
    return assignments, cells, partial, counts, inertia
