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
but replicate the simulated operators' word-count and transform
arithmetic exactly — same term counts, same ``count * idf`` products,
same sort orders — so the scores are byte-identical across backends and
to the simulator's dictionary reference (:mod:`repro.sim.operators`);
the k-means kernels keep one centroid accumulation grouping on every
backend.
"""

from __future__ import annotations

import threading
from itertools import compress, count

import numpy as np

from repro.exec.process import register_worker_reset
from repro.sparse.blocks import TermBlock, _run_heads, _unpack, sorted_unique
from repro.text.normalize import FOLD_BYTES
from repro.text.stopwords import ENGLISH_STOPWORDS, is_stopword
from repro.text.tokenizer import Tokenizer

__all__ = [
    "init_wordcount_worker",
    "release_wordcount_worker",
    "wordcount_slot",
    "count_chunk",
    "transform_chunk",
    "transform_into",
    "init_kmeans_worker",
    "release_kmeans_worker",
    "assign_block_span",
]


# -- word count (TF/IDF phase 1) ------------------------------------------------------


#: Word-count worker state per run, keyed by the run's slot (its tasks
#: name it). The in-process backends install into the parent's copy,
#: where runs on several threads may count at once, each with its own
#: tokenizer. Slot 0 is the default of direct kernel calls.
_WORDCOUNT: dict[int, Tokenizer] = {}

#: Hands every word-count run its slot.
_WORDCOUNT_SLOTS = count(1)


def wordcount_slot() -> int:
    """A word-count slot no other run of this process holds."""
    return next(_WORDCOUNT_SLOTS)


def init_wordcount_worker(tokenizer: Tokenizer, slot: int = 0) -> None:
    """Install the tokenizer (with its stopword/length config) once."""
    _WORDCOUNT[slot] = tokenizer


def release_wordcount_worker(slot: int) -> None:
    _WORDCOUNT.pop(slot, None)


def count_chunk(texts: list[str], slot: int = 0) -> TermBlock:
    """Count one chunk of documents into one columnar chunk block.

    The tokenizer picks the kernel: one whose ``split`` is the base
    fold-and-split runs on bytes (:func:`_intern_bytes`); one that
    overrides ``split`` runs on its strings, as follows.

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
    tokenizer = _WORDCOUNT[slot]
    if type(tokenizer).split is Tokenizer.split:
        # Helpers, so that their transients are freed before the next
        # stage allocates its own: as one flat function the byte kernel
        # peaked at twice the string kernel's memory.
        ids, ends, packed = _intern_bytes(texts, tokenizer)
        return TermBlock.from_tokens(None, ids, ends, packed)
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


#: The packed keys of the stop words that fit one (the longer ones can
#: only be tails): big-endian, zero-padded to 8 bytes.
_STOP_KEYS = np.array(
    [int.from_bytes(word.encode().ljust(8, b"\0"), "big")
     for word in ENGLISH_STOPWORDS if len(word) <= 8],
    dtype=np.uint64,
)

#: ``_PREFIX[n]`` keeps the first ``n`` bytes of a big-endian word.
_PREFIX = np.array(
    [(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64
)


def _token_bounds(
    texts: list[str],
) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray]:
    """The chunk's bytes folded, each token's start and length there, and
    each document's end in tokens.

    The texts are joined by one separator and encoded once
    (``surrogatepass``: a lone surrogate is three bytes >= 0x80, a
    separator, as ``fold_text`` makes it a space). One ``translate``
    folds the bytes and deletes apostrophes; token bounds are where the
    word mask changes.
    """
    joined = " ".join(texts)
    data = joined.encode("utf-8", "surrogatepass")
    if len(data) == len(joined):
        sizes = list(map(len, texts))
    else:
        sizes = [len(text.encode("utf-8", "surrogatepass")) for text in texts]
    if b"'" in data:
        sizes = [size - text.count("'") for size, text in zip(sizes, texts)]
    # One zero byte ahead so the first token has a left edge; a window's
    # width behind so the last one can be read 8 bytes at a time.
    folded = b"\0" + data.translate(FOLD_BYTES, b"'") + bytes(8)
    edges = np.flatnonzero(np.diff(np.frombuffer(folded, dtype=np.uint8) != 0))
    starts = edges[0::2] + 1
    # Document i's separator sits at sum(sizes[:i+1]) + i + 1.
    ends = np.searchsorted(starts, np.cumsum(np.array(sizes, dtype=np.int64) + 1))
    return folded, starts, edges[1::2] - edges[0::2], ends


def _intern_bytes(
    texts: list[str], tokenizer: Tokenizer
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, dict[int, str]]]:
    """:func:`count_chunk` for the base split, up to the grouping: each
    token's term id (``-1``: filtered out), each document's end in
    tokens, and the terms, packed.

    A token of at most 8 bytes is keyed by an unaligned big-endian window
    read masked to its length — exact, and ordered like the string — and
    grouped by one sort of the keys; a longer one is interned by its
    bytes. Nothing is hashed into a key, so nothing can collide. The
    base ``keeps`` runs on the distinct terms' lengths and keys; an
    overriding one is asked once per distinct term. Terms are numbered
    in first-seen order.
    """
    folded, starts, lengths, ends = _token_bounds(texts)
    window = np.ndarray((len(folded) - 7,), ">u8", folded, 0, (1,))
    keys = window[starts] & _PREFIX[np.minimum(lengths, 8)]

    by_key = np.flatnonzero(lengths <= 8)
    by_key = by_key[np.argsort(keys[by_key])]
    heads = _run_heads(keys[by_key])
    run = np.cumsum(heads) - 1
    # Each key's first token (the sort need not be stable).
    first = np.minimum.reduceat(by_key, np.flatnonzero(heads))
    long_at = np.flatnonzero(lengths > 8)
    tickets: dict[bytes, int] = {}
    long_starts = starts[long_at]
    spans = zip(long_starts.tolist(), (long_starts + lengths[long_at]).tolist())
    raw = np.fromiter(
        map(tickets.setdefault, (folded[a:b] for a, b in spans), count()),
        dtype=np.int64, count=len(long_at),
    )
    long_first = np.fromiter(tickets.values(), dtype=np.int64, count=len(tickets))
    dense = np.empty(len(long_at), dtype=np.int64)
    dense[long_first] = np.arange(len(first), len(first) + len(tickets))
    n_short = len(first)
    first = np.concatenate([first, long_at[long_first]])
    tails = [word.decode() for word in tickets]

    if type(tokenizer).keeps is Tokenizer.keeps:
        size = lengths[first]
        keep = (tokenizer.min_length <= size) & (size <= tokenizer.max_length)
        if tokenizer.drop_stopwords:
            keep[:n_short] &= ~np.isin(keys[first[:n_short]], _STOP_KEYS)
            keep[n_short:] &= ~np.array(list(map(is_stopword, tails)), dtype=bool)
    else:
        words = _unpack(keys[first], dict(enumerate(tails, n_short)))
        keep = np.fromiter(map(tokenizer.keeps, words), dtype=bool, count=len(words))
    kept = np.flatnonzero(keep)
    seen = kept[np.argsort(first[kept])]
    position = np.full(len(first), -1, dtype=np.int64)
    position[seen] = np.arange(len(seen))
    ids = np.empty(len(starts), dtype=np.int64)
    ids[by_key] = position[run]
    ids[long_at] = position[dense[raw]]
    return ids, ends, (
        keys[first[seen]],
        {at: word for at, word in zip(position[n_short:].tolist(), tails)
         if at >= 0},
    )


# -- TF/IDF transform (phase 2a) ------------------------------------------------------


def transform_chunk(
    block: TermBlock,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized TF/IDF rows of a bound block, as one CSR block.

    A pure function of its argument (``block.gmap``: term → vocabulary
    id, ``-1`` = pruned below ``min_df``; ``block.weights``: term → idf).
    Mirrors the simulator's :func:`repro.sim.operators.transform_document`
    double for double: ``count * idf`` products, rows sorted by
    vocabulary id (block rows are sorted by term, and so is the
    vocabulary), and a squared norm summed left to right per row — a
    Python ``sum`` over a list slice, because numpy's pairwise reductions
    round differently. The result is bit-identical to
    ``transform_document``.
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


def transform_into(rows, task: tuple[TermBlock, int, int]) -> int:
    """:func:`transform_chunk`, its rows written in place.

    ``rows`` is the descriptor of the matrix's shared segment
    (``indptr``/``indices``/``values``, sized for the whole corpus) and
    ``task`` is ``(block, first_row, first_entry)``: the bound rows and
    where they land. Returns the number of entries written — the task's
    whole result pickle.
    """
    block, first_row, first_entry = task
    indptr, indices, data = transform_chunk(block)
    out = rows.resolve()
    stop = first_entry + len(indices)
    out["indptr"][first_row + 1 : first_row + len(indptr)] = indptr[1:] + first_entry
    out["indices"][first_entry:stop] = indices
    out["values"][first_entry:stop] = data
    return len(indices)


# -- K-means assignment ----------------------------------------------------------------


#: K-means worker state per fit, keyed by the fit's slot (every task
#: names its slot). A pool worker only ever holds its own fit's; the
#: in-process backends install into the parent's copy, where several
#: fits — one per calling thread — may be live at once.
_KMEANS: dict[int, tuple] = {}


def init_kmeans_worker(
    slot: int, source_descriptor, channel_descriptor, bounds, gather=None
) -> None:
    """Resolve the placed block source once per worker (per fit).

    ``source_descriptor`` is what ``source.place(backend).descriptor()``
    returned: in the placing process it resolves to the caller's own
    source (resident rows, or the tiled matrix with its one budgeted
    reader), in a pool worker to views over a shared segment, a by-value
    copy, or a read-only mapping of the tile files — the kernel below
    never learns which. ``channel_descriptor``/``bounds`` equip
    :func:`assign_block_span` to read each iteration's centroids and
    walk its blocks; ``gather``, when given, is the descriptor of the
    fit's gather channel, one slot per block. Whatever the slot held
    before is released first.
    """
    release_kmeans_worker(slot)
    _KMEANS[slot] = (
        source_descriptor,
        source_descriptor.resolve(),
        channel_descriptor,
        tuple(bounds),
        gather,
    )


def release_kmeans_worker(slot: int) -> None:
    """Drop a slot's state, closing the source if this worker rebuilt it
    (tile readers unmap, shm attachments detach); a source the caller
    placed in this very process stays the caller's."""
    state = _KMEANS.pop(slot, None)
    if state is not None:
        source_descriptor, source = state[:2]
        source_descriptor.release(source)


def _drop_worker_state() -> None:
    """Between two phases of a pool worker: every run's state goes."""
    for slot in list(_KMEANS):
        release_kmeans_worker(slot)
    _WORDCOUNT.clear()


register_worker_reset(_drop_worker_state)


def assign_block_span(task: tuple[int, int, int, object]) -> list:
    """Assign a span of blocks against the iteration's centroids.

    ``task`` is ``(slot, first_block, last_block, token)``: the centroids
    come out of the broadcast channel (``token`` is a generation number
    on the in-process and shared-memory planes, the arrays themselves on
    the by-value one), and each block's per-document index/value views
    and squared norms out of the worker's block source. Each block's
    result — its assignments, its compact partial centroids (touched
    cell ids + their values, see :func:`_assign_block`), per-cluster
    counts and inertia contribution — goes into the fit's gather channel
    as five arrays, slot = block index, and the span returns what the
    channel's ``put`` returned per block (the arrays themselves, or
    ``None`` once they sit in the shared arena). Without a gather
    channel the span returns the block results themselves. Blocks are
    never merged worker-side and the caller merges them in fixed block
    order, so the floating-point result does not depend on the backend,
    the worker count, or where the rows live.
    """
    slot, first, last, token = task
    _, source, channel, bounds, gather = _KMEANS[slot]
    centroids, centroid_sq_norms = channel.read(token)
    results = []
    for block in range(first, last):
        start, stop = bounds[block]
        indices, values, sq_norms = source.block_arrays(start, stop)
        result = _assign_block(
            0, stop - start, centroids, centroid_sq_norms,
            indices, values, sq_norms,
        )
        if gather is not None:
            best, cells, partial, counts, inertia = result
            result = gather.put(block, (
                np.asarray(best, dtype=np.int64), cells, partial, counts,
                np.array([inertia]),
            ))
        results.append(result)
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
