"""Columnar term-count blocks: the word count's intermediate form.

A :class:`TermBlock` holds the term frequencies of a run of documents as
four flat arrays plus one column of the run's distinct terms — the CSR
layout of :class:`~repro.sparse.matrix.CsrMatrix` with term ids local to
the block. A chunk kernel produces one per chunk
(:meth:`TermBlock.from_tokens`), the parent merges them into one block
for the corpus (:meth:`TermBlock.concat`, which is also where the terms
get sorted: numerically when every chunk carries packed keys), and the
transform reads row ranges of it (``block[a:b]``) with the term column
replaced by two per-term columns: the vocabulary id and the idf weight.

The byte kernel's term column stays packed (one ``uint64`` key per
term) from the chunk through the df merge, the slices, the cache and a
warm hit: a term becomes a ``str`` only when a caller reads
``block.terms`` — the ARFF header, an example's top terms. Nothing
downstream handles a per-document or per-term Python object.
"""

from __future__ import annotations

from itertools import chain, count

import numpy as np

__all__ = ["TermBlock", "concat_csr", "sorted_unique"]


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``ids``: one sort, one neighbour compare
    (``np.unique`` is an order of magnitude slower on numpy 2.x)."""
    ids = np.sort(ids)
    return ids[_run_heads(ids)]


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal neighbours."""
    heads = np.empty(len(values), dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def _row_order(indptr: np.ndarray, ids: np.ndarray, width: int) -> np.ndarray:
    """The permutation that sorts every row of a CSR layout by ``ids``
    (all below ``width``). The key orders by row first, so rows stay
    where ``indptr`` says they are; (row, id) pairs are distinct, so any
    sort algorithm yields this one permutation."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return np.argsort(rows * max(1, width) + ids)


class TermBlock:
    """Term frequencies of ``len(block)`` documents, column by column.

    ``terms`` are the block's distinct terms; row ``i`` owns
    ``ids[indptr[i]:indptr[i+1]]`` (positions in ``terms``, strictly
    increasing) and the matching ``counts``, both in the narrowest
    unsigned dtype that holds them (they are most of what a block
    pickles). ``token_counts[i]`` is the document's token total.
    ``gmap`` and ``weights`` are ``None`` until :meth:`bound` attaches
    them, which also drops ``terms``.

    **Packed terms.** The byte kernel's blocks carry their terms as
    ``packed = (keys, tails)``: ``keys`` is one ``uint64`` per term,
    its ASCII bytes big-endian and zero-padded (exact for terms of at
    most 8 bytes, none of which holds a zero byte, and ordered like the
    strings); a longer term's key is its 8-byte prefix and ``tails``
    maps its position to the whole string. ``terms`` is then built on
    first access and never pickled. :meth:`concat` of packed blocks is
    packed (its keys non-decreasing), and so is a slice of one; a block
    of the string kernel (a tokenizer that overrides ``split``) holds
    its strings throughout.

    **Term order.** A *chunk* block (:meth:`from_tokens`, what a
    word-count task returns) lists its terms in first-seen order, so no
    string is sorted per chunk; its only consumer is :meth:`concat`.
    Everything :meth:`concat` and :meth:`from_counts` return, everything
    sliced from that and everything the cache stores is *term-sorted*:
    ``terms`` ascending, hence every row sorted by term — what
    ``build_vocabulary``, ``bind`` and the transform kernel rely on. To
    use a chunk block as a corpus block, pass it through
    ``TermBlock.concat([block])``.
    """

    __slots__ = (
        "_terms", "packed", "indptr", "ids", "counts", "token_counts", "gmap",
        "weights",
    )

    def __init__(self, terms, indptr, ids, counts, token_counts,
                 gmap=None, weights=None, packed=None) -> None:
        self._terms = terms
        self.packed = packed
        self.indptr = indptr
        self.ids = ids
        self.counts = counts
        self.token_counts = token_counts
        self.gmap = gmap
        self.weights = weights

    def __reduce__(self):
        return TermBlock, (
            None if self.packed is not None else self._terms, self.indptr,
            self.ids, self.counts, self.token_counts, self.gmap, self.weights,
            self.packed,
        )

    @property
    def terms(self) -> list[str] | None:
        if self._terms is None and self.packed is not None:
            self._terms = _unpack(*self.packed)
        return self._terms

    @classmethod
    def from_counts(cls, tfs, token_counts) -> "TermBlock":
        """Pack per-document ``term -> count`` mappings (any key order)."""
        lengths = np.fromiter(map(len, tfs), dtype=np.int64, count=len(tfs))
        indptr = np.zeros(len(tfs) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        nnz = int(indptr[-1])
        terms, (ids,) = _rank_terms([chain.from_iterable(tfs)], [nnz])
        counts = np.fromiter(
            chain.from_iterable(tf.values() for tf in tfs),
            dtype=np.int32, count=nnz,
        )
        order = _row_order(indptr, ids, len(terms))
        return cls(
            terms, indptr, _narrow(ids[order], len(terms)),
            _narrow(counts[order], int(counts.max(initial=0))),
            np.asarray(token_counts, dtype=np.int64),
        )

    @classmethod
    def from_tokens(cls, terms, ids, ends, packed=None) -> "TermBlock":
        """Group a chunk's interned token stream into a chunk block.

        ``ids[j]`` is the position in ``terms`` of the chunk's ``j``-th
        token (negative: a filtered-out token, which counts nowhere),
        documents laid end to end with document ``i`` stopping at
        ``ends[i]``. One integer sort of ``document · |terms| + id``
        brings equal (document, term) pairs together; their run lengths
        are the counts, and the distinct keys, already in row order, are
        ``indptr`` and ``ids``. ``terms`` stay in the order given; with
        ``packed`` given (the terms as keys), ``terms`` is ``None``.
        """
        n_docs = len(ends)
        docs = np.repeat(
            np.arange(n_docs), np.diff(np.asarray(ends, dtype=np.int64), prepend=0)
        )
        kept = ids >= 0
        if not kept.all():
            ids, docs = ids[kept], docs[kept]
        n_terms = len(terms if packed is None else packed[0])
        width = max(1, n_terms)
        keys = docs * width + ids
        keys.sort()
        starts = np.flatnonzero(_run_heads(keys))
        counts = np.diff(starts, append=len(keys))
        keys = keys[starts]
        rows = keys // width
        indptr = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_docs), out=indptr[1:])
        return cls(
            terms, indptr, _narrow(keys - rows * width, n_terms),
            _narrow(counts, int(counts.max(initial=0))),
            np.bincount(docs, minlength=n_docs).astype(np.int64, copy=False),
            packed=packed,
        )

    @classmethod
    def concat(cls, blocks) -> "TermBlock":
        """The blocks' documents in order, over the union of their terms.

        This is the document-frequency merge, and the one place terms are
        sorted. When every block is packed the merge is numeric and the
        result packed (:func:`_merge_packed`: no string is made);
        otherwise it costs one dictionary probe per (block, term) and
        one sort of the union of strings. Either way array lookups then
        rebase every id onto the union.
        Rows are re-ordered by their new ids a block at a time — sorted
        input comes back as it was, a chunk block's first-seen order
        becomes term order — so the transients stay chunk-sized (one
        corpus-wide argsort would be the peak memory of a tiled run).
        """
        blocks = list(blocks)
        terms = packed = None
        if blocks and all(block.packed is not None for block in blocks):
            packed, rebase = _merge_packed([block.packed for block in blocks])
            n_terms = len(packed[0])
        else:
            terms, rebase = _rank_terms(
                [block.terms for block in blocks],
                [len(block.terms) for block in blocks],
            )
            n_terms = len(terms)
        ids, counts = [], []
        for lookup, block in zip(rebase, blocks):
            moved = lookup[block.ids]
            order = _row_order(block.indptr, moved, n_terms)
            ids.append(_narrow(moved[order], n_terms))
            counts.append(block.counts[order])
        return cls(
            terms,
            _stack_indptr([block.indptr for block in blocks]),
            _concat(ids),
            _concat(counts),
            _concat([block.token_counts for block in blocks]),
            packed=packed,
        )

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, rows: slice) -> "TermBlock":
        """Documents ``rows`` as a self-contained block.

        The slice is compacted: only the terms (and per-term columns) its
        rows use survive, with ids renumbered — so a piece pickles no
        more than it needs and its ``df_counts`` is a recount. A packed
        block's slice is packed.
        """
        start, stop, _ = rows.indices(len(self))
        stop = max(start, stop)
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        ids = self.ids[lo:hi]
        used = sorted_unique(ids)
        # Scatter the new numbering into an uninitialised table: only
        # the cells at ``used`` are ever written or read.
        renumber = np.empty(self.n_terms, dtype=np.int32)
        renumber[used] = np.arange(len(used), dtype=np.int32)
        terms = packed = None
        if self.packed is not None:
            keys, tails = self.packed
            long_at = np.fromiter(tails, dtype=np.int64, count=len(tails))
            long_at = long_at[np.isin(long_at, used)]
            packed = keys[used], dict(zip(
                renumber[long_at].tolist(), map(tails.get, long_at.tolist())
            ))
        elif self._terms is not None:
            terms = [self._terms[at] for at in used.tolist()]
        return TermBlock(
            terms,
            self.indptr[start:stop + 1] - lo,
            _narrow(renumber[ids], len(used)),
            self.counts[lo:hi],
            self.token_counts[start:stop],
            None if self.gmap is None else self.gmap[used],
            None if self.weights is None else self.weights[used],
            packed,
        )

    @property
    def n_terms(self) -> int:
        if self.packed is not None:
            return len(self.packed[0])
        return len(self.gmap if self._terms is None else self._terms)

    @property
    def df_counts(self) -> np.ndarray:
        """Documents of the block each term occurs in (a term occurs at
        most once per row, so this is a plain histogram of ``ids``)."""
        return np.bincount(self.ids, minlength=self.n_terms)

    def bound(self, gmap: np.ndarray, weights: np.ndarray) -> "TermBlock":
        """This block with its term strings replaced by the two per-term
        columns the transform kernel reads (vocabulary id, ``-1`` =
        pruned; idf weight)."""
        return TermBlock(
            None, self.indptr, self.ids, self.counts, self.token_counts,
            gmap, weights,
        )

    def row_items(self, row: int) -> list[tuple[str, int]]:
        """Document ``row`` as sorted ``(term, count)`` entries."""
        lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
        terms = self.terms
        return list(zip(
            [terms[at] for at in self.ids[lo:hi].tolist()],
            self.counts[lo:hi].tolist(),
        ))


def _rank_terms(runs, lengths) -> tuple[list[str], list[np.ndarray]]:
    """Sorted distinct terms of several runs of terms, and per run each
    occurrence's position in that sorted list.

    One dictionary probe per occurrence, at C speed: ``setdefault`` hands
    every new term the next value of a shared counter (unique, if not
    dense), and one array lookup turns those into sorted ranks.
    """
    first_seen: dict[str, int] = {}
    counter = count()
    raw = [
        np.fromiter(
            map(first_seen.setdefault, run, counter), dtype=np.int64, count=n
        )
        for run, n in zip(runs, lengths)
    ]
    terms = sorted(first_seen)
    rank = np.empty(next(counter), dtype=np.int32)
    rank[np.fromiter(
        map(first_seen.__getitem__, terms), dtype=np.int64, count=len(terms)
    )] = np.arange(len(terms), dtype=np.int32)
    return terms, [rank[ids] for ids in raw]


def _unpack(keys: np.ndarray, tails: dict[int, str]) -> list[str]:
    """The strings of packed terms (the zero padding is numpy's ``S8``
    trailing-NUL strip)."""
    terms = keys.astype(">u8").view("S8").astype("U8").tolist()
    for at, term in tails.items():
        terms[at] = term
    return terms


def _merge_packed(packs) -> tuple[tuple, list[np.ndarray]]:
    """:func:`_rank_terms` over packed terms, numerically, into the
    union's packed terms.

    The short keys of all blocks are ranked by one sort of their
    concatenation (a run of equal keys is one term of the union). The
    long terms (a few per cent) are sorted as strings and spliced in by
    prefix: a long term follows every short key up to and including its
    prefix, and precedes the rest — so the union's keys are
    non-decreasing and its order is the strings'. Only the long terms
    are strings here, as they were in the blocks.
    """
    prefixes: dict[str, int] = {}
    shorts = []
    for keys, tails in packs:
        short = np.ones(len(keys), dtype=bool)
        short[list(tails)] = False
        shorts.append(short)
        prefixes.update(zip(tails.values(), keys[list(tails)].tolist()))
    stacked = _concat(
        [keys[short] for (keys, _), short in zip(packs, shorts)], np.uint64
    )
    order = np.argsort(stacked)
    heads = _run_heads(stacked[order])
    union = stacked[order[heads]]
    rank = np.empty(len(stacked), dtype=np.int64)
    rank[order] = np.cumsum(heads) - 1
    longs = sorted(prefixes)
    long_keys = np.array([prefixes[term] for term in longs], dtype=np.uint64)
    short_rank = np.arange(len(union)) + np.searchsorted(long_keys, union)
    long_rank = np.arange(len(longs)) + np.searchsorted(union, long_keys, "right")
    merged = np.empty(len(union) + len(longs), dtype=np.uint64)
    merged[short_rank] = union
    merged[long_rank] = long_keys
    long_at = dict(zip(longs, long_rank.tolist()))
    rebase, at = [], 0
    for (keys, tails), short in zip(packs, shorts):
        lookup = np.empty(len(keys), dtype=np.int32)
        n_short = len(keys) - len(tails)
        lookup[short] = short_rank[rank[at:at + n_short]]
        lookup[list(tails)] = [long_at[term] for term in tails.values()]
        rebase.append(lookup)
        at += n_short
    return (merged, {at: term for term, at in long_at.items()}), rebase


def _stack_indptr(indptrs) -> np.ndarray:
    """Row offsets of several CSR pieces laid end to end."""
    bases = np.cumsum([0] + [int(indptr[-1]) for indptr in indptrs])
    return np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [indptr[1:] + base for indptr, base in zip(indptrs, bases)]
    )


def _narrow(values: np.ndarray, bound: int) -> np.ndarray:
    """``values`` (all in ``[0, bound]``) in the smallest unsigned dtype."""
    return values.astype(np.min_scalar_type(bound))


def _concat(parts, dtype=np.uint8) -> np.ndarray:
    """``np.concatenate`` that promotes mixed widths and accepts no
    parts (``dtype`` is that empty result's, and a floor otherwise)."""
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts, dtype=np.result_type(dtype, *parts))


def concat_csr(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack CSR blocks ``(indptr, indices, data)`` row-wise into one
    triple with the fixed dtypes of ``CsrMatrix.as_arrays``."""
    blocks = list(blocks)
    return (
        _stack_indptr([indptr for indptr, _, _ in blocks]),
        _concat([indices for _, indices, _ in blocks], np.intp),
        _concat([data for _, _, data in blocks], np.float64),
    )
