"""TF/IDF operator: word count → transform.

Mirrors the paper's implementation (§3.2):

* **Phase 1 — input+wc** (parallel): per-document term frequencies and
  each term's document count (:mod:`repro.ops.wordcount`).
* **Phase 2a — transform** (parallel with a serial vocabulary/index
  prefix): per-document sparse TF/IDF vectors, sorted by term id and
  L2-normalized.

Phase 2b, the serial ARFF output the format forces (the key fact behind
Figure 3), is :func:`repro.io.arff.write_sparse_arff` over the result on
the real path. The simulator's run of all three phases over
instrumented dictionaries, with a dictionary kind per phase (§3.4), is
:func:`repro.sim.operators.run_tfidf`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat

import numpy as np

from repro.errors import OperatorError
from repro.exec.inline import ExecutionBackend, SequentialBackend
from repro.ops import kernels
from repro.ops.wordcount import WordCountResult, WordCountStep
from repro.sparse.blocks import TermBlock, concat_csr
from repro.sparse.matrix import CsrMatrix, csr_row_views
from repro.text.corpus import Corpus
from repro.text.tokenizer import Tokenizer

__all__ = [
    "Idf",
    "TfIdfResult",
    "TfIdfOperator",
    "PHASE_TRANSFORM",
    "PHASE_TFIDF_OUTPUT",
    "Vocabulary",
]

PHASE_TRANSFORM = "transform"
PHASE_TFIDF_OUTPUT = "tfidf-output"


class _Column(Sequence):
    """A read-only list whose items are made on the first element read;
    ``len()`` makes none. Compares equal to a list of the same items."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items = None

    def _make(self) -> list:
        raise NotImplementedError

    def _list(self) -> list:
        if self._items is None:
            self._items = self._make()
        return self._items

    def __getitem__(self, at):
        return self._list()[at]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        if isinstance(other, _Column):
            other = other._list()
        if isinstance(other, list):
            return self._list() == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._list())


class Vocabulary(_Column):
    """Term strings by vocabulary id: the ``min_df`` cut (``kept``) of a
    term-sorted block's terms, the block's own string objects. Made
    from the block's (packed) term column on the first element read."""

    __slots__ = ("block", "kept", "_len")

    def __init__(self, block: TermBlock, kept: np.ndarray) -> None:
        super().__init__()
        self.block = block
        self.kept = kept
        self._len = int(np.count_nonzero(kept))

    def __len__(self) -> int:
        return self._len

    def _make(self) -> list[str]:
        return list(compress(self.block.terms, self.kept.tolist()))


class Idf(_Column):
    """Inverse document frequency by vocabulary id: one ``float64``
    array (what ``np.asarray`` returns), Python floats on the first
    element read."""

    __slots__ = ("weights",)

    def __init__(self, weights: np.ndarray) -> None:
        super().__init__()
        self.weights = weights

    def __len__(self) -> int:
        return len(self.weights)

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.weights, dtype=dtype)
        return np.asarray(self.weights, dtype=dtype)

    def _make(self) -> list[float]:
        return self.weights.tolist()


@dataclass
class TfIdfResult:
    """Output of the TF/IDF operator."""

    #: Normalized TF/IDF scores, one row per document (sorted term ids).
    matrix: CsrMatrix
    #: Term strings indexed by term id (a :class:`Vocabulary` on the
    #: real path: no string exists until one is read).
    vocabulary: Sequence[str]
    #: Inverse document frequency per term id (an :class:`Idf`).
    idf: Sequence[float]
    #: Phase-1 result (kept alive between phases in the fused workflow).
    wordcount: WordCountResult

    @property
    def n_docs(self) -> int:
        return self.matrix.n_rows


class TfIdfOperator:
    """Configurable TF/IDF operator.

    Parameters
    ----------
    tokenizer:
        How documents split into terms (default :class:`Tokenizer`).
    min_df:
        Drop terms that occur in fewer than this many documents. The
        default (1) keeps everything, as the paper's operator does;
        higher values prune hapax terms, which markedly improves
        clustering quality on small corpora.
    wc_dict_kind / transform_dict_kind:
        Accepted and ignored. A real run counts into term blocks and
        touches no dictionary; the simulator's per-phase kinds are
        :class:`repro.sim.operators.SimConfig` fields. ``perfbench``
        still passes them for its planned workload.
    """

    def __init__(
        self,
        tokenizer: Tokenizer | None = None,
        min_df: int = 1,
        *,
        wc_dict_kind: str | None = None,
        transform_dict_kind: str | None = None,
    ) -> None:
        if min_df < 1:
            raise OperatorError(f"min_df must be >= 1, got {min_df}")
        self.tokenizer = tokenizer or Tokenizer()
        self.min_df = min_df
        self.wordcount = WordCountStep(tokenizer=self.tokenizer)

    # -- vocabulary --------------------------------------------------------------------

    def build_vocabulary(self, wc: WordCountResult) -> tuple[Vocabulary, Idf]:
        """Sorted vocabulary and idf table of a word count: the serial
        prefix of the transform phase, read off the term-sorted corpus
        block — two columns, no dictionary and no string."""
        counts = wc.block.df_counts
        kept = counts >= self.min_df
        n_docs = wc.n_docs
        # math.log, not np.log (which may round differently), once per
        # possible count — a term is in at most ``n_docs`` documents.
        by_count = np.array([0.0] + [
            math.log(n_docs / count)
            for count in range(1, int(counts.max(initial=0)) + 1)
        ])
        return Vocabulary(wc.block, kept), Idf(by_count[counts[kept]])

    # -- transform --------------------------------------------------------------------

    def fit_transform(
        self, corpus: Corpus, backend: ExecutionBackend | None = None
    ) -> TfIdfResult:
        """Compute TF/IDF for an in-memory or streamed corpus.

        ``corpus`` may be a materialized :class:`~repro.text.corpus.Corpus`
        or a lazy :class:`~repro.io.parallel_read.DocumentStream`; with a
        stream, phase 1 consumes documents as reads complete, overlapping
        input with tokenization (paper §3.2). Both parallel phases (word
        count and transform) run on ``backend`` (``None``: a
        :class:`SequentialBackend`); the output matrix is bit-identical
        regardless of backend, worker count, or read-worker count.
        """
        backend = backend or SequentialBackend()
        wc = self.wordcount.run(corpus, backend=backend)
        return self.transform_wordcount(wc, backend=backend)

    def bind(
        self, wc: WordCountResult, vocabulary: Sequence[str], idf
    ) -> TermBlock:
        """The corpus block bound to a vocabulary: what the transform
        kernel consumes, a row range (``bound[a:b]``) at a time.

        Binding maps each of the block's (sorted) terms to its vocabulary
        id (``-1`` = pruned by ``min_df``) and its idf weight. Handed a
        :class:`Vocabulary` of this very block — what
        :meth:`build_vocabulary` or the cache made of it — the ids
        follow from its mask and no string is read; any other vocabulary
        is looked up term by term. Under ``min_df`` 1 a vocabulary
        missing a term of the block is refused.
        """
        block = wc.block
        if isinstance(vocabulary, Vocabulary) and vocabulary.block is block:
            kept = vocabulary.kept
            gmap = np.where(kept, np.cumsum(kept) - 1, -1).astype(np.int32)
        else:
            index = {term: term_id for term_id, term in enumerate(vocabulary)}
            gmap = np.fromiter(
                map(index.get, block.terms, repeat(-1)),
                dtype=np.int32, count=block.n_terms,
            )
            kept = gmap >= 0
        if self.min_df == 1 and not kept.all():
            term = block.terms[int(np.flatnonzero(~kept)[0])]
            raise OperatorError(f"term {term!r} missing from vocabulary index")
        weights = np.zeros(block.n_terms, dtype=np.float64)
        weights[kept] = np.asarray(idf, dtype=np.float64)[gmap[kept]]
        return block.bound(gmap, weights)

    def _transform(
        self,
        wc: WordCountResult,
        backend: ExecutionBackend | None,
        grain: int | None,
        cuts: list[int] | None,
    ):
        """Phase 2a, the one driver: ``(vocabulary, idf, tiles, rows_out)``.

        The vocabulary/idf build stays serial (it is the phase's serial
        prefix in the paper too), and so does mapping the corpus block's
        terms onto it. ``tiles`` then yields the scored rows of each
        ``[cuts[k], cuts[k + 1])`` document range (``None``: all at
        once), each tile a list of CSR blocks in row order — what the
        caller concatenates into a resident matrix or spills. The
        per-document scoring runs on ``backend`` (``None``: a
        :class:`SequentialBackend`) in chunks, each task a self-contained
        row range of the bound block — workers hold no transform state,
        and no term string is shipped. A tile is cut into one chunk
        per worker, or at the phase's own grain where that is finer. A
        resident transform on a backend that can allocate a shared
        segment (``rows_out``) has its workers write the rows straight
        into it (its tiles are then empty), and no row crosses a pipe.
        """
        backend = backend or SequentialBackend()
        vocabulary, idf = self.build_vocabulary(wc)
        n_docs = wc.n_docs
        backend.begin_phase(PHASE_TRANSFORM)
        bound = self.bind(wc, vocabulary, idf)
        rows_out = None
        if cuts is None and not backend.resilience.quarantining:
            # Quarantine may drop rows, which a preallocated matrix
            # cannot absorb: those runs return their rows by value.
            offsets = self._entry_offsets(bound)
            rows_out = backend.allocate_arrays("rows", [
                ("indptr", np.int64, (n_docs + 1,)),
                ("indices", np.intp, (int(offsets[-1]),)),
                ("values", np.float64, (int(offsets[-1]),)),
                ("sq_norms", np.float64, (n_docs,)),  # k-means adds them
            ])
        phase_step = backend.phase_grain(n_docs)

        def rows(start: int, stop: int) -> list:
            step = grain or min(
                phase_step, -(-(stop - start) // backend.workers)
            )
            ranges = [
                (at, min(at + step, stop)) for at in range(start, stop, step)
            ]
            if rows_out is None:
                # A quarantined row is reported as its input document.
                return backend.map_documents(
                    kernels.transform_chunk, [bound[a:b] for a, b in ranges],
                    [a for a, _ in ranges], wc.doc_ids,
                )[0]
            # Written in place: no block comes back.
            backend.map(
                partial(kernels.transform_into, rows_out.descriptor()),
                [(bound[a:b], a, int(offsets[a])) for a, b in ranges],
            )
            return []

        if cuts is None:
            cuts = _even_cuts(n_docs, n_docs)
        tiles = (
            rows(start, stop) for start, stop in zip(cuts[:-1], cuts[1:])
        )
        return vocabulary, idf, tiles, rows_out

    @staticmethod
    def _entry_offsets(bound: TermBlock) -> np.ndarray:
        """Per row, the matrix entries before it: the block's entries
        less those of terms pruned below ``min_df``."""
        if (bound.gmap >= 0).all():
            return bound.indptr
        kept = np.zeros(len(bound.ids) + 1, dtype=np.int64)
        np.cumsum(bound.gmap[bound.ids] >= 0, out=kept[1:])
        return kept[bound.indptr]

    def transform_wordcount(
        self,
        wc: WordCountResult,
        backend: ExecutionBackend | None = None,
        grain: int | None = None,
    ) -> TfIdfResult:
        """Phase 2a over an existing word-count result, into one resident
        matrix (see :meth:`_transform`)."""
        vocabulary, idf, tiles, rows_out = self._transform(
            wc, backend, grain, None
        )
        parts = [part for tile in tiles for part in tile]
        if rows_out is None:
            matrix = CsrMatrix.from_arrays(
                *concat_csr(parts), n_cols=len(vocabulary)
            )
        else:
            # Written in place: the segment's views are the matrix.
            arrays = rows_out.resolve()
            matrix = CsrMatrix.from_arrays(
                arrays["indptr"], arrays["indices"], arrays["values"],
                n_cols=len(vocabulary),
            )
            matrix.shared = rows_out
        return TfIdfResult(
            matrix=matrix, vocabulary=vocabulary, idf=idf, wordcount=wc
        )

    def transform_wordcount_tiled(
        self,
        wc: WordCountResult,
        store,
        backend: ExecutionBackend | None = None,
        grain: int | None = None,
        tile_docs: int | None = None,
    ) -> TfIdfResult:
        """Phase 2a emitting spill tiles instead of one in-memory matrix.

        :meth:`_transform` into a different container: documents are
        transformed ``tile_docs`` at a time, each finished row range is
        written to ``store`` (a :class:`~repro.tiles.store.TileStore`)
        as a binary tile — per-row squared norms precomputed for the
        k-means pass — and the rows are dropped before the next range
        starts, so peak memory is O(tile), not O(matrix). The per-document
        arithmetic is chunking-independent, so every row is bit-identical
        to the monolithic path on the same backend; only the container
        differs. The returned result's ``matrix`` is a
        :class:`~repro.tiles.matrix.TiledCsrMatrix` view owning the store.
        Without ``tile_docs`` the tiles are cut to the store's memory
        budget (:func:`_tile_cuts`).
        """
        from repro.tiles.matrix import TiledCsrMatrix

        # Replays (degrade mode re-runs a phase after a pool death) must
        # not append onto a half-written tile set.
        store.reset()
        if tile_docs is None or tile_docs < 1:
            cuts = _tile_cuts(wc.block.indptr, store.memory_budget)
        else:
            cuts = _even_cuts(wc.n_docs, tile_docs)
        vocabulary, idf, tiles, _ = self._transform(wc, backend, grain, cuts)
        n_cols = len(vocabulary)
        n_rows = 0
        for tile in tiles:
            tile = concat_csr(tile)
            # At the running row count, not the tile's first document:
            # a quarantined document leaves no row behind.
            self._append_tile(store, n_rows, n_cols, tile)
            n_rows += len(tile[0]) - 1
        return TfIdfResult(
            matrix=TiledCsrMatrix(store.seal(n_cols), store=store),
            vocabulary=vocabulary,
            idf=idf,
            wordcount=wc,
        )

    @staticmethod
    def _append_tile(store, row_start: int, n_cols: int, tile) -> None:
        """Append one CSR block ``(indptr, indices, data)`` as a tile.

        ``sq_norms`` is the per-row ``float64`` dot product a resident
        block source (:class:`~repro.sparse.matrix.ResidentRows`) applies,
        so the stored norms are the exact doubles the untiled fit would
        compute.
        """
        indptr, indices, data = tile
        sq_norms = np.array(
            [float(val @ val) for val in csr_row_views(indptr, indices, data)[1]],
            dtype=np.float64,
        )
        store.append(row_start, n_cols, indptr, indices, data, sq_norms)


def _even_cuts(n: int, rows: int) -> list[int]:
    """Row boundaries of ``n`` rows cut every ``rows`` (none for none)."""
    return [*range(0, n, rows), n] if n else [0]


#: A tile's bytes beyond 16 per row and entry, at most:
#: ``tile_nbytes(rows, nnz) <= _TILE_FIXED + 16 * (rows + nnz)`` — a
#: 48-byte header, one indptr slot more than rows, three alignments of
#: at most 8 bytes each.
_TILE_FIXED = 80


def _tile_cuts(indptr: np.ndarray, memory_budget: int | None) -> list[int]:
    """Row boundaries ``[0, ..., n]`` of the tiles under ``memory_budget``.

    ``indptr`` is the word-count block's: a document's stored entries
    bound its matrix entries from above (pruning only drops some), so a
    range's rows and stored entries bound the file it becomes. Tiles are
    cut at row boundaries by the running ``_TILE_FIXED + 16 * (rows +
    entries)``, each at most a quarter of the budget — room for the
    reader's LRU and the working copies — and a row larger than that
    gets a tile of its own. Without a budget, 4096 rows a tile.
    """
    n = len(indptr) - 1
    if memory_budget is None:
        return _even_cuts(n, 4096)
    target = memory_budget // 4
    cost = 16 * (np.arange(n + 1, dtype=np.int64) + indptr)
    cuts = [0]
    while cuts[-1] < n:
        start = cuts[-1]
        stop = int(np.searchsorted(
            cost, cost[start] + target - _TILE_FIXED, side="right"
        )) - 1
        cuts.append(min(n, max(start + 1, stop)))
    return cuts

