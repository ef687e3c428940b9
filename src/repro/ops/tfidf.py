"""TF/IDF operator: word count → transform → (optional) ARFF output.

Mirrors the paper's implementation (§3.2):

* **Phase 1 — input+wc** (parallel): per-document term frequencies and the
  global term → document-count dictionary (:mod:`repro.ops.wordcount`).
* **Phase 2a — transform** (parallel with a serial vocabulary/index
  prefix): per-document sparse TF/IDF vectors, sorted by term id and
  L2-normalized.
* **Phase 2b — tfidf-output** (serial): the sparse vectors written as an
  ARFF file. The format forces single-threaded output — the key fact
  behind Figure 3.

The dictionary implementation is pluggable *per phase*: the word-count
phase and the transform/output phases may use different kinds, which is
exactly the optimization opportunity §3.4 describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, compress, repeat

import numpy as np

from repro.core.cost_model import (
    DEFAULT_COSTS,
    UNIT_SCALE,
    CostConstants,
    WorkloadScale,
)
from repro.dicts.api import Dictionary
from repro.dicts.cost import profile_for_kind
from repro.dicts.factory import make_dict
from repro.errors import OperatorError
from repro.exec.inline import ExecutionBackend, SequentialBackend
from repro.exec.metrics import Timeline
from repro.exec.scheduler import SimScheduler
from repro.exec.task import TaskCost
from repro.ops import kernels
from repro.io.arff import arff_lines
from repro.io.corpus_io import corpus_paths
from repro.io.storage import Storage
from repro.ops.wordcount import WordCountResult, WordCountStep
from repro.sparse.blocks import TermBlock, concat_csr
from repro.sparse.matrix import CsrMatrix, csr_row_views
from repro.sparse.vector import SparseVector
from repro.text.corpus import Corpus
from repro.text.tokenizer import Tokenizer

__all__ = [
    "TfIdfResult",
    "TfIdfOperator",
    "PHASE_TRANSFORM",
    "PHASE_TFIDF_OUTPUT",
]

PHASE_TRANSFORM = "transform"
PHASE_TFIDF_OUTPUT = "tfidf-output"


@dataclass
class TfIdfResult:
    """Output of the TF/IDF operator."""

    #: Normalized TF/IDF scores, one row per document (sorted term ids).
    matrix: CsrMatrix
    #: Term strings indexed by term id.
    vocabulary: list[str]
    #: Inverse document frequency per term id.
    idf: list[float]
    #: Phase-1 result (kept alive between phases in the fused workflow).
    wordcount: WordCountResult
    #: Virtual-time record of all executed phases.
    timeline: Timeline = field(default_factory=Timeline)

    @property
    def n_docs(self) -> int:
        return self.matrix.n_rows

    def resident_bytes(self) -> int:
        """Memory held while the operator's state is live (Figure 4)."""
        scale = self.wordcount.scale
        vocab_bytes = sum(len(t) + 8 for t in self.vocabulary) + 8 * len(self.idf)
        return int(
            self.wordcount.resident_bytes()
            + self.matrix.resident_bytes() * scale.doc_factor
            + vocab_bytes * scale.vocab_factor
        )


class TfIdfOperator:
    """Configurable TF/IDF operator.

    Parameters
    ----------
    wc_dict_kind / transform_dict_kind:
        Dictionary implementation per phase (``"map"``, ``"unordered_map"``
        or ``"dict"``). ``transform_dict_kind`` defaults to the word-count
        kind.
    reserve:
        Pre-size hint for hash dictionaries (paper: 4K).
    min_df:
        Drop terms that occur in fewer than this many documents. The
        default (1) keeps everything, as the paper's operator does;
        higher values prune hapax terms, which markedly improves
        clustering quality on small corpora.
    """

    def __init__(
        self,
        wc_dict_kind: str = "map",
        transform_dict_kind: str | None = None,
        reserve: int = 4096,
        tokenizer: Tokenizer | None = None,
        costs: CostConstants = DEFAULT_COSTS,
        scale: WorkloadScale = UNIT_SCALE,
        min_df: int = 1,
        parallel_transform: bool = True,
    ) -> None:
        if min_df < 1:
            raise OperatorError(f"min_df must be >= 1, got {min_df}")
        self.wc_dict_kind = wc_dict_kind
        self.transform_dict_kind = transform_dict_kind or wc_dict_kind
        self.reserve = reserve
        self.tokenizer = tokenizer or Tokenizer()
        self.costs = costs
        self.scale = scale
        self.min_df = min_df
        #: §3.2's standalone operator leaves phase 2 serial; the fused
        #: workflow parallelises it (Figure 4 plots its scaling).
        self.parallel_transform = parallel_transform
        self.wordcount = WordCountStep(
            dict_kind=wc_dict_kind,
            reserve=reserve,
            tokenizer=self.tokenizer,
            costs=costs,
            scale=scale,
        )
        self._transform_profile = profile_for_kind(
            make_dict(self.transform_dict_kind, reserve).kind
        )

    # -- vocabulary / transform -------------------------------------------------------

    def build_vocabulary(
        self, wc: WordCountResult, cost: TaskCost
    ) -> tuple[list[str], list[float]]:
        """Sorted vocabulary and idf table from the df dictionary.

        The serial prefix of the transform phase: iterating the df
        dictionary (sorted for free on the tree, explicitly sorted on the
        hash map). Paths that look terms up parent-side follow it with
        :meth:`build_index`. A backend result is read off its term block
        instead — two columns, no dictionary, nothing charged to ``cost``
        (the simulated path is the authority on cost).
        """
        if wc.block is not None:
            counts, kept, vocabulary = self._own_vocabulary(wc.block)
            n_docs = wc.n_docs
            # math.log as below (np.log may round differently), once per
            # possible count — a term is in at most ``n_docs`` documents.
            by_count = np.array([0.0] + [
                math.log(n_docs / count)
                for count in range(1, int(counts.max(initial=0)) + 1)
            ])
            return vocabulary, by_count[counts[kept]].tolist()
        df_profile = profile_for_kind(wc.df.kind)
        df_before = wc.df.stats.copy()
        entries = wc.df.items_sorted()
        df_delta = wc.df.stats.delta(df_before)
        cost.cpu_s += df_profile.cpu_seconds(df_delta)
        cost.mem_bytes += df_profile.memory_traffic(df_delta)
        if wc.df.kind != "map":
            # Hash iteration order is arbitrary: charge the explicit sort.
            n = max(1, len(entries))
            cost.cpu_s += (
                n * math.log2(n) * self.costs.vocab_sort_ns_per_cmp * 1e-9
            )

        if self.min_df > 1:
            entries = [entry for entry in entries if entry[1] >= self.min_df]

        n_docs = wc.n_docs
        vocabulary = [term for term, _ in entries]
        idf = [math.log(n_docs / count) if count else 0.0 for _, count in entries]
        cost.cpu_s += len(entries) * self.costs.tfidf_score_ns * 1e-9
        return vocabulary, idf

    def _own_vocabulary(
        self, block: TermBlock
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """The ``min_df`` cut of a term-sorted block: its document counts,
        the mask of terms that survive, and those terms — the vocabulary
        (a fresh list of the block's own string objects)."""
        counts = block.df_counts
        kept = counts >= self.min_df
        return counts, kept, list(compress(block.terms, kept.tolist()))

    def build_index(self, vocabulary: list[str], cost: TaskCost) -> Dictionary:
        """The instrumented term → id dictionary of the inline paths."""
        index = make_dict(self.transform_dict_kind, reserve=max(self.reserve, 1))
        for term_id, term in enumerate(vocabulary):
            index.put(term, term_id)
        cost.cpu_s += self._transform_profile.cpu_seconds(index.stats)
        cost.mem_bytes += self._transform_profile.memory_traffic(index.stats)
        return index

    def transform_document(
        self,
        tf: Dictionary,
        index: Dictionary,
        idf: list[float],
        cost: TaskCost,
    ) -> SparseVector:
        """One document's normalized TF/IDF vector (the transform kernel)."""
        tf_profile = profile_for_kind(tf.kind)
        tf_before = tf.stats.copy()
        index_before = index.stats.copy()

        pairs: list[tuple[int, float]] = []
        for term, count in tf.items():
            term_id = index.get(term)
            if term_id is None:
                if self.min_df > 1:
                    continue  # pruned below the document-frequency cutoff
                raise OperatorError(f"term {term!r} missing from vocabulary index")
            pairs.append((term_id, count * idf[term_id]))
        pairs.sort()

        for profile, stats, before in (
            (tf_profile, tf.stats, tf_before),
            (self._transform_profile, index.stats, index_before),
        ):
            delta = stats.delta(before)
            cost.cpu_s += profile.cpu_seconds(delta)
            cost.mem_bytes += profile.memory_traffic(delta)
        nnz = len(pairs)
        cost.cpu_s += nnz * (
            self.costs.tfidf_score_ns + self.costs.sparse_build_ns_per_entry
        ) * 1e-9
        cost.mem_bytes += nnz * self.costs.sparse_build_bytes_per_entry

        vector = SparseVector(
            [term_id for term_id, _ in pairs], [score for _, score in pairs]
        )
        return vector.normalized()

    # -- simulated execution --------------------------------------------------------------

    def run_simulated(
        self,
        scheduler: SimScheduler,
        storage: Storage,
        input_prefix: str,
        workers: int | None = None,
        output_path: str | None = None,
    ) -> TfIdfResult:
        """Execute the full operator on the simulated machine.

        When ``output_path`` is given, the serial ARFF output phase runs
        (discrete workflow); otherwise the scores stay in memory (fused
        workflow, paper §3.3).
        """
        T = scheduler.machine.effective_workers(workers)
        timeline = Timeline()

        paths = corpus_paths(storage, input_prefix)
        if not paths:
            raise OperatorError(f"no input documents under {input_prefix!r}")
        wc, wc_timings = self.wordcount.run_simulated(
            scheduler, storage, paths, workers=T
        )
        for timing in wc_timings:
            timeline.add(timing)

        # Serial prefix of the transform: vocabulary, idf, term-id index.
        index_cost = TaskCost()
        vocabulary, idf = self.build_vocabulary(wc, index_cost)
        index = self.build_index(vocabulary, index_cost)
        timeline.add(
            scheduler.serial_phase(
                index_cost.scaled(self.scale.vocab_factor), name=PHASE_TRANSFORM
            )
        )

        # Transform over documents: parallel round-robin shards, or one
        # serial task when the operator is configured per §3.2.
        transform_workers = T if self.parallel_transform else 1
        shard_costs = [TaskCost() for _ in range(transform_workers)]
        rows: list[SparseVector] = []
        for doc_index, tf in enumerate(wc.doc_tfs):
            rows.append(
                self.transform_document(
                    tf, index, idf, shard_costs[doc_index % transform_workers]
                )
            )
        timeline.add(
            scheduler.simulate_phase(
                [cost.scaled(self.scale.doc_factor) for cost in shard_costs],
                workers=transform_workers,
                name=PHASE_TRANSFORM,
            )
        )

        matrix = CsrMatrix.from_rows(rows, n_cols=len(vocabulary))
        result = TfIdfResult(
            matrix=matrix,
            vocabulary=vocabulary,
            idf=idf,
            wordcount=wc,
            timeline=timeline,
        )

        if output_path is not None:
            self.write_arff_simulated(scheduler, storage, result, output_path)
        return result

    def write_arff_simulated(
        self,
        scheduler: SimScheduler,
        storage: Storage,
        result: TfIdfResult,
        output_path: str,
        phase_name: str = PHASE_TFIDF_OUTPUT,
    ) -> None:
        """Serial ARFF output phase (the format forbids parallel writing)."""
        cost = TaskCost()
        chunks: list[str] = []
        for line in arff_lines(
            "tfidf", result.vocabulary, result.matrix.iter_rows(), sparse=True
        ):
            chunks.append(line)
        document = "\n".join(chunks) + "\n"
        cost.cpu_s += len(document) * self.costs.arff_serialize_ns_per_byte * 1e-9
        cost.mem_bytes += len(document) * self.costs.arff_bytes_per_byte
        cost.add(storage.write(output_path, document))
        result.timeline.add(
            scheduler.serial_phase(
                cost.scaled(self.scale.doc_factor), name=phase_name
            )
        )

    # -- functional execution ---------------------------------------------------------------

    def fit_transform(
        self, corpus: Corpus, backend: ExecutionBackend | None = None
    ) -> TfIdfResult:
        """Compute TF/IDF for an in-memory or streamed corpus (no simulation).

        ``corpus`` may be a materialized :class:`~repro.text.corpus.Corpus`
        or a lazy :class:`~repro.io.parallel_read.DocumentStream`; with a
        stream, phase 1 consumes documents as reads complete, overlapping
        input with tokenization (paper §3.2). The returned result has an
        empty timeline; use :meth:`run_simulated` for performance studies.
        With a ``backend`` both parallel phases (word count and transform)
        run on it; the output matrix is bit-identical to the inline path
        regardless of backend, worker count, or read-worker count.
        """
        wc = self.wordcount.run(corpus, backend=backend)
        return self.transform_wordcount(wc, backend=backend)

    def bind(
        self, wc: WordCountResult, vocabulary: list[str], idf: list[float]
    ) -> TermBlock:
        """The corpus block bound to a vocabulary: what the transform
        kernel consumes, a row range (``bound[a:b]``) at a time.

        Binding maps each of the block's (sorted) terms to its vocabulary
        id (``-1`` = pruned by ``min_df``) and its idf weight. Handed the
        block's own vocabulary — what :meth:`build_vocabulary` made of it,
        the same string objects, so the comparison is pointer-fast — the
        ids follow from the ``min_df`` mask; any other vocabulary (the
        cache composing shards against a corpus-wide one) is looked up
        term by term.
        """
        block = wc.term_block()
        terms = block.terms
        _, kept, own = self._own_vocabulary(block)
        if vocabulary == own:
            gmap = np.where(kept, np.cumsum(kept) - 1, -1).astype(np.int32)
        else:
            index = {term: term_id for term_id, term in enumerate(vocabulary)}
            gmap = np.fromiter(
                map(index.get, terms, repeat(-1)),
                dtype=np.int32, count=len(terms),
            )
            kept = gmap >= 0
            if self.min_df == 1 and not kept.all():
                term = terms[int(np.flatnonzero(~kept)[0])]
                raise OperatorError(
                    f"term {term!r} missing from vocabulary index"
                )
        weights = np.zeros(len(terms), dtype=np.float64)
        weights[kept] = np.asarray(idf)[gmap[kept]]
        return block.bound(gmap, weights)

    def _transform(
        self,
        wc: WordCountResult,
        backend: ExecutionBackend | None,
        grain: int | None,
        tile_docs: int | None,
    ):
        """Phase 2a, the one driver: ``(vocabulary, idf, tiles, rows_out)``.

        The vocabulary/idf build stays serial (it is the phase's serial
        prefix in the paper too), and so does mapping the corpus block's
        terms onto it. ``tiles`` then yields the scored rows ``tile_docs``
        documents at a time (``None``: all at once), each tile a list of
        CSR blocks in row order — what the caller concatenates into a
        resident matrix or spills. On a backend the per-document scoring
        runs in chunks, each task a self-contained row range of the bound
        block — workers hold no transform state, and no term string is
        shipped; without one it is the inline reference, a document at a
        time over instrumented dictionaries. A resident transform on a
        backend that can allocate a shared segment (``rows_out``) has
        its workers write the rows straight into it (its tiles are then
        empty), and no row crosses a pipe.
        """
        scratch = TaskCost()
        vocabulary, idf = self.build_vocabulary(wc, scratch)
        n_docs = len(wc.doc_tfs)
        rows_out = None
        if backend is None:
            index = self.build_index(vocabulary, scratch)

            def rows(start: int, stop: int) -> list:
                return [CsrMatrix.from_rows(
                    self.transform_document(tf, index, idf, scratch)
                    for tf in wc.doc_tfs[start:stop]
                ).as_arrays()]
        else:
            backend.begin_phase(PHASE_TRANSFORM)
            bound = self.bind(wc, vocabulary, idf)
            if tile_docs is None and not backend.resilience.quarantining:
                # Quarantine may drop rows, which a preallocated matrix
                # cannot absorb: those runs return their rows by value.
                offsets = self._entry_offsets(bound)
                rows_out = backend.allocate_arrays("rows", [
                    ("indptr", np.int64, (n_docs + 1,)),
                    ("indices", np.intp, (int(offsets[-1]),)),
                    ("values", np.float64, (int(offsets[-1]),)),
                    ("sq_norms", np.float64, (n_docs,)),  # k-means adds them
                ])

            def rows(start: int, stop: int) -> list:
                step = grain or backend.phase_grain(stop - start)
                ranges = [
                    (at, min(at + step, stop)) for at in range(start, stop, step)
                ]
                if rows_out is None:
                    return self._map_chunks(
                        backend, [bound[a:b] for a, b in ranges], start
                    )
                # Written in place: no block comes back.
                backend.map(
                    partial(kernels.transform_into, rows_out.descriptor()),
                    [(bound[a:b], a, int(offsets[a])) for a, b in ranges],
                    grain=1,
                )
                return []
        tile_docs = tile_docs or max(1, n_docs)
        tiles = (
            rows(start, min(n_docs, start + tile_docs))
            for start in range(0, n_docs, tile_docs)
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

    @staticmethod
    def _map_chunks(
        backend: ExecutionBackend, chunks: list[TermBlock], first_doc: int
    ) -> list:
        """Bound row ranges → one CSR block each, on the backend.

        ``bisect_items`` lets quarantine mode isolate a single poisoned
        document inside a chunk (its rows are then simply absent from the
        blocks returned); what was isolated is reported as document
        indices, counted from ``first_doc`` — the index of the first row
        of ``chunks[0]``.
        """
        quarantined_before = len(backend.quarantine.items)
        parts = backend.map(
            kernels.transform_chunk, chunks, grain=1, bisect_items=True
        )
        new_items = backend.quarantine.items[quarantined_before:]
        if new_items:
            starts = list(accumulate(map(len, chunks), initial=first_doc))
            backend.quarantine.note_docs(
                doc
                for item in new_items
                for doc in range(
                    starts[item.item_index] + item.sub_start,
                    starts[item.item_index] + item.sub_start + item.n_units,
                )
            )
        return parts

    def transform_wordcount(
        self,
        wc: WordCountResult,
        backend: ExecutionBackend | None = None,
        grain: int | None = None,
    ) -> TfIdfResult:
        """Phase 2a over an existing word-count result (no simulation),
        into one resident matrix (see :meth:`_transform`)."""
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

    def transform_chunks(
        self, chunks: list[TermBlock], backend: ExecutionBackend | None = None
    ) -> list:
        """Transform bound row ranges (``bind(...)[a:b]`` — the cache's
        changed shards) into one CSR block each, bit-identically to the
        full transform."""
        backend = backend or SequentialBackend()
        backend.begin_phase(PHASE_TRANSFORM)
        return self._map_chunks(backend, chunks, 0)

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
        ``tile_docs`` defaults to what fits the store's memory budget.
        """
        from repro.tiles.matrix import TiledCsrMatrix

        # Replays (degrade mode re-runs a phase after a pool death) must
        # not append onto a half-written tile set.
        store.reset()
        if tile_docs is None or tile_docs < 1:
            tile_docs = _rows_per_tile(wc, store.memory_budget)
        vocabulary, idf, tiles, _ = self._transform(wc, backend, grain, tile_docs)
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


def _rows_per_tile(wc: WordCountResult, memory_budget: int | None) -> int:
    """Rows per tile under ``memory_budget``, from phase-1 statistics.

    Deliberately an *overestimate* of per-document bytes (every token
    priced as a distinct nonzero), so a tile plus its working copies
    land well inside the budget — the target is a quarter of it.
    """
    n = wc.n_docs
    if memory_budget is None:
        return max(1, min(n, 4096))
    if n <= 0:
        return 1
    per_doc = 24.0 * (wc.total_tokens / n) + 40.0
    docs = int((memory_budget / 4) // per_doc)
    return max(1, min(n, docs))
