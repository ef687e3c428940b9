"""Word-count step: per-document term frequencies + document frequencies.

This is phase 1 of the TF/IDF operator (paper §3.2): read each document,
tokenize it, count its terms, and count the documents each term occurs
in. The phase parallelises over documents in chunks: every task counts
its chunk into one columnar :class:`~repro.sparse.blocks.TermBlock`, and
the parent's df merge is one :meth:`TermBlock.concat` over the chunk
blocks — the document frequencies are a column of the corpus block.

The simulator's dictionary-driven run of the same step, which counts
into instrumented dictionaries and meters them into virtual time, is
:func:`repro.sim.operators.run_wordcount`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro.exec.inline import ExecutionBackend, SequentialBackend
from repro.ops import kernels
from repro.sparse.blocks import TermBlock
from repro.text.tokenizer import Tokenizer

__all__ = ["WordCountResult", "WordCountStep", "PHASE_INPUT_WC"]

#: Phase label used in Figure 3/4 breakdowns.
PHASE_INPUT_WC = "input+wc"

#: Chunk size for backend runs over a stream whose length is unknown.
_STREAM_GRAIN = 32


def _iter_named(source) -> Iterator[tuple[str | None, str]]:
    """Yield ``(name, text)`` for each item of a heterogeneous source.

    Accepts plain strings (name ``None``), :class:`~repro.text.corpus.Document`
    objects, and anything iterable over either — a materialized
    :class:`~repro.text.corpus.Corpus` or a lazy
    :class:`~repro.io.parallel_read.DocumentStream`.
    """
    for item in source:
        if isinstance(item, str):
            yield None, item
        else:
            yield item.name, item.text


@dataclass
class WordCountResult:
    """Output of the word-count step: the counts as one columnar
    ``block``, its rows aligned with ``paths``.

    The simulator's result (:class:`repro.sim.operators.SimWordCountResult`)
    holds instrumented dictionaries instead and no block.
    """

    paths: list[str]
    doc_token_counts: list[int]
    input_bytes: int = 0
    total_tokens: int = 0
    #: The corpus block; ``None`` on a simulated result.
    block: TermBlock | None = None
    #: Each row's input document id once quarantine dropped documents
    #: or the run counted part of a corpus; ``None`` when row ``i`` is
    #: document ``i``.
    doc_ids: list[int] | None = None

    @classmethod
    def from_block(
        cls, block: TermBlock, paths: list[str], input_bytes: int,
        doc_ids: list[int] | None = None,
    ) -> "WordCountResult":
        """The result a real run (or the cache) builds from the corpus
        block."""
        doc_tokens = block.token_counts.tolist()
        return cls(
            paths=paths,
            doc_token_counts=doc_tokens,
            input_bytes=input_bytes,
            total_tokens=sum(doc_tokens),
            block=block,
            doc_ids=doc_ids,
        )

    @property
    def n_docs(self) -> int:
        return len(self.doc_token_counts)


class WordCountStep:
    """The word-count step; its one knob is the tokenizer."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self.tokenizer = tokenizer or Tokenizer()

    def run(
        self,
        texts,
        backend: ExecutionBackend | None = None,
        grain: int | None = None,
        doc_ids: list[int] | None = None,
    ) -> WordCountResult:
        """Chunked word count on a real backend (phase-1 parallel loop;
        ``None`` runs it on a :class:`SequentialBackend`).

        ``texts`` may be a list of strings, a
        :class:`~repro.text.corpus.Corpus`, or a lazy
        :class:`~repro.io.parallel_read.DocumentStream` — with a stream,
        counting document *i* overlaps the read of document *i+k* (the
        paper's parallel input, §3.2). Each chunk is one task: the worker
        tokenizes and counts its documents into one columnar block, so
        the parent only merges one term list per chunk
        (:meth:`TermBlock.concat`) instead of re-counting per document.
        Chunks follow the backend's grain rule (one contiguous range per
        worker on a process pool, so the parent's merge sees ``workers``
        blocks). The tokenizer is installed in a slot of this run's own,
        so runs side by side in one process never read each other's.
        ``backend.map`` takes the chunks from a lazy producer and submits
        each as it is cut, so a prefetching reader keeps the pool busy
        while later files are still in flight. The counts equal those of
        the simulator's dictionary reference
        (:func:`repro.sim.operators.run_wordcount`).

        ``doc_ids`` are the corpus ids of ``texts`` when they are part of
        a larger corpus (the changed shards the result cache recomputes):
        a quarantined document is reported under its id, and the
        result's ``doc_ids`` lists each row's. ``None`` numbers the texts
        from 0.
        """
        backend = backend or SequentialBackend()
        backend.begin_phase(PHASE_INPUT_WC)
        slot = kernels.wordcount_slot()
        backend.configure(kernels.init_wordcount_worker, (self.tokenizer, slot))
        if grain is None:
            try:
                n_hint = len(texts)
            except TypeError:
                n_hint = None
            grain = backend.phase_grain(n_hint) if n_hint else _STREAM_GRAIN
        paths: list[str] = []
        input_bytes = 0
        chunk_starts: list[int] = []

        def chunked():
            nonlocal input_bytes
            chunk: list[str] = []
            for name, text in _iter_named(texts):
                paths.append(name if name is not None else f"mem-{len(paths)}")
                input_bytes += len(text)
                chunk.append(text)
                if len(chunk) >= grain:
                    chunk_starts.append(len(paths) - len(chunk))
                    yield chunk
                    chunk = []
            if chunk:
                chunk_starts.append(len(paths) - len(chunk))
                yield chunk

        # One chunk, one task; quarantine mode isolates one poisoned
        # document, not its whole chunk.
        try:
            parts, dropped = backend.map_documents(
                partial(kernels.count_chunk, slot=slot), chunked(),
                chunk_starts, doc_ids,
            )
        finally:
            # The in-process install is this run's alone; pool workers
            # drop theirs at the next install.
            kernels.release_wordcount_worker(slot)

        # Quarantined documents leave the path list, so it stays aligned
        # with the surviving rows, whose document ids are kept.
        rows = None
        if dropped:
            dropped_set = set(dropped)
            rows = [i for i in range(len(paths)) if i not in dropped_set]
            paths = [paths[i] for i in rows]
        if doc_ids is not None:
            rows = [doc_ids[i] for i in rows or range(len(paths))]

        # The df merge: one corpus block over the union of the chunks'
        # terms (quarantine bisection may have split a chunk into several).
        return WordCountResult.from_block(
            TermBlock.concat(parts), paths, input_bytes, rows
        )
