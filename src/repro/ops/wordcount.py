"""Word-count step: per-document term frequencies + document frequencies.

This is phase 1 of the TF/IDF operator (paper §3.2): read each document,
tokenize it, build a per-document term-frequency dictionary, and maintain a
global term → document-count dictionary. The phase parallelises over
documents; the global dictionary is kept contention-free the way a Cilk
reducer would — every worker counts into a private dictionary and the
privates are merged in a reduction tree afterwards.

The simulated run (:meth:`WordCountStep.run_simulated`) performs all
dictionary work for real on the configured implementation
(``map``/``unordered_map``) and converts the operation counts into
simulated time through the dictionary cost profiles. The real run
(:meth:`WordCountStep.run`) computes the same counts on an execution
backend, as one columnar block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro.core.cost_model import DEFAULT_COSTS, UNIT_SCALE, CostConstants, WorkloadScale
from repro.dicts.api import Dictionary
from repro.dicts.cost import DictCostProfile, profile_for_kind
from repro.dicts.factory import make_dict
from repro.exec.inline import ExecutionBackend, SequentialBackend
from repro.exec.scheduler import PhaseTiming, SimScheduler
from repro.exec.task import TaskCost
from repro.io.storage import Storage
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
    """Output of the word-count step.

    A real run holds its counts as one columnar ``block`` (rows aligned
    with ``paths``). A simulated run instead fills ``doc_tfs`` and ``df``
    with the instrumented dictionaries it counted into: keeping the
    per-document dictionaries alive until the transform step is what
    makes the fused workflow memory-hungry under ``unordered_map``
    (Figure 4's 12.8 GB) and compact under ``map`` (420 MB).
    """

    paths: list[str]
    doc_token_counts: list[int]
    input_bytes: int = 0
    total_tokens: int = 0
    #: Extrapolation factors the producing step was configured with.
    scale: WorkloadScale = UNIT_SCALE
    #: The corpus block of a real run; ``None`` on a simulated result.
    block: TermBlock | None = None
    #: The instrumented dictionaries of a simulated run; ``None`` on a
    #: real result.
    doc_tfs: list[Dictionary] | None = None
    df: Dictionary | None = None

    @classmethod
    def from_block(
        cls,
        block: TermBlock,
        paths: list[str],
        input_bytes: int,
        scale: WorkloadScale,
    ) -> "WordCountResult":
        """The result a real run (or the cache) builds from the corpus
        block."""
        doc_tokens = block.token_counts.tolist()
        return cls(
            paths=paths,
            doc_token_counts=doc_tokens,
            input_bytes=input_bytes,
            total_tokens=sum(doc_tokens),
            scale=scale,
            block=block,
        )

    @property
    def n_docs(self) -> int:
        return len(self.doc_token_counts)

    def resident_bytes(self) -> int:
        """Modelled memory held by the dictionaries of a simulated result.

        Extrapolated: the global df dictionary grows with the vocabulary,
        the per-document dictionaries with the document count.
        """
        per_doc = sum(tf.resident_bytes() for tf in self.doc_tfs)
        return int(
            self.df.resident_bytes() * self.scale.vocab_factor
            + per_doc * self.scale.doc_factor
        )


class WordCountStep:
    """Configurable word-count step (dictionary kind, pre-size, tokenizer)."""

    def __init__(
        self,
        dict_kind: str = "map",
        reserve: int = 4096,
        tokenizer: Tokenizer | None = None,
        costs: CostConstants = DEFAULT_COSTS,
        scale: WorkloadScale = UNIT_SCALE,
    ) -> None:
        self.dict_kind = dict_kind
        self.reserve = reserve
        self.tokenizer = tokenizer or Tokenizer()
        self.costs = costs
        self.scale = scale
        self._profile: DictCostProfile = profile_for_kind(
            make_dict(dict_kind, reserve).kind
        )

    # -- per-document kernel ---------------------------------------------------------

    def count_document(
        self, text: str, df: Dictionary, cost: TaskCost
    ) -> tuple[Dictionary, int]:
        """Count one document into a fresh TF dictionary; update ``df``.

        Returns ``(tf_dict, token_count)`` and accumulates the virtual cost
        of tokenization and all dictionary operations into ``cost``.
        """
        tokenized = self.tokenizer.tokenize(text)
        cost.cpu_s += (
            tokenized.bytes_processed * self.costs.tokenize_ns_per_byte
            + tokenized.n_tokens * self.costs.token_fixed_ns
        ) * 1e-9
        cost.mem_bytes += tokenized.bytes_processed * self.costs.tokenize_bytes_per_byte

        tf = make_dict(self.dict_kind, self.reserve)
        for token in tokenized.tokens:
            tf.increment(token)

        df_before = df.stats.copy()
        for term, _ in tf.items():
            df.increment(term)
        # Charge the fresh tf dictionary once: its inserts plus the
        # iteration the df update just performed.
        self._charge(tf, cost)
        df_delta = df.stats.delta(df_before)
        cost.cpu_s += self._profile.cpu_seconds(df_delta)
        cost.mem_bytes += self._profile.memory_traffic(df_delta)
        return tf, tokenized.n_tokens

    def _charge(self, dictionary: Dictionary, cost: TaskCost) -> None:
        """Convert a dictionary's (entire) stats into cost."""
        cost.cpu_s += self._profile.cpu_seconds(dictionary.stats)
        cost.mem_bytes += self._profile.memory_traffic(dictionary.stats)

    # -- merge reduction ---------------------------------------------------------------

    def merge_df_pair(
        self, into: Dictionary, source: Dictionary, cost: TaskCost
    ) -> Dictionary:
        """Merge ``source``'s counts into ``into`` (one reduction-tree node)."""
        into_before = into.stats.copy()
        source_before = source.stats.copy()
        for term, count in source.items():
            into.increment(term, count)
        for stats, before in ((into.stats, into_before), (source.stats, source_before)):
            delta = stats.delta(before)
            cost.cpu_s += self._profile.cpu_seconds(delta)
            cost.mem_bytes += self._profile.memory_traffic(delta)
        return into

    # -- simulated execution --------------------------------------------------------------

    def run_simulated(
        self,
        scheduler: SimScheduler,
        storage: Storage,
        paths: list[str],
        workers: int | None = None,
        phase_name: str = PHASE_INPUT_WC,
    ) -> tuple[WordCountResult, list[PhaseTiming]]:
        """Execute the word-count phase on the simulated machine.

        Documents are dealt round-robin to ``workers`` private shards
        (static scheduling of a balanced loop); each shard is one scheduled
        task whose cost includes its file reads, tokenization and
        dictionary work. Afterwards the private document-frequency
        dictionaries are merged pairwise in parallel reduction levels.
        """
        T = scheduler.machine.effective_workers(workers)
        timings: list[PhaseTiming] = []

        shard_costs = [TaskCost() for _ in range(T)]
        shard_dfs = [make_dict(self.dict_kind, self.reserve) for _ in range(T)]
        doc_tfs: list[Dictionary | None] = [None] * len(paths)
        doc_tokens = [0] * len(paths)
        input_bytes = 0

        for index, path in enumerate(paths):
            worker = index % T
            cost = shard_costs[worker]
            text, read_cost = storage.read(path)
            cost.add(read_cost)
            input_bytes += len(text)
            tf, n_tokens = self.count_document(text, shard_dfs[worker], cost)
            doc_tfs[index] = tf
            doc_tokens[index] = n_tokens

        timings.append(
            scheduler.simulate_phase(
                [cost.scaled(self.scale.doc_factor) for cost in shard_costs],
                workers=T,
                name=phase_name,
            )
        )

        # Reduction tree over the worker-private df dictionaries.
        level = shard_dfs
        while len(level) > 1:
            next_level: list[Dictionary] = []
            merge_costs: list[TaskCost] = []
            for at in range(0, len(level) - 1, 2):
                cost = TaskCost()
                next_level.append(self.merge_df_pair(level[at], level[at + 1], cost))
                merge_costs.append(cost)
            if len(level) % 2:
                next_level.append(level[-1])
            timings.append(
                scheduler.simulate_phase(
                    [cost.scaled(self.scale.vocab_factor) for cost in merge_costs],
                    workers=T,
                    name=phase_name,
                )
            )
            level = next_level

        result = WordCountResult(
            paths=list(paths),
            doc_token_counts=doc_tokens,
            input_bytes=input_bytes,
            total_tokens=sum(doc_tokens),
            scale=self.scale,
            doc_tfs=[tf for tf in doc_tfs if tf is not None],
            df=level[0],
        )
        return result, timings

    # -- functional execution ---------------------------------------------------------------

    def run(
        self,
        texts,
        backend: ExecutionBackend | None = None,
        grain: int | None = None,
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
        Chunks are submitted as the source yields (``map_stream``), so a
        prefetching reader keeps the pool busy while later files are
        still in flight. The counts equal :meth:`run_simulated`'s; use
        that path when dictionary op stats matter.
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

        # Items are already grain-sized chunks — grain=1 stops the process
        # backend's stream micro-batching from batching them again.
        # ``bisect_items`` lets quarantine mode split *inside* a chunk, so
        # one poisoned document is isolated, not its whole chunk.
        quarantined_before = len(backend.quarantine.items)
        try:
            parts = backend.map_stream(
                partial(kernels.count_chunk, slot=slot), chunked(), grain=1,
                bisect_items=True,
            )
        finally:
            # The in-process install is this run's alone; pool workers
            # drop theirs at the next install.
            kernels.release_wordcount_worker(slot)

        # Translate quarantine coordinates (chunk ordinal + offset inside
        # the chunk) into document indices, and drop those documents from
        # the path list so it stays aligned with the surviving rows.
        new_items = backend.quarantine.items[quarantined_before:]
        if new_items:
            dropped: list[int] = []
            for item in new_items:
                base = chunk_starts[item.item_index] + item.sub_start
                dropped.extend(range(base, base + item.n_units))
            backend.quarantine.note_docs(dropped)
            dropped_set = set(dropped)
            paths = [p for i, p in enumerate(paths) if i not in dropped_set]

        # The df merge: one corpus block over the union of the chunks'
        # terms (quarantine bisection may have split a chunk into several).
        return WordCountResult.from_block(
            TermBlock.concat(parts), paths, input_bytes, self.scale
        )
