"""The paper's operators on the simulated node: dictionaries and virtual time.

The engine's operators (:mod:`repro.ops`) have one real path each. The
functions here run the same operator objects — their tokenizer,
``min_df``, cluster count, seed and seeding rule — the way the paper's
Cilkplus implementation ran them: every term is counted into an
instrumented dictionary (:mod:`repro.dicts`), and every unit of work
declares a :class:`~repro.exec.task.TaskCost` that the scheduler turns
into virtual time. The simulator's own knobs live on :class:`SimConfig`.

* **Word count** (:func:`run_wordcount`, §3.2 phase 1): documents are
  dealt round-robin to per-worker shards; each shard counts into private
  df dictionaries, merged pairwise in reduction levels afterwards — the
  contention-free way a Cilk reducer keeps a global dictionary.
* **TF/IDF** (:func:`run_tfidf`): the word count, a serial vocabulary /
  index prefix, the per-document transform (parallel, or serial per
  §3.2's standalone operator), and optionally the serial ARFF output the
  format forces (:func:`write_arff`, the key fact behind Figure 3). The
  dictionary kind is set per phase, which is exactly the optimization
  opportunity §3.4 describes.
* **K-means** (:func:`run_kmeans`, §3.1). Parallel structure per
  iteration, the source of Figure 1's curves:

  1. *assignment* — parallel over documents in fixed-size chunks of
     :data:`KMEANS_GRAIN_DOCS` documents (the loop grain of the original
     implementation); each active worker accumulates into a private
     partial-centroid buffer (Cilk-reducer style, no locks). The fixed
     grain is what Figure 1 measures: Mix's 23 432 documents yield only
     ~3 chunks — a hard ~2.5-3x speedup ceiling — while NSF Abstracts'
     101 483 documents yield ~12 chunks and keep scaling to ~8x,
     matching the paper's observation that "as the number of documents
     grows, so does the parallel scalability";
  2. *merge* — the worker-private partials are combined the way a Cilk
     reducer combines its views: a chain of (workers − 1) pairwise
     merges executed serially at the end of the parallel loop, each
     streaming the whole K×V buffer through memory. The chain *grows*
     with the worker count, which is why small data sets (Mix, whose
     assignment work is modest relative to K×V) stop scaling early
     while NSF Abstracts keeps climbing — exactly Figure 1;
  3. *finalize* — divide by counts and refresh centroid norms, parallel
     over the K clusters only.

At one core, :func:`run_tfidf` and :func:`run_kmeans` are the reference
every real run is held to, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.dicts.api import Dictionary
from repro.dicts.cost import DictCostProfile, profile_for_kind
from repro.dicts.factory import make_dict
from repro.errors import OperatorError
from repro.exec.task import TaskCost
from repro.io.arff import arff_lines
from repro.io.corpus_io import corpus_paths
from repro.io.storage import Storage
from repro.ops.kmeans import PHASE_KMEANS, _STREAM_ROWS, KMeansOperator, KMeansResult
from repro.ops.tfidf import (
    PHASE_TFIDF_OUTPUT,
    PHASE_TRANSFORM,
    TfIdfOperator,
    TfIdfResult,
)
from repro.ops.wordcount import PHASE_INPUT_WC, WordCountResult, WordCountStep
from repro.sim.cost_model import DEFAULT_COSTS, UNIT_SCALE, CostConstants, WorkloadScale
from repro.sim.machine import MachineSpec
from repro.sim.metrics import Timeline
from repro.sim.scheduler import PhaseTiming, SimScheduler
from repro.sparse.matrix import CsrMatrix
from repro.sparse.vector import SparseVector

__all__ = [
    "KMEANS_GRAIN_DOCS",
    "SimConfig",
    "SimWordCountResult",
    "SimTfIdfResult",
    "SimKMeansResult",
    "count_document",
    "merge_df_pair",
    "run_wordcount",
    "build_vocabulary",
    "build_index",
    "transform_document",
    "run_tfidf",
    "write_arff",
    "assign_block",
    "run_kmeans",
]

#: Scheduling grain of the assignment loop, in full-scale documents.
KMEANS_GRAIN_DOCS = 8192


@dataclass(frozen=True)
class SimConfig:
    """The simulator's knobs for one operator run.

    Parameters
    ----------
    wc_dict_kind / transform_dict_kind:
        Dictionary implementation per phase (``"map"``, ``"unordered_map"``,
        ``"btree"`` or ``"dict"``). ``transform_dict_kind`` defaults to the
        word-count kind.
    reserve:
        Pre-size hint for hash dictionaries (paper: 4K).
    costs:
        Virtual costs of the operators' non-dictionary work.
    scale:
        Extrapolation factors from the scaled corpus to full size.
    parallel_transform:
        §3.2's standalone operator leaves the transform serial; the fused
        workflow parallelises it (Figure 4 plots its scaling).
    grain_docs:
        K-means assignment chunk, in full-scale documents.
    """

    wc_dict_kind: str = "map"
    transform_dict_kind: str | None = None
    reserve: int = 4096
    costs: CostConstants = DEFAULT_COSTS
    scale: WorkloadScale = UNIT_SCALE
    parallel_transform: bool = True
    grain_docs: int = KMEANS_GRAIN_DOCS
    #: Cost profiles of the two phases' dictionaries (derived).
    wc_profile: DictCostProfile = field(init=False, repr=False, compare=False)
    transform_profile: DictCostProfile = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.grain_docs < 1:
            raise OperatorError(f"grain_docs must be >= 1, got {self.grain_docs}")
        # make_dict resolves (and validates) each kind.
        object.__setattr__(self, "wc_profile", profile_for_kind(
            make_dict(self.wc_dict_kind, self.reserve).kind
        ))
        object.__setattr__(self, "transform_profile", profile_for_kind(
            make_dict(self.transform_kind, self.reserve).kind
        ))

    @property
    def transform_kind(self) -> str:
        return self.transform_dict_kind or self.wc_dict_kind


DEFAULT_CONFIG = SimConfig()


def _charge(cost: TaskCost, profile: DictCostProfile, stats) -> None:
    """Convert dictionary op stats into ``cost``."""
    cost.cpu_s += profile.cpu_seconds(stats)
    cost.mem_bytes += profile.memory_traffic(stats)


# -- word count ---------------------------------------------------------------------


@dataclass
class SimWordCountResult(WordCountResult):
    """A simulated word count: the instrumented dictionaries it counted
    into. Keeping the per-document dictionaries alive until the transform
    step is what makes the fused workflow memory-hungry under
    ``unordered_map`` (Figure 4's 12.8 GB) and compact under ``map``
    (420 MB)."""

    #: Extrapolation factors the producing run was configured with.
    scale: WorkloadScale = UNIT_SCALE
    doc_tfs: list[Dictionary] = field(default_factory=list)
    df: Dictionary | None = None

    def resident_bytes(self) -> int:
        """Modelled memory held by the dictionaries.

        Extrapolated: the global df dictionary grows with the vocabulary,
        the per-document dictionaries with the document count.
        """
        per_doc = sum(tf.resident_bytes() for tf in self.doc_tfs)
        return int(
            self.df.resident_bytes() * self.scale.vocab_factor
            + per_doc * self.scale.doc_factor
        )


def count_document(
    step: WordCountStep,
    text: str,
    df: Dictionary,
    cost: TaskCost,
    config: SimConfig = DEFAULT_CONFIG,
) -> tuple[Dictionary, int]:
    """Count one document into a fresh TF dictionary; update ``df``.

    Returns ``(tf_dict, token_count)`` and accumulates the virtual cost
    of tokenization and all dictionary operations into ``cost``.
    """
    costs = config.costs
    tokenized = step.tokenizer.tokenize(text)
    cost.cpu_s += (
        tokenized.bytes_processed * costs.tokenize_ns_per_byte
        + tokenized.n_tokens * costs.token_fixed_ns
    ) * 1e-9
    cost.mem_bytes += tokenized.bytes_processed * costs.tokenize_bytes_per_byte

    tf = make_dict(config.wc_dict_kind, config.reserve)
    for token in tokenized.tokens:
        tf.increment(token)

    df_before = df.stats.copy()
    for term, _ in tf.items():
        df.increment(term)
    # Charge the fresh tf dictionary once: its inserts plus the
    # iteration the df update just performed.
    _charge(cost, config.wc_profile, tf.stats)
    _charge(cost, config.wc_profile, df.stats.delta(df_before))
    return tf, tokenized.n_tokens


def merge_df_pair(
    into: Dictionary,
    source: Dictionary,
    cost: TaskCost,
    config: SimConfig = DEFAULT_CONFIG,
) -> Dictionary:
    """Merge ``source``'s counts into ``into`` (one reduction-tree node)."""
    into_before = into.stats.copy()
    source_before = source.stats.copy()
    for term, count in source.items():
        into.increment(term, count)
    for stats, before in ((into.stats, into_before), (source.stats, source_before)):
        _charge(cost, config.wc_profile, stats.delta(before))
    return into


def run_wordcount(
    step: WordCountStep,
    scheduler: SimScheduler,
    storage: Storage,
    paths: list[str],
    workers: int | None = None,
    phase_name: str = PHASE_INPUT_WC,
    config: SimConfig = DEFAULT_CONFIG,
) -> tuple[SimWordCountResult, list[PhaseTiming]]:
    """Execute the word-count phase on the simulated machine.

    Documents are dealt round-robin to ``workers`` private shards
    (static scheduling of a balanced loop); each shard is one scheduled
    task whose cost includes its file reads, tokenization and
    dictionary work. Afterwards the private document-frequency
    dictionaries are merged pairwise in parallel reduction levels.
    """
    scale = config.scale
    T = scheduler.machine.effective_workers(workers)
    timings: list[PhaseTiming] = []

    shard_costs = [TaskCost() for _ in range(T)]
    shard_dfs = [make_dict(config.wc_dict_kind, config.reserve) for _ in range(T)]
    doc_tfs: list[Dictionary | None] = [None] * len(paths)
    doc_tokens = [0] * len(paths)
    input_bytes = 0

    for index, path in enumerate(paths):
        worker = index % T
        cost = shard_costs[worker]
        text, read_cost = storage.read(path)
        cost.add(read_cost)
        input_bytes += len(text)
        tf, n_tokens = count_document(step, text, shard_dfs[worker], cost, config)
        doc_tfs[index] = tf
        doc_tokens[index] = n_tokens

    timings.append(
        scheduler.simulate_phase(
            [cost.scaled(scale.doc_factor) for cost in shard_costs],
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
            next_level.append(merge_df_pair(level[at], level[at + 1], cost, config))
            merge_costs.append(cost)
        if len(level) % 2:
            next_level.append(level[-1])
        timings.append(
            scheduler.simulate_phase(
                [cost.scaled(scale.vocab_factor) for cost in merge_costs],
                workers=T,
                name=phase_name,
            )
        )
        level = next_level

    result = SimWordCountResult(
        paths=list(paths),
        doc_token_counts=doc_tokens,
        input_bytes=input_bytes,
        total_tokens=sum(doc_tokens),
        scale=scale,
        doc_tfs=[tf for tf in doc_tfs if tf is not None],
        df=level[0],
    )
    return result, timings


# -- TF/IDF -------------------------------------------------------------------------


@dataclass
class SimTfIdfResult(TfIdfResult):
    """A simulated TF/IDF run: the result plus its virtual-time record."""

    #: Virtual-time record of all executed phases.
    timeline: Timeline = field(default_factory=Timeline)

    def resident_bytes(self) -> int:
        """Memory held while the run's state is live (Figure 4)."""
        scale = self.wordcount.scale
        vocab_bytes = sum(len(t) + 8 for t in self.vocabulary) + 8 * len(self.idf)
        return int(
            self.wordcount.resident_bytes()
            + self.matrix.resident_bytes() * scale.doc_factor
            + vocab_bytes * scale.vocab_factor
        )


def build_vocabulary(
    operator: TfIdfOperator,
    wc: SimWordCountResult,
    cost: TaskCost,
    config: SimConfig = DEFAULT_CONFIG,
) -> tuple[list[str], list[float]]:
    """Sorted vocabulary and idf table from the df dictionary.

    The serial prefix of the transform phase: iterating the df
    dictionary (sorted for free on the tree, explicitly sorted on the
    hash map); :func:`build_index` follows it.
    """
    costs = config.costs
    df_before = wc.df.stats.copy()
    entries = wc.df.items_sorted()
    _charge(cost, profile_for_kind(wc.df.kind), wc.df.stats.delta(df_before))
    if wc.df.kind != "map":
        # Hash iteration order is arbitrary: charge the explicit sort.
        n = max(1, len(entries))
        cost.cpu_s += n * math.log2(n) * costs.vocab_sort_ns_per_cmp * 1e-9

    if operator.min_df > 1:
        entries = [entry for entry in entries if entry[1] >= operator.min_df]

    n_docs = wc.n_docs
    vocabulary = [term for term, _ in entries]
    idf = [math.log(n_docs / count) if count else 0.0 for _, count in entries]
    cost.cpu_s += len(entries) * costs.tfidf_score_ns * 1e-9
    return vocabulary, idf


def build_index(
    vocabulary: list[str], cost: TaskCost, config: SimConfig = DEFAULT_CONFIG
) -> Dictionary:
    """The instrumented term → id dictionary of the transform."""
    index = make_dict(config.transform_kind, reserve=max(config.reserve, 1))
    for term_id, term in enumerate(vocabulary):
        index.put(term, term_id)
    _charge(cost, config.transform_profile, index.stats)
    return index


def transform_document(
    operator: TfIdfOperator,
    tf: Dictionary,
    index: Dictionary,
    idf: list[float],
    cost: TaskCost,
    config: SimConfig = DEFAULT_CONFIG,
) -> SparseVector:
    """One document's normalized TF/IDF vector (the transform kernel)."""
    costs = config.costs
    tf_profile = profile_for_kind(tf.kind)
    tf_before = tf.stats.copy()
    index_before = index.stats.copy()

    pairs: list[tuple[int, float]] = []
    for term, count in tf.items():
        term_id = index.get(term)
        if term_id is None:
            if operator.min_df > 1:
                continue  # pruned below the document-frequency cutoff
            raise OperatorError(f"term {term!r} missing from vocabulary index")
        pairs.append((term_id, count * idf[term_id]))
    pairs.sort()

    for profile, stats, before in (
        (tf_profile, tf.stats, tf_before),
        (config.transform_profile, index.stats, index_before),
    ):
        _charge(cost, profile, stats.delta(before))
    nnz = len(pairs)
    cost.cpu_s += nnz * (
        costs.tfidf_score_ns + costs.sparse_build_ns_per_entry
    ) * 1e-9
    cost.mem_bytes += nnz * costs.sparse_build_bytes_per_entry

    vector = SparseVector(
        [term_id for term_id, _ in pairs], [score for _, score in pairs]
    )
    return vector.normalized()


def run_tfidf(
    operator: TfIdfOperator,
    scheduler: SimScheduler,
    storage: Storage,
    input_prefix: str,
    workers: int | None = None,
    output_path: str | None = None,
    config: SimConfig = DEFAULT_CONFIG,
) -> SimTfIdfResult:
    """Execute the full operator on the simulated machine.

    When ``output_path`` is given, the serial ARFF output phase runs
    (discrete workflow); otherwise the scores stay in memory (fused
    workflow, paper §3.3).
    """
    scale = config.scale
    T = scheduler.machine.effective_workers(workers)
    timeline = Timeline()

    paths = corpus_paths(storage, input_prefix)
    if not paths:
        raise OperatorError(f"no input documents under {input_prefix!r}")
    wc, wc_timings = run_wordcount(
        operator.wordcount, scheduler, storage, paths, workers=T, config=config
    )
    for timing in wc_timings:
        timeline.add(timing)

    # Serial prefix of the transform: vocabulary, idf, term-id index.
    index_cost = TaskCost()
    vocabulary, idf = build_vocabulary(operator, wc, index_cost, config)
    index = build_index(vocabulary, index_cost, config)
    timeline.add(
        scheduler.serial_phase(
            index_cost.scaled(scale.vocab_factor), name=PHASE_TRANSFORM
        )
    )

    # Transform over documents: parallel round-robin shards, or one
    # serial task when the operator is configured per §3.2.
    transform_workers = T if config.parallel_transform else 1
    shard_costs = [TaskCost() for _ in range(transform_workers)]
    rows: list[SparseVector] = []
    for doc_index, tf in enumerate(wc.doc_tfs):
        rows.append(
            transform_document(
                operator, tf, index, idf,
                shard_costs[doc_index % transform_workers], config,
            )
        )
    timeline.add(
        scheduler.simulate_phase(
            [cost.scaled(scale.doc_factor) for cost in shard_costs],
            workers=transform_workers,
            name=PHASE_TRANSFORM,
        )
    )

    matrix = CsrMatrix.from_rows(rows, n_cols=len(vocabulary))
    result = SimTfIdfResult(
        matrix=matrix,
        vocabulary=vocabulary,
        idf=idf,
        wordcount=wc,
        timeline=timeline,
    )

    if output_path is not None:
        write_arff(scheduler, storage, result, output_path, config=config)
    return result


def write_arff(
    scheduler: SimScheduler,
    storage: Storage,
    result: SimTfIdfResult,
    output_path: str,
    phase_name: str = PHASE_TFIDF_OUTPUT,
    config: SimConfig = DEFAULT_CONFIG,
) -> None:
    """Serial ARFF output phase (the format forbids parallel writing)."""
    costs = config.costs
    cost = TaskCost()
    chunks: list[str] = []
    for line in arff_lines(
        "tfidf", result.vocabulary, result.matrix.iter_rows(), sparse=True
    ):
        chunks.append(line)
    document = "\n".join(chunks) + "\n"
    cost.cpu_s += len(document) * costs.arff_serialize_ns_per_byte * 1e-9
    cost.mem_bytes += len(document) * costs.arff_bytes_per_byte
    cost.add(storage.write(output_path, document))
    result.timeline.add(
        scheduler.serial_phase(
            cost.scaled(config.scale.doc_factor), name=phase_name
        )
    )


# -- K-means ------------------------------------------------------------------------


@dataclass
class SimKMeansResult(KMeansResult):
    """A simulated clustering plus its virtual-time record."""

    timeline: Timeline = field(default_factory=Timeline)


def assign_block(
    operator: KMeansOperator,
    source,
    start: int,
    stop: int,
    centroids: np.ndarray,
    centroid_sq_norms: np.ndarray,
    partial: np.ndarray,
    counts: np.ndarray,
    assignments: list[int],
    cost: TaskCost,
    config: SimConfig = DEFAULT_CONFIG,
) -> float:
    """Assign documents ``[start, stop)``; accumulate into worker
    partials, a document at a time.

    Returns the block's contribution to inertia and meters the block's
    virtual cost: ``nnz·K`` gather-FMA pairs plus the accumulate. The
    rows are fetched ``_STREAM_ROWS`` at a time; a running buffer and
    a running sum do not care how the documents arrive.
    """
    costs = config.costs
    K = operator.n_clusters
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
    cost.cpu_s += nnz_total * K * costs.kmeans_flop_ns * 1e-9
    cost.mem_bytes += nnz_total * K * costs.kmeans_flop_bytes
    cost.cpu_s += nnz_total * costs.centroid_accumulate_ns * 1e-9
    cost.mem_bytes += nnz_total * 16
    return inertia


def run_kmeans(
    operator: KMeansOperator,
    scheduler: SimScheduler,
    matrix: CsrMatrix,
    workers: int | None = None,
    phase_name: str = PHASE_KMEANS,
    config: SimConfig = DEFAULT_CONFIG,
) -> SimKMeansResult:
    """Cluster ``matrix`` rows, accounting virtual time per iteration.

    The simulator behind Figure 1, and — at one core — the reference
    every real fit is held to. It reads rows through the matrix's
    block source, so a resident and a tiled matrix run this one loop.
    """
    costs, scale = config.costs, config.scale
    machine: MachineSpec = scheduler.machine
    T = machine.effective_workers(workers)
    K = operator.n_clusters
    V = matrix.n_cols
    timeline = Timeline()

    source = matrix.block_source()
    n_docs = source.n_rows
    centroids = operator._init_centroids(source)
    centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
    if operator.init == "kmeans++":
        # Seeding makes K serial passes over all documents.
        total_nnz = matrix.nnz
        timeline.add(
            scheduler.serial_phase(
                TaskCost(
                    cpu_s=K * total_nnz * costs.kmeans_flop_ns * 1e-9,
                    mem_bytes=K * total_nnz * costs.kmeans_flop_bytes,
                ).scaled(scale.doc_factor),
                name=phase_name,
            )
        )

    # Chunk the document loop at the fixed grain. The grain is defined in
    # full-scale documents, so a scaled-down corpus is chunked
    # proportionally (same chunk count as the full corpus).
    actual_grain = max(1, round(config.grain_docs / scale.doc_factor))
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
    for _ in range(operator.max_iters):
        n_iters += 1
        for partial, count in zip(partials, counts):
            partial.fill(0.0)
            count.fill(0)

        # 1. Parallel assignment: one scheduled task per chunk,
        # accumulating into the owning view's partial buffer.
        assign_costs = [TaskCost() for _ in range(len(blocks))]
        inertia = 0.0
        for chunk_id, (start, stop) in enumerate(blocks):
            inertia += assign_block(
                operator,
                source,
                start,
                stop,
                centroids,
                centroid_sq_norms,
                partials[chunk_id % n_views],
                counts[chunk_id % n_views],
                assignments,
                assign_costs[chunk_id],
                config,
            )
        inertia_history.append(inertia)
        timeline.add(
            scheduler.simulate_phase(
                [c.scaled(scale.doc_factor) for c in assign_costs],
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
                cpu_s=(n_views - 1) * K * V * costs.centroid_merge_ns * 1e-9,
                mem_bytes=(n_views - 1) * K * V * costs.centroid_merge_bytes,
            ).scaled(scale.vocab_factor)
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
                    cpu_s=V * costs.centroid_finalize_ns * 1e-9,
                    mem_bytes=V * 16,
                )
            )
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        timeline.add(
            scheduler.simulate_phase(
                [c.scaled(scale.vocab_factor) for c in finalize_costs],
                workers=min(T, K),
                name=phase_name,
            )
        )

        if assignments == previous:
            converged = True
            break
        previous = list(assignments)

    return SimKMeansResult(
        assignments=assignments,
        centroids=centroids,
        n_iters=n_iters,
        inertia=inertia,
        converged=converged,
        inertia_history=inertia_history,
        timeline=timeline,
    )
