"""Shared benchmark harness: workload preparation and experiment runners.

Benchmarks run the real operators on a scaled-down synthetic corpus and
meter costs up to full scale through a
:class:`~repro.sim.cost_model.WorkloadScale` (documents scale linearly,
vocabulary by the Heaps curve), so every reported number is directly a
full-scale virtual-time figure. Prepared workloads are cached per
(profile, scale, seed) because several benchmarks sweep the same corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.io.corpus_io import store_corpus
from repro.io.storage import MemStorage
from repro.sim.cost_model import DEFAULT_COSTS, CostConstants, WorkloadScale
from repro.sim.machine import paper_node
from repro.sim.scheduler import SimScheduler
from repro.sim.workflow import WorkflowResult, build_tfidf_kmeans_workflow
from repro.text.corpus import CorpusStats
from repro.text.synth import CorpusProfile, generate_corpus

__all__ = [
    "Workload",
    "prepare_workload",
    "run_paper_workflow",
    "DEFAULT_BENCH_SCALE",
    "THREAD_SWEEP",
    "FIG3_THREADS",
]

#: Corpus scale used by the benchmark suite (documents multiplier).
DEFAULT_BENCH_SCALE = 0.01

#: Thread counts of Figures 1 and 2.
THREAD_SWEEP = (1, 2, 4, 8, 12, 16, 20)

#: Thread counts of Figures 3 and 4.
FIG3_THREADS = (1, 4, 8, 12, 16)


@dataclass
class Workload:
    """A prepared benchmark input: stored corpus + extrapolation factors."""

    profile: CorpusProfile
    storage: MemStorage
    prefix: str
    stats: CorpusStats
    scale: WorkloadScale

    @property
    def n_docs(self) -> int:
        return self.stats.documents


_CACHE: dict[tuple[str, float, int], Workload] = {}


def prepare_workload(
    profile: CorpusProfile, scale: float = DEFAULT_BENCH_SCALE, seed: int = 0
) -> Workload:
    """Generate, store and statistically characterise a corpus (cached)."""
    key = (profile.name, scale, seed)
    if key in _CACHE:
        return _CACHE[key]
    corpus = generate_corpus(profile, scale=scale, seed=seed)
    storage = MemStorage()
    store_corpus(storage, corpus, prefix="in/")
    stats = corpus.stats()
    workload = Workload(
        profile=profile,
        storage=storage,
        prefix="in/",
        stats=stats,
        scale=WorkloadScale.for_corpus(
            full_docs=profile.n_docs,
            actual_docs=stats.documents,
            full_vocab=max(1, profile.expected_vocabulary()),
            actual_vocab=max(1, stats.distinct_words),
        ),
    )
    _CACHE[key] = workload
    return workload


def run_paper_workflow(
    workload: Workload,
    mode: str = "merged",
    wc_dict_kind: str = "map",
    transform_dict_kind: str | None = None,
    workers: int = 16,
    cores: int = 20,
    max_iters: int = 10,
    costs: CostConstants = DEFAULT_COSTS,
) -> WorkflowResult:
    """Run the TF/IDF → K-means workflow on a prepared workload.

    Returns the full-scale-extrapolated :class:`WorkflowResult`.
    """
    workflow = build_tfidf_kmeans_workflow(
        mode=mode,
        wc_dict_kind=wc_dict_kind,
        transform_dict_kind=transform_dict_kind,
        max_iters=max_iters,
        costs=costs,
        scale=workload.scale,
    )
    scheduler = SimScheduler(paper_node(max(cores, workers)))
    return workflow.run(
        scheduler,
        workload.storage,
        inputs={"tfidf.corpus_prefix": workload.prefix},
        workers=workers,
    )
