"""repro — Operator and Workflow Optimization for High-Performance Analytics.

A reproduction of Vandierendonck, Murphy, Arif, Sun & Nikolopoulos,
*Operator and Workflow Optimization for High-Performance Analytics*
(MEDAL @ EDBT/ICDT 2016). The library implements the paper's operators
(TF/IDF, sparse K-means), its four intra-node optimizations (parallel
compute, parallel input, workflow fusion, data-structure selection) and a
deterministic virtual-time multicore machine on which every figure and
table of the paper's evaluation can be regenerated.

The package is two systems. This top level exports the *engine*: the
operators and substrates a real run executes (:func:`repro.core.pipeline.run_pipeline`
on :mod:`repro.exec` backends). The *simulator* — the virtual-time node,
the instrumented dictionaries and the paper's workflow layer — is
:mod:`repro.sim`, which the engine never imports.

Quick start::

    from repro import MIX_PROFILE, MemStorage, generate_corpus, store_corpus
    from repro.sim import SimScheduler, build_tfidf_kmeans_workflow, paper_node

    corpus = generate_corpus(MIX_PROFILE, scale=0.01)
    storage = MemStorage()
    store_corpus(storage, corpus, prefix="in/")
    workflow = build_tfidf_kmeans_workflow(mode="merged")
    result = workflow.run(
        SimScheduler(paper_node(16)), storage,
        inputs={"tfidf.corpus_prefix": "in/"}, workers=16,
    )
    print(result.breakdown())
"""

from repro.io import (
    FsStorage,
    MemStorage,
    read_sparse_arff,
    store_corpus,
    write_sparse_arff,
)
from repro.ops import KMeansOperator, KMeansResult, TfIdfOperator, TfIdfResult
from repro.sparse import CsrMatrix, SparseVector
from repro.text import (
    MIX_PROFILE,
    NSF_ABSTRACTS_PROFILE,
    Corpus,
    CorpusProfile,
    Tokenizer,
    generate_corpus,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # operators
    "TfIdfOperator",
    "TfIdfResult",
    "KMeansOperator",
    "KMeansResult",
    # substrates
    "SparseVector",
    "CsrMatrix",
    "Tokenizer",
    "Corpus",
    "CorpusProfile",
    "MIX_PROFILE",
    "NSF_ABSTRACTS_PROFILE",
    "generate_corpus",
    "MemStorage",
    "FsStorage",
    "store_corpus",
    "read_sparse_arff",
    "write_sparse_arff",
]
