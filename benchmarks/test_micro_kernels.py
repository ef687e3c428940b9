"""Per-layer microbenchmarks of the chunk kernels (ROADMAP item 1).

``pytest-benchmark`` timings of the kernels a backend task runs, on the
Mix@0.01 corpus:

* ``count_chunk`` over the whole corpus as one chunk (the byte kernel:
  fold, bound and key the tokens, group them into one chunk block);
* ``TermBlock.concat`` over the corpus counted in nine chunks (the
  parent's df merge, where the union of packed keys is sorted and the
  term strings are materialised);
* the word-count phase as a sequential run does it: count the corpus in
  nine chunks, then ``concat`` them. The byte kernel's gain spans both
  functions, so this is the number to compare across commits;
* ``transform_chunk`` (score and normalise a bound block) over the whole
  corpus, and one k-means iteration of ``_assign_block`` over the fit's
  blocks.

They isolate a layer so it can be tuned without running a pipeline; the
end-to-end gate is ``perfbench``. Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_kernels.py --benchmark-only
"""

import numpy as np
import pytest

from repro.exec.process import make_backend
from repro.ops import kernels
from repro.ops.tfidf import TfIdfOperator
from repro.sparse import CsrMatrix, TermBlock, csr_row_views
from repro.text import MIX_PROFILE, generate_corpus

#: Chunks of the ``concat`` and phase benchmarks: what ``auto_grain``
#: cuts a sequential run of this corpus into.
N_CHUNKS = 9
#: Clusters and documents per block of the ``_assign_block`` benchmark
#: (the operator's defaults at this corpus size).
N_CLUSTERS = 8
BLOCK_DOCS = 32


@pytest.fixture(scope="module")
def texts():
    return [doc.text for doc in generate_corpus(MIX_PROFILE, scale=0.01, seed=7)]


@pytest.fixture(scope="module")
def bound(texts):
    operator = TfIdfOperator()
    wc = operator.wordcount.run(texts, backend=make_backend("sequential", 1))
    vocabulary, idf = operator.build_vocabulary(wc)
    return operator.bind(wc, vocabulary, idf)


def test_micro_count_chunk(benchmark, texts):
    kernels.init_wordcount_worker(TfIdfOperator().tokenizer)
    block = benchmark(kernels.count_chunk, texts)
    assert len(block) == len(texts)
    benchmark.extra_info.update(docs=len(block), nnz=len(block.ids))


def test_micro_transform_chunk(benchmark, bound):
    indptr, _indices, data = benchmark(kernels.transform_chunk, bound)
    assert len(indptr) == len(bound) + 1
    benchmark.extra_info.update(docs=len(bound), nnz=len(data))


def _count_in_chunks(texts):
    grain = -(-len(texts) // N_CHUNKS)
    return [
        kernels.count_chunk(texts[at:at + grain])
        for at in range(0, len(texts), grain)
    ]


def test_micro_concat_chunk_blocks(benchmark, texts):
    kernels.init_wordcount_worker(TfIdfOperator().tokenizer)
    parts = _count_in_chunks(texts)
    assert len(parts) == N_CHUNKS
    block = benchmark(TermBlock.concat, parts)
    assert len(block) == len(texts) and block.terms == sorted(block.terms)
    benchmark.extra_info.update(
        chunks=len(parts), terms=len(block.terms), nnz=len(block.ids),
        chunk_terms=sum(len(part.terms) for part in parts),
    )


def test_micro_wordcount_phase(benchmark, texts):
    kernels.init_wordcount_worker(TfIdfOperator().tokenizer)
    block = benchmark(lambda: TermBlock.concat(_count_in_chunks(texts)))
    assert len(block) == len(texts) and block.terms == sorted(block.terms)
    benchmark.extra_info.update(
        chunks=N_CHUNKS, terms=len(block.terms), nnz=len(block.ids)
    )


def test_micro_assign_block_iteration(benchmark, bound):
    n_cols = len(bound.gmap)  # min_df is 1: every term is a column
    indptr, indices, data = CsrMatrix.from_arrays(
        *kernels.transform_chunk(bound), n_cols=n_cols
    ).as_arrays()
    doc_idx, doc_val = csr_row_views(indptr, indices, data)
    sq_norms = [float(val @ val) for val in doc_val]
    n_docs = len(doc_idx)
    centroids = np.zeros((N_CLUSTERS, n_cols))
    for cluster in range(N_CLUSTERS):
        centroids[cluster, doc_idx[cluster]] = doc_val[cluster]
    centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
    by_column = np.ascontiguousarray(centroids.T)

    def iteration():
        return [
            kernels._assign_block(
                start, min(start + BLOCK_DOCS, n_docs), by_column,
                centroid_sq_norms, doc_idx, doc_val, sq_norms,
            )
            for start in range(0, n_docs, BLOCK_DOCS)
        ]

    results = benchmark(iteration)
    assert sum(len(assign) for assign, *_ in results) == n_docs
    benchmark.extra_info.update(
        docs=n_docs, blocks=len(results), nnz=len(data), clusters=N_CLUSTERS
    )
