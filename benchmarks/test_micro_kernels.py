"""Per-layer microbenchmarks of the TF/IDF chunk kernels (ROADMAP item 1).

``pytest-benchmark`` timings of the two kernels a backend task runs, on
the whole Mix@0.01 corpus as one chunk: ``count_chunk`` (tokenize, count,
pack one columnar block) and ``transform_chunk`` (score and normalise a
bound block). They isolate a layer so it can be tuned without running a
pipeline; the end-to-end gate is ``perfbench``. Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_kernels.py --benchmark-only
"""

import pytest

from repro.exec.process import make_backend
from repro.exec.task import TaskCost
from repro.ops import kernels
from repro.ops.tfidf import TfIdfOperator
from repro.text import MIX_PROFILE, generate_corpus


@pytest.fixture(scope="module")
def texts():
    return [doc.text for doc in generate_corpus(MIX_PROFILE, scale=0.01, seed=7)]


@pytest.fixture(scope="module")
def bound(texts):
    operator = TfIdfOperator()
    wc = operator.wordcount.run(texts, backend=make_backend("sequential", 1))
    vocabulary, idf = operator.build_vocabulary(wc, TaskCost())
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
