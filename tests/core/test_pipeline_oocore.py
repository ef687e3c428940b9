"""run_pipeline under a memory budget: fixed and planned data planes.

The fixed path tiles unconditionally when a budget is given (the caller
asked for bounded memory; honoring it beats second-guessing). The
planned path hands the budget to the adaptive planner, which tiles only
when the predicted matrix footprint exceeds it. Both must report the
spill accounting on the result and keep outputs bit-identical.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

from repro.core.pipeline import output_digest, run_pipeline
from repro.exec.process import make_backend
from repro.exec.resilience import ResilienceConfig
from repro.ops import kernels
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.plan import CalibrationStore
from repro.text import MIX_PROFILE, Corpus, generate_corpus
from repro.tiles.matrix import TiledCsrMatrix

BUDGET = 50_000

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_spec = importlib.util.spec_from_file_location(
    "perfbench_digest", os.path.join(REPO, "perfbench", "digest.py")
)
perfbench_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfbench_digest)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=7)


@pytest.fixture(scope="module")
def calibration(corpus):
    return CalibrationStore.probe(corpus)


def _run(docs, **kw):
    return run_pipeline(
        docs, tfidf=TfIdfOperator(), kmeans=KMeansOperator(max_iters=3), **kw
    )


def _fingerprint(result):
    return (
        [(list(r.indices), list(r.values))
         for r in result.tfidf.matrix.iter_rows()],
        result.kmeans.assignments,
        result.kmeans.centroids.tobytes(),
    )


class TestFixedPath:
    def test_budget_yields_tiled_matrix_and_accounting(self, corpus):
        result = _run(corpus, memory_budget=BUDGET)
        try:
            assert isinstance(result.tfidf.matrix, TiledCsrMatrix)
            stats = result.tiles
            assert stats is not None
            assert stats["tiles"] > 1
            assert stats["memory_budget"] == BUDGET
            assert 0 < stats["peak_pinned_bytes"] <= BUDGET
            assert stats["tile_bytes"] > BUDGET  # genuinely out of core
        finally:
            result.tfidf.matrix.close()

    def test_tiny_budget_still_completes_within_budget(self, corpus):
        # A budget smaller than any single tile is pathological but must
        # not deadlock: the reader always keeps the tile it is serving,
        # so peak pinned degrades to "one tile at a time" — never the
        # whole matrix.
        result = _run(corpus, memory_budget=2_000)
        try:
            stats = result.tiles
            assert stats["tiles"] >= len(corpus) // 2
            assert stats["peak_pinned_bytes"] < stats["tile_bytes"]
            assert stats["evictions"] > 0
        finally:
            result.tfidf.matrix.close()

    def test_close_removes_spill_dir(self, corpus, tmp_path):
        result = _run(corpus, memory_budget=BUDGET)
        spill_dir = result.tiles["spill_dir"]
        assert os.path.isdir(spill_dir)
        result.tfidf.matrix.close()
        assert not os.path.exists(spill_dir)


class TestOutputDigest:
    """perfbench hashes with its own copy of the digest, and its
    ``serve-closed`` workload compares the daemon's digest (this
    program's) against it: the two byte streams must stay one."""

    @pytest.mark.parametrize("memory_budget", [None, BUDGET],
                             ids=["resident", "tiled"])
    def test_program_digest_equals_perfbench_digest(self, corpus,
                                                    memory_budget):
        result = _run(corpus, memory_budget=memory_budget)
        try:
            assert (memory_budget is not None) == isinstance(
                result.tfidf.matrix, TiledCsrMatrix
            )
            assert output_digest(result) == perfbench_digest.output_digest(result)
        finally:
            close = getattr(result.tfidf.matrix, "close", None)
            if close is not None:
                close()


#: Token count of the poisoned document below; no generated one is as long.
_POISON_TOKENS = 4099

_transform_chunk = kernels.transform_chunk


def _poisoned_transform_chunk(block):
    """``kernels.transform_chunk`` for a corpus with one document no
    attempt can score: any row range holding it raises. (Module level:
    the process backend ships the mapped function by reference.)"""
    if (block.token_counts == _POISON_TOKENS).any():
        raise ValueError("poisoned document")
    return _transform_chunk(block)


class TestQuarantineUnderBudget:
    @pytest.mark.parametrize("name,workers", [("sequential", 1), ("processes", 2)])
    def test_poisoned_document_is_isolated_tiled_as_resident(
        self, corpus, monkeypatch, name, workers
    ):
        # One transform body serves both containers, so quarantine mode
        # bisects down to the document and names it either way — and the
        # tiles simply hold one row fewer.
        texts = [doc.text for doc in corpus]
        poisoned = len(texts) // 3
        texts.insert(poisoned, "zyxq " * _POISON_TOKENS)
        docs = Corpus.from_texts("poisoned", texts)
        clean = _run(docs, backend=None)
        assert clean.tfidf.wordcount.doc_token_counts.count(_POISON_TOKENS) == 1
        survivors = [
            row for at, row in enumerate(_fingerprint(clean)[0]) if at != poisoned
        ]
        monkeypatch.setattr(kernels, "transform_chunk", _poisoned_transform_chunk)

        def run(memory_budget):
            backend = make_backend(
                name, workers, resilience=ResilienceConfig(on_poison="quarantine")
            )
            try:
                return _run(docs, backend=backend, memory_budget=memory_budget)
            finally:
                backend.close()

        resident, tiled = run(None), run(BUDGET)
        try:
            assert resident.quarantine.doc_ids == [poisoned]
            assert tiled.quarantine.doc_ids == [poisoned]
            assert tiled.tiles["tiles"] > 1
            assert _fingerprint(resident)[0] == survivors
            assert _fingerprint(tiled) == _fingerprint(resident)
        finally:
            tiled.tfidf.matrix.close()


class TestPlannedPath:
    def test_budget_below_matrix_produces_tiled_plan(
        self, corpus, calibration
    ):
        untiled = _run(corpus, plan="auto", calibration=calibration)
        assert untiled.plan.tiled is False

        planned = _run(
            corpus, plan="auto", calibration=calibration, memory_budget=BUDGET
        )
        try:
            assert planned.plan.tiled is True
            assert planned.plan.memory_budget == BUDGET
            assert "+tiled" in planned.plan.phases["transform"].describe()
            assert planned.tiles is not None
            assert planned.tiles["peak_pinned_bytes"] <= BUDGET
            assert _fingerprint(planned) == _fingerprint(untiled)
        finally:
            planned.tfidf.matrix.close()

    def test_ample_budget_plans_untiled(self, corpus, calibration):
        result = _run(
            corpus, plan="auto", calibration=calibration,
            memory_budget=500_000_000,
        )
        assert result.plan.tiled is False
        assert result.tiles is None
