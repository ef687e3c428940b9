"""One run, one bill (:class:`repro.exec.inline.RunBill`).

``run_pipeline`` sets a fresh bill on every backend a run uses: the
caller's, each one a plan builds and each downgraded one. So a result's
accounting belongs to its run alone, task ids never repeat within a
phase whichever tier ran the task, and a quarantined item is reported
as the input document it came from, in every phase.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import run_pipeline
from repro.exec.faultinject import FaultPlan, FaultSpec
from repro.exec.inline import RunBill, SequentialBackend
from repro.exec.process import make_backend
from repro.exec.resilience import ResilienceConfig, RetryPolicy
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.plan import PhasePlan, RealPlan
from repro.text.corpus import Corpus
from repro.text.synth import MIX_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer

QUARANTINE = ResilienceConfig(
    retry=RetryPolicy(max_attempts=1), on_poison="quarantine"
)
PHASES = ("input+wc", "transform", "kmeans")


class _PoisonTokenizer(Tokenizer):
    """Raises on any document containing the poison word."""

    def split(self, text):
        if "poisonpill" in text:
            raise ValueError("poisoned document")
        return super().split(text)


def _poisoned(corpus, doc: int) -> Corpus:
    texts = [document.text for document in corpus]
    texts[doc] = "poisonpill " + texts[doc]
    return Corpus.from_texts("poisoned", texts)


def _run_poisoned(corpus, doc, backend):
    return run_pipeline(
        _poisoned(corpus, doc), backend=backend,
        tfidf=TfIdfOperator(tokenizer=_PoisonTokenizer()),
        kmeans=KMeansOperator(max_iters=2),
    )


def _assert_one_bill(result):
    """Every task of the run is billed once and spanned once (per
    attempt), under an id no other task of its phase holds."""
    keys = [(s.phase, s.task_id, s.attempt) for s in result.trace.spans]
    assert len(keys) == len(set(keys))
    for phase in PHASES:
        ids = sorted(s.task_id for s in result.trace.phase_spans(phase))
        tasks = result.ipc["phases"][phase]["tasks"]
        # The ids a dead tier drew come first; whoever ran the phase to
        # the end drew the rest.
        assert ids == list(range(tasks - len(ids), tasks))


class TestRunBill:
    def test_next_task_id_is_per_phase(self):
        bill = RunBill()
        assert bill.next_task_id("a") == 0
        assert bill.next_task_id("a") == 1
        assert bill.next_task_id("b") == 0

    def test_a_backend_outside_a_run_has_its_own(self):
        first, second = SequentialBackend(), SequentialBackend()
        assert isinstance(first.bill, RunBill)
        assert first.bill is not second.bill


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.01, seed=3)


def test_a_result_keeps_its_quarantine_when_the_backend_runs_again(corpus):
    with SequentialBackend(QUARANTINE) as backend:
        first = _run_poisoned(corpus, 5, backend)
        second = _run_poisoned(corpus, 9, backend)
        assert backend.bill.quarantine.doc_ids == second.quarantine.doc_ids
    assert first.quarantine is not second.quarantine
    assert first.quarantine.doc_ids == [5]
    assert second.quarantine.doc_ids == [9]
    assert first.ipc["total"]["quarantined"] == 1


def test_a_result_keeps_its_quarantine_when_an_operator_runs_again(corpus):
    """The backend keeps the finished run's bill; the result holds a
    copy of its report, as it holds a snapshot of its IPC counters."""
    tfidf = TfIdfOperator(tokenizer=_PoisonTokenizer())
    poisoned = _poisoned(corpus, 5)
    with SequentialBackend(QUARANTINE) as backend:
        result = run_pipeline(
            poisoned, backend=backend, tfidf=tfidf,
            kmeans=KMeansOperator(max_iters=2),
        )
        tfidf.wordcount.run(poisoned, backend=backend)
        assert backend.bill.quarantine.doc_ids == [5, 5]
    assert result.quarantine.doc_ids == [5]
    assert len(result.quarantine) == 1


def test_transform_quarantine_reports_document_ids(corpus, tmp_path):
    """Rows after a word-count drop are not documents: row 2 is doc 3."""
    with SequentialBackend(QUARANTINE) as backend:
        backend.fault_plan = FaultPlan(
            [FaultSpec("transform", 0, "raise", times=10**6)], str(tmp_path)
        )
        result = _run_poisoned(corpus, 2, backend)
    doc_ids = result.quarantine.doc_ids
    # The word count drops doc 2; the transform's task 0 drops its rows.
    transform = result.quarantine.phase_items("transform")
    n_rows = sum(item.n_units for item in transform)
    assert n_rows > 3
    assert doc_ids == [2, *[doc for doc in range(n_rows + 1) if doc != 2]]
    assert result.tfidf.matrix.n_rows == len(corpus) - len(set(doc_ids))


def test_the_bill_is_continuous_across_a_downgrade(tmp_path):
    corpus = generate_corpus(MIX_PROFILE, scale=0.01, seed=7)
    backend = make_backend("processes", 2, resilience=ResilienceConfig(
        retry=RetryPolicy(max_attempts=3), max_pool_restarts=0
    ))
    backend.fault_plan = FaultPlan(
        [FaultSpec("transform", 0, "exit")], str(tmp_path)
    )
    try:
        result = run_pipeline(corpus, backend=backend, trace=True, degrade=True)
    finally:
        backend.close()
    assert [(e.from_backend, e.to_backend) for e in result.downgrades] == [
        ("processes-2", "threads-2")
    ]
    _assert_one_bill(result)
    # Both tiers on one trace: pool workers ship their payload, threads
    # run it in place. The dead pool's transform tasks left no span.
    assert all(s.in_bytes > 0 for s in result.trace.phase_spans("input+wc"))
    replayed = result.trace.phase_spans("transform")
    assert replayed and all(s.in_bytes == 0 for s in replayed)
    assert result.ipc["phases"]["transform"]["tasks"] > len(replayed)


def test_the_bill_is_continuous_across_a_mixed_tier_plan():
    corpus = generate_corpus(MIX_PROFILE, scale=0.01, seed=7)
    plan = RealPlan(
        phases={
            "input+wc": PhasePlan("input+wc", "processes", 2, False),
            "transform": PhasePlan("transform", "threads", 2),
            "kmeans": PhasePlan("kmeans", "sequential"),
        },
        calibration="test",
        n_docs=len(corpus),
    )
    with SequentialBackend() as backend:
        result = run_pipeline(corpus, backend=backend, plan=plan, trace=True)
        assert backend.bill.ipc.snapshot() == result.ipc
    _assert_one_bill(result)
    for phase in PHASES:
        assert len(result.trace.phase_spans(phase)) == (
            result.ipc["phases"][phase]["tasks"]
        )
    assert all(s.in_bytes > 0 for s in result.trace.phase_spans("input+wc"))
    assert all(s.in_bytes == 0 for s in result.trace.phase_spans("transform"))
