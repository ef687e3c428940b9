"""What a ``processes`` run costs at the process boundary, and that it
still computes the same bytes.

One pool generation per run: phase state is *installed* into the live
workers, and a pool restarted after a crash boots with the latest state.
One task per worker per phase. K-means block results come back through
the gather arena and the transform writes its rows into the matrix's
shared segment, so neither phase returns arrays through the pipes. All
of it on a tiny Mix corpus, processes x 2.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench.oocore_child import output_digest
from repro.core.pipeline import run_pipeline
from repro.exec import process as process_module
from repro.exec import shm as shm_plane
from repro.exec.faultinject import FaultPlan, FaultSpec
from repro.exec.inline import SequentialBackend
from repro.exec.process import ProcessBackend
from repro.exec.resilience import ResilienceConfig, RetryPolicy
from repro.exec.shm import shm_available
from repro.ops import kernels
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text.corpus import Corpus
from repro.text.synth import MIX_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

_WORKERS = 2


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.004, seed=11)


@pytest.fixture(scope="module")
def reference(corpus):
    """The sequential backend's digest: every backend fit must equal it."""
    return output_digest(_run(corpus, SequentialBackend()))


def _run(corpus, backend, **options):
    return run_pipeline(
        corpus, backend=backend, kmeans=KMeansOperator(max_iters=4), **options
    )


# -- worker-side probes (module level: pickled by reference) ---------------------------

_STATE: dict = {}


def _install_tag(tag):
    _STATE["tag"] = tag


def _tag_or_die(item):
    """The installed tag; the first task to see ``marker`` absent kills
    its worker mid-phase."""
    marker, index = item
    time.sleep(0.01)
    if index == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return _STATE["tag"], os.getpid()


def _worker_state(_):
    time.sleep(0.02)  # long enough for every worker to take a probe
    attached = sorted(shm_plane._ATTACHED)
    return (
        os.getpid(),
        len(kernels._KMEANS),
        len(kernels._WORDCOUNT),
        [os.path.exists(f"/dev/shm/{name}") for name in attached],
    )


class _PoisonTokenizer(Tokenizer):
    """Raises on any document containing the poison word."""

    def split(self, text):
        if "poisonpill" in text:
            raise ValueError("poisoned document")
        return super().split(text)


# -- one pool generation per run -------------------------------------------------------


def test_one_pool_generation_per_run(corpus, reference, monkeypatch):
    started = []
    real = process_module.ProcessPoolExecutor

    def counting(*args, **kwargs):
        started.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(process_module, "ProcessPoolExecutor", counting)
    with ProcessBackend(_WORKERS) as backend:
        result = _run(corpus, backend, trace=True)
    assert output_digest(result) == reference
    assert len(started) == 1
    # Every task of every phase ran on one of the same two workers.
    lanes = {span.worker for span in result.trace.spans}
    assert len(lanes) == _WORKERS
    assert {span.phase for span in result.trace.spans} == {
        "input+wc", "transform", "kmeans"
    }
    ipc = result.ipc["phases"]
    # One task per worker and phase; k-means: one span per worker and
    # iteration.
    assert ipc["input+wc"]["tasks"] == ipc["transform"]["tasks"] == _WORKERS
    assert ipc["kmeans"]["tasks"] == _WORKERS * result.kmeans.n_iters


def test_crash_replays_onto_a_pool_booted_with_the_latest_state(tmp_path):
    cfg = ResilienceConfig(retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0))
    with ProcessBackend(_WORKERS, resilience=cfg) as backend:
        backend.configure(_install_tag, ("first",))
        assert {tag for tag, _ in backend.map(
            _tag_or_die, [("", 0)] * 4, grain=1
        )} == {"first"}
        backend.configure(_install_tag, ("second",))  # installed, not forked
        marker = str(tmp_path / "died")
        results = backend.map(
            _tag_or_die, [(marker, index) for index in range(8)], grain=1
        )
        assert os.path.exists(marker)
        assert backend.ipc.total().pool_restarts == 1
        # The respawned workers booted with the state installed last.
        assert {tag for tag, _ in results} == {"second"}


def test_kmeans_crash_replay_is_bit_identical(corpus, reference, tmp_path):
    # K-means state is installed into the live pool; the replacement
    # pool must boot with it, not with the word count's.
    cfg = ResilienceConfig(retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0))
    with ProcessBackend(_WORKERS, resilience=cfg) as backend:
        backend.fault_plan = FaultPlan(
            [FaultSpec("kmeans", 1, "exit")], str(tmp_path)
        )
        result = _run(corpus, backend)
    assert result.ipc["total"]["pool_restarts"] == 1
    assert output_digest(result) == reference


# -- arrays in place of pickles ---------------------------------------------------------


@needs_shm
def test_matrix_phases_return_no_arrays_through_the_pipes(corpus, reference):
    with ProcessBackend(_WORKERS, shm=True) as backend:
        result = _run(corpus, backend)
    assert output_digest(result) == reference
    phases = result.ipc["phases"]
    assert phases["transform"]["result_pickle_bytes"] < 64 * 1024
    assert phases["kmeans"]["result_pickle_bytes"] < 64 * 1024
    # The rows segment was placed as it was written: k-means created
    # only its broadcast channel and its gather arena.
    assert phases["kmeans"]["segments"] == 2


@pytest.mark.parametrize(
    "options",
    [
        {"shm": False},
        {"start_method": "spawn"},
        pytest.param({"start_method": "spawn", "shm": True}, marks=needs_shm),
    ],
    ids=["no-shm", "spawn", "spawn-shm"],
)
def test_digest_unchanged_across_transports(corpus, reference, options):
    with ProcessBackend(_WORKERS, **options) as backend:
        result = _run(corpus, backend)
    assert output_digest(result) == reference


def test_worker_state_is_bounded_across_runs(corpus, reference):
    with ProcessBackend(_WORKERS) as backend:
        for _ in range(5):
            assert output_digest(_run(corpus, backend)) == reference
        probes = backend.map(_worker_state, range(8), grain=1)
    assert len({pid for pid, *_ in probes}) == _WORKERS
    for _, kmeans_slots, wordcount_slots, linked in probes:
        assert kmeans_slots <= 1 and wordcount_slots <= 1
        assert all(linked)  # no attachment to an unlinked segment


# -- quarantine inside a range task ----------------------------------------------------


def test_quarantine_isolates_one_document_inside_a_range_task(corpus):
    texts = [doc.text for doc in corpus]
    poisoned = len(texts) // 3
    texts[poisoned] = "poisonpill " + texts[poisoned]
    tfidf = TfIdfOperator(tokenizer=_PoisonTokenizer())
    cfg = ResilienceConfig(
        retry=RetryPolicy(max_attempts=1), on_poison="quarantine"
    )
    with ProcessBackend(_WORKERS, resilience=cfg) as backend:
        result = run_pipeline(
            Corpus.from_texts("poisoned", texts), backend=backend, tfidf=tfidf,
            kmeans=KMeansOperator(max_iters=4),
        )
    assert result.ipc["phases"]["input+wc"]["tasks"] == _WORKERS
    assert list(result.quarantine.doc_ids) == [poisoned]
    clean = Corpus.from_texts(
        "clean", texts[:poisoned] + texts[poisoned + 1:]
    )
    expected = _run(
        clean, SequentialBackend(),
        tfidf=TfIdfOperator(tokenizer=_PoisonTokenizer()),
    )
    assert output_digest(result) == output_digest(expected)
