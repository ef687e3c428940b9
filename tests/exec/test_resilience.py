"""Fault-tolerant execution: retries, timeouts, crash recovery, quarantine.

The crash matrix runs the real fused pipeline under deterministic
:class:`~repro.exec.faultinject.FaultPlan` injections across backends and
shm modes, and asserts the tentpole guarantee: a run that *recovers* is
bit-identical to a fault-free run, a run that *quarantines* differs by
exactly the quarantined documents, and nothing ever leaks a shared-memory
segment (the autouse fixture in ``conftest.py`` enforces the last part
for every test here).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.pipeline import output_digest, run_pipeline
from repro.errors import (
    ConfigurationError,
    PhaseTimeoutError,
    TaskTimeoutError,
)
from repro.exec.faultinject import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fire_spec,
)
from repro.exec.process import make_backend
from repro.exec.resilience import (
    QuarantineReport,
    ResilienceConfig,
    RetryPolicy,
    bisect_chunk,
    run_attempts,
)
from repro.exec.shm import shm_available
from repro.ops.tfidf import TfIdfOperator
from repro.text.corpus import Corpus
from repro.text.synth import MIX_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

# Small but not trivial: several chunks per phase, so faults on task ids
# 0/1 always land on real tasks and recovery leaves work to preserve.
_SCALE = 0.002


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=_SCALE, seed=7)


@pytest.fixture(scope="module")
def reference(corpus):
    """Fault-free inline run — the bit-identity anchor."""
    return run_pipeline(corpus)


def _retrying(**overrides) -> ResilienceConfig:
    base = dict(retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0))
    base.update(overrides)
    return base.pop("_cfg", None) or ResilienceConfig(**base)


def _run_faulted(
    corpus,
    backend_name,
    specs,
    state_dir,
    *,
    workers=2,
    shm=None,
    cfg=None,
    trace=False,
    degrade=False,
):
    plan = FaultPlan(specs, str(state_dir))
    backend = make_backend(
        backend_name, workers, shm=shm, resilience=cfg or _retrying()
    )
    backend.fault_plan = plan
    try:
        result = run_pipeline(corpus, backend=backend, trace=trace, degrade=degrade)
    finally:
        backend.close()
    return result, plan


def _assert_identical(result, reference):
    ra, rb = result.tfidf.matrix, reference.tfidf.matrix
    assert ra.n_rows == rb.n_rows and ra.n_cols == rb.n_cols
    for a, b in zip(ra.iter_rows(), rb.iter_rows()):
        assert a.indices == b.indices and a.values == b.values
    assert result.kmeans.assignments == reference.kmeans.assignments


def _die_once(item):
    """Square the index; the first task to find ``marker`` absent kills
    its worker."""
    marker, index = item
    time.sleep(0.01)  # both workers take tasks before the death
    if index == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return index * index


class _DieOnceTokenizer(Tokenizer):
    """Kills the first pool worker to tokenize while ``marker`` is absent."""

    def __init__(self, marker: str) -> None:
        super().__init__()
        self.marker = marker
        self.parent = os.getpid()

    def split(self, text):
        if os.getpid() != self.parent and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(1)
        return super().split(text)


def _rows(result):
    return [
        (row.indices, row.values) for row in result.tfidf.matrix.iter_rows()
    ]


class TestRetryPolicy:
    def test_default_is_fail_fast(self):
        policy = RetryPolicy.none()
        assert not policy.enabled
        assert policy.gives_up_after(1)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)

    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1, jitter=0.5)
        first = policy.backoff_s("phase#3", 2)
        assert first == policy.backoff_s("phase#3", 2)
        # Different task or attempt draws different jitter.
        assert first != policy.backoff_s("phase#4", 2)
        assert first != policy.backoff_s("phase#3", 3)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_base_s=0.1, jitter=0.0, max_backoff_s=0.4
        )
        delays = [policy.backoff_s("t", n) for n in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_run_attempts_recovers_and_counts(self):
        policy = RetryPolicy(max_attempts=3)
        seen = []

        def thunk(attempt):
            seen.append(attempt)
            if attempt < 3:
                raise ValueError("transient")
            return "ok"

        retries = []
        assert (
            run_attempts(
                policy, "t", thunk, on_retry=lambda *a: retries.append(a)
            )
            == "ok"
        )
        assert seen == [1, 2, 3]
        assert len(retries) == 2

    def test_run_attempts_exhaustion_attaches_attempts(self):
        policy = RetryPolicy(max_attempts=2)

        def thunk(attempt):
            raise ValueError("always")

        with pytest.raises(ValueError) as err:
            run_attempts(policy, "t", thunk)
        assert err.value.attempts == 2

    def test_non_retryable_fails_fast(self):
        policy = RetryPolicy(max_attempts=5, retryable_exceptions=(OSError,))
        calls = []

        def thunk(attempt):
            calls.append(attempt)
            raise ValueError("permanent")

        with pytest.raises(ValueError):
            run_attempts(policy, "t", thunk)
        assert calls == [1]


class TestBisectChunk:
    def test_isolates_single_poisoned_item(self):
        # A task carries one item; here a run of six documents, split
        # inside until the poisoned one stands alone.
        quarantined = []

        def run_item(item):
            if 13 in item:
                raise ValueError("poison")
            return [x * 2 for x in item]

        results = bisect_chunk(
            [10, 11, 12, 13, 14, 15],
            run_item,
            lambda *a: quarantined.append(a),
            item_index=5,
            bisect_items=True,
        )
        assert [x for part in results for x in part] == [20, 22, 24, 28, 30]
        assert len(quarantined) == 1
        index, sub_start, n_units, exc = quarantined[0]
        assert (index, sub_start, n_units) == (5, 3, 1)
        assert isinstance(exc, ValueError)

    def test_an_unsplittable_item_is_the_leaf(self):
        quarantined = []

        def run_item(item):
            raise ValueError("poison")

        assert bisect_chunk(
            [1, 2, 3], run_item, lambda *a: quarantined.append(a[:3]),
            item_index=4,
        ) == []
        # Without ``bisect_items`` the whole item is one unit.
        assert quarantined == [(4, 0, 1)]

    def test_bisect_items_splits_inside_sequences(self):
        quarantined = []

        def run_item(item):
            if "bad" in item:
                raise ValueError("poison")
            return [len(s) for s in item]

        results = bisect_chunk(
            ["aa", "bbb", "bad", "c"],
            run_item,
            lambda *a: quarantined.append(a[:3]),
            item_index=2,
            bisect_items=True,
        )
        # The healthy elements survive; only the poisoned one is isolated.
        assert results == [[2, 3], [1]]
        assert quarantined == [(2, 2, 1)]

    def test_failed_exc_skips_redundant_first_run(self):
        runs = []

        def run_item(item):
            runs.append(list(item))
            return list(item)

        marker = ValueError("already failed")
        results = bisect_chunk(
            [1, 2],
            run_item,
            lambda *a: pytest.fail("nothing should be quarantined"),
            item_index=0,
            bisect_items=True,
            failed_exc=marker,
        )
        assert results == [[1], [2]]
        # Straight to the two halves — the full item is not re-run.
        assert runs == [[1], [2]]


class TestFaultPlan:
    def test_seeded_is_deterministic(self, tmp_path):
        a = FaultPlan.seeded(41, str(tmp_path), kinds=("raise", "exit"))
        b = FaultPlan.seeded(41, str(tmp_path), kinds=("raise", "exit"))
        assert a.specs == b.specs
        c = FaultPlan.seeded(42, str(tmp_path), kinds=("raise", "exit"))
        assert a.specs != c.specs

    def test_fire_respects_times_budget(self, tmp_path):
        spec = FaultSpec("p", 0, "raise", times=2)
        plan = FaultPlan([spec], str(tmp_path))
        for _ in range(2):
            with pytest.raises(FaultInjected):
                plan.fire("p", 0)
        plan.fire("p", 0)  # budget exhausted: behaves
        assert plan.fired("p", 0) == 2
        assert plan.total_fired() == 2
        plan.reset()
        assert plan.total_fired() == 0

    def test_fire_state_survives_process_memory(self, tmp_path):
        # The marker lives on disk, so a fresh spec object (a respawned
        # worker's copy) sees the budget as spent.
        spec = FaultSpec("p", 1, "exit", times=1)
        FaultPlan([spec], str(tmp_path))
        with open(
            os.path.join(str(tmp_path), "fired_p_1"), "wb"
        ) as handle:
            handle.write(b"x")
        fire_spec(spec, str(tmp_path))  # must NOT os._exit

    def test_duplicate_task_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FaultPlan(
                [FaultSpec("p", 0, "raise"), FaultSpec("p", 0, "exit")],
                str(tmp_path),
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("p", 0, "explode")


class TestTransientFaultMatrix:
    """One injected exception per phase; retries must absorb all of them."""

    @pytest.mark.parametrize(
        "backend_name,shm",
        [
            ("sequential", None),
            ("threads", None),
            ("processes", False),
            pytest.param("processes", True, marks=needs_shm),
        ],
    )
    def test_recovery_is_bit_identical(
        self, corpus, reference, backend_name, shm, tmp_path
    ):
        specs = [
            FaultSpec("input+wc", 1, "raise"),
            FaultSpec("transform", 0, "raise"),
            FaultSpec("kmeans", 0, "raise"),
        ]
        result, plan = _run_faulted(
            corpus, backend_name, specs, tmp_path, shm=shm, trace=True
        )
        assert plan.total_fired() == 3
        _assert_identical(result, reference)
        # Every absorbed fault is billed as a retry...
        assert result.ipc["total"]["retries"] == 3
        # ...and the re-executions are visible in the span trace.
        retried = {
            (span.phase, span.task_id)
            for span in result.trace.spans
            if span.attempt > 1
        }
        assert retried == {("input+wc", 1), ("transform", 0), ("kmeans", 0)}

    def test_without_retry_budget_the_fault_propagates(self, corpus, tmp_path):
        specs = [FaultSpec("transform", 0, "raise")]
        with pytest.raises(FaultInjected):
            _run_faulted(
                corpus,
                "sequential",
                specs,
                tmp_path,
                cfg=ResilienceConfig(retry=RetryPolicy.none()),
            )


class TestWorkerCrashRecovery:
    """A worker hard-exits mid-phase; the pool respawns and replays."""

    @pytest.mark.parametrize(
        "shm", [False, pytest.param(True, marks=needs_shm)]
    )
    def test_crash_replay_is_bit_identical(
        self, corpus, reference, shm, tmp_path
    ):
        specs = [FaultSpec("input+wc", 1, "exit")]
        result, plan = _run_faulted(
            corpus, "processes", specs, tmp_path, shm=shm, trace=True
        )
        assert plan.total_fired() == 1
        _assert_identical(result, reference)
        total = result.ipc["total"]
        assert total["pool_restarts"] == 1
        # Replayed in-flight chunks were re-pickled on the recovery bill.
        assert total["retries"] >= 1
        assert total["retry_pickle_bytes"] > 0

    def test_default_policy_replays_one_worker_death(self, tmp_path):
        # No setting changed: the default breaker still absorbs a death.
        marker = str(tmp_path / "died")
        backend = make_backend("processes", 2)
        try:
            results = backend.map(
                _die_once, [(marker, index) for index in range(8)]
            )
            assert os.path.exists(marker)
            assert results == [index * index for index in range(8)]
            assert backend.bill.ipc.total().pool_restarts == 1
        finally:
            backend.close()

    def test_pool_death_between_submissions_is_replayed(self, tmp_path):
        # A slow producer: the pool is already dead when the next item
        # is submitted, so ``submit`` itself raises BrokenProcessPool.
        marker = str(tmp_path / "died")

        def producer():
            for index in range(5):
                yield marker, index
                time.sleep(0.3)

        backend = make_backend("processes", 2)
        try:
            results = backend.map(_die_once, producer())
            assert os.path.exists(marker)
            assert results == [index * index for index in range(5)]
            assert backend.bill.ipc.total().pool_restarts == 1
        finally:
            backend.close()

    def test_default_policy_crash_replay_is_bit_identical(self, corpus, tmp_path):
        # No fault plan, no setting changed: a worker dies once in phase 1.
        marker = str(tmp_path / "died")
        tfidf = TfIdfOperator(tokenizer=_DieOnceTokenizer(marker))
        backend = make_backend("processes", 2)
        try:
            result = run_pipeline(corpus, backend=backend, tfidf=tfidf)
        finally:
            backend.close()
        assert os.path.exists(marker)
        assert result.ipc["total"]["pool_restarts"] == 1
        expected = run_pipeline(corpus, tfidf=tfidf)  # inline: never dies
        assert output_digest(result) == output_digest(expected)

    def test_circuit_breaker_trips_on_repeated_crashes(self, corpus, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        # More crashes than the breaker tolerates.
        specs = [FaultSpec("input+wc", 1, "exit", times=5)]
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3), max_pool_restarts=1
        )
        with pytest.raises(BrokenProcessPool) as err:
            _run_faulted(corpus, "processes", specs, tmp_path, cfg=cfg)
        assert "input+wc" in str(err.value)


class TestTimeouts:
    def test_hung_process_worker_is_killed_and_retried(
        self, corpus, reference, tmp_path
    ):
        specs = [FaultSpec("transform", 0, "hang", hang_s=30.0)]
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2), task_timeout_s=1.0
        )
        result, plan = _run_faulted(
            corpus, "processes", specs, tmp_path, cfg=cfg
        )
        assert plan.total_fired() == 1
        _assert_identical(result, reference)
        total = result.ipc["total"]
        assert total["timeouts"] == 1
        assert total["pool_restarts"] >= 1

    def test_hung_thread_cannot_be_reclaimed(self, tmp_path):
        specs = [FaultSpec("test", 1, "hang", hang_s=1.5)]
        cfg = ResilienceConfig(task_timeout_s=0.2)
        backend = make_backend("threads", 2, resilience=cfg)
        backend.fault_plan = FaultPlan(specs, str(tmp_path))
        try:
            backend.begin_phase("test")
            with pytest.raises(TaskTimeoutError) as err:
                backend.map(lambda x: x, list(range(4)))
            assert "abandoned" in str(err.value)
        finally:
            backend.close()

    def test_phase_deadline_aborts_the_phase(self, corpus, tmp_path):
        specs = [FaultSpec("transform", 0, "hang", hang_s=30.0)]
        cfg = ResilienceConfig(phase_timeout_s=0.5)
        with pytest.raises(PhaseTimeoutError):
            _run_faulted(corpus, "processes", specs, tmp_path, cfg=cfg)


class TestQuarantine:
    """``on_poison="quarantine"`` isolates the poison, keeps the rest."""

    def test_transform_quarantine_differs_only_by_dropped_rows(
        self, corpus, reference, tmp_path
    ):
        # This task fails on every attempt — a genuinely poisoned chunk.
        specs = [FaultSpec("transform", 0, "raise", times=1_000_000)]
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2), on_poison="quarantine"
        )
        result, _ = _run_faulted(
            corpus, "processes", specs, tmp_path, cfg=cfg
        )
        assert isinstance(result.quarantine, QuarantineReport)
        dropped = set(result.quarantine.doc_ids)
        assert dropped and len(dropped) < len(corpus)
        assert result.ipc["total"]["quarantined"] == len(dropped)
        # The transform happens after df/idf are fixed, so surviving rows
        # must be byte-identical to the reference minus the dropped ones.
        ref_rows = [
            row
            for index, row in enumerate(_rows(reference))
            if index not in dropped
        ]
        assert _rows(result) == ref_rows
        assert len(result.kmeans.assignments) == len(ref_rows)

    @pytest.mark.parametrize("backend_name", ["sequential", "threads", "processes"])
    def test_wordcount_quarantine_equals_pipeline_without_the_docs(
        self, corpus, backend_name, tmp_path
    ):
        specs = [FaultSpec("input+wc", 1, "raise", times=1_000_000)]
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2), on_poison="quarantine"
        )
        result, _ = _run_faulted(
            corpus, backend_name, specs, tmp_path, cfg=cfg
        )
        dropped = set(result.quarantine.doc_ids)
        assert dropped and len(dropped) < len(corpus)
        # Dropping documents in phase 1 changes df/idf too, so the correct
        # equivalence is a fault-free run over the corpus *minus* them.
        filtered = Corpus.from_texts(
            "filtered",
            [
                doc.text
                for index, doc in enumerate(corpus)
                if index not in dropped
            ],
        )
        _assert_identical(result, run_pipeline(filtered))

    def test_fail_fast_stays_the_default(self, corpus, tmp_path):
        specs = [FaultSpec("transform", 0, "raise", times=1_000_000)]
        with pytest.raises(FaultInjected):
            _run_faulted(corpus, "processes", specs, tmp_path)


class TestGracefulDegradation:
    def test_pipeline_downgrades_and_completes(
        self, corpus, reference, tmp_path
    ):
        # The breaker tolerates no restarts, so the first crash survives
        # the backend and run_pipeline(degrade=True) must absorb it.
        specs = [FaultSpec("transform", 0, "exit")]
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3), max_pool_restarts=0
        )
        result, _ = _run_faulted(
            corpus, "processes", specs, tmp_path, cfg=cfg, degrade=True
        )
        _assert_identical(result, reference)
        assert [
            (event.phase, event.from_backend, event.to_backend)
            for event in result.downgrades
        ] == [("transform", "processes-2", "threads-2")]

    def test_without_degrade_the_crash_propagates(self, corpus, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        specs = [FaultSpec("transform", 0, "exit")]
        cfg = ResilienceConfig(
            retry=RetryPolicy(max_attempts=3), max_pool_restarts=0
        )
        with pytest.raises(BrokenProcessPool):
            _run_faulted(corpus, "processes", specs, tmp_path, cfg=cfg)


_SIGTERM_SCRIPT = """
import sys, time
import numpy as np
from repro.exec.shm import SHM, Plane, Segment

plane = Plane(SHM)
handle = plane.track(
    Segment("probe", arrays={"a": np.arange(1024, dtype=np.int64)}, shared=True)
)
print(handle.descriptor().segment, flush=True)
time.sleep(30)
"""


@needs_shm
class TestSigtermCleanup:
    def test_sigterm_mid_run_unlinks_segments(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _SIGTERM_SCRIPT],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            segment = proc.stdout.readline().strip()
            assert segment
            assert os.path.exists(f"/dev/shm/{segment}")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # The handler unlinked the segment, then re-delivered the signal
        # so the process still reports death-by-SIGTERM.
        assert not os.path.exists(f"/dev/shm/{segment}")
        assert proc.returncode == -signal.SIGTERM
