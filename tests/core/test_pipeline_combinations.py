"""One driver, every route, every option pair: the recorded digest.

``run_pipeline`` executes every run as a plan — the caller's backend (or,
given none, a sequential one it builds) is the trivial one — and wraps
the same three phases with streaming input, caching, tiling, tracing,
degradation and the ledger. Under a plan the caller's backend stays the
run's own: it carries the bill and the fault-tolerance policy, which is
why a policy combines with every route too.
This suite crosses every route with every subset of at most two of those
options on Mix@0.01 and accepts one outcome: the recorded output digest.
Nothing is rejected up front, and no option silently disables another.
"""

from __future__ import annotations

import itertools
import threading
import time

import pytest

from repro.core.pipeline import PHASE_READ, run_pipeline
from repro.exec.faultinject import FaultPlan, FaultSpec
from repro.exec.process import ProcessBackend, make_backend
from repro.exec.resilience import ResilienceConfig, RetryPolicy
from repro.io import FsStorage, corpus_stream, store_corpus
from repro.plan import CalibrationStore, PhasePlan, RealPlan
from repro.text.synth import MIX_PROFILE, generate_corpus

from tests.ops.test_columnar_blocks import (
    CI_CALIBRATION,
    PARENT_DIGESTS,
    _digest,
    _mixed_tier_plan,
    _operators,
)

#: ``inline`` passes no backend (``make_backend``'s alias for sequential:
#: the pipeline builds and closes a sequential backend itself).
ROUTES = ("inline", "sequential", "processes-2", "auto", "mixed-tier")
#: ``policy`` hands the run a backend with retries and quarantine on: a
#: sequential one where the route itself passes none.
OPTIONS = ("stream", "cache", "budget", "trace", "degrade", "ledger", "policy")
SUBSETS = [
    subset
    for size in range(3)
    for subset in itertools.combinations(OPTIONS, size)
]
#: Far below the Mix@0.01 matrix footprint: the budget really tiles.
BUDGET = 64 * 1024
BACKEND_DIGEST = PARENT_DIGESTS["mix"][0]
POLICY = ResilienceConfig(
    retry=RetryPolicy(max_attempts=2), on_poison="quarantine"
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.01, seed=7)


@pytest.fixture(scope="module")
def corpus_dir(corpus, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("mix"))
    store_corpus(FsStorage(root), corpus)
    return root


def _run(route, subset, corpus, corpus_dir, tmp_path):
    """One run of ``route`` with the options in ``subset`` switched on."""
    budget = BUDGET if "budget" in subset else None
    options = {
        "memory_budget": budget,
        "trace": "trace" in subset,
        "degrade": "degrade" in subset,
    }
    if "cache" in subset:
        options["cache"] = str(tmp_path / "cache")
    if "ledger" in subset:
        options["ledger"] = str(tmp_path / "ledger")
    if route == "auto":
        options.update(
            plan="auto", observe=False,
            calibration=CalibrationStore.load(CI_CALIBRATION),
        )
    elif route == "mixed-tier":
        options["plan"] = _mixed_tier_plan(len(corpus), budget)
    policy = POLICY if "policy" in subset else None
    backend = None
    if route == "processes-2":
        backend = make_backend("processes", 2, resilience=policy)
    elif route == "sequential" or policy is not None:
        backend = make_backend("sequential", resilience=policy)
    source = corpus
    if "stream" in subset:
        source = corpus_stream(FsStorage(corpus_dir), workers=2)
    tfidf, kmeans = _operators()
    try:
        return run_pipeline(
            source, backend=backend, tfidf=tfidf, kmeans=kmeans, **options
        )
    finally:
        if backend is not None:
            backend.close()


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "plain")
@pytest.mark.parametrize("route", ROUTES)
def test_digest_or_a_rule_table_row(route, subset, corpus, corpus_dir, tmp_path):
    # A cached combination runs cold, then warm: both must be right.
    for attempt in range(2 if "cache" in subset else 1):
        result = _run(route, subset, corpus, corpus_dir, tmp_path)
        planned = route in ("auto", "mixed-tier")
        assert (result.plan is not None) == planned
        assert result.backend_name == (
            "planned" if planned
            else "sequential" if route == "inline"
            else route
        )
        assert result.ipc is not None
        assert (PHASE_READ in result.phase_seconds) == ("stream" in subset)
        assert (result.trace is not None) == ("trace" in subset)
        assert (result.ledger is not None) == ("ledger" in subset)
        assert result.downgrades == []
        assert result.quarantine is None
        if "budget" in subset:
            assert result.tiles["peak_pinned_bytes"] <= BUDGET
        else:
            assert result.tiles is None
        if "cache" in subset:
            hits = 3 if attempt else 0
            assert (result.cache["hits"], result.cache["misses"]) == (
                hits, 3 - hits
            )
        else:
            assert result.cache is None
        assert _digest(result) == BACKEND_DIGEST  # also releases a tiled matrix


class TestRuleTable:
    """What the deleted rule table once refused now runs."""

    def test_trace_on_the_inline_path(self, corpus):
        # Without a backend the pipeline runs (and traces) a sequential
        # one of its own.
        tfidf, kmeans = _operators()
        plain = run_pipeline(corpus, tfidf=tfidf, kmeans=kmeans)
        traced = run_pipeline(corpus, tfidf=tfidf, kmeans=kmeans, trace=True)
        assert plain.trace is None and traced.trace is not None
        for result in (plain, traced):
            assert result.backend_name == "sequential"
            assert result.ipc is not None
            assert _digest(result) == BACKEND_DIGEST

    def test_legal_combinations_pass(self, corpus, tmp_path, monkeypatch):
        """A backend and a plan together: a verbatim plan puts k-means on
        the caller's slot (threads-2), where a transient fault fires and
        the caller's policy retries it; every backend the plan builds
        takes that same policy."""
        built = []

        def spy(name, workers=1, shm=None, resilience=None):
            built.append((name, resilience))
            return make_backend(name, workers, shm=shm, resilience=resilience)

        monkeypatch.setattr("repro.core.pipeline.make_backend", spy)
        plan = RealPlan(
            phases={
                "input+wc": PhasePlan("input+wc", "sequential"),
                "transform": PhasePlan("transform", "processes", 2, False),
                "kmeans": PhasePlan("kmeans", "threads", 2),
            },
            calibration="test",
            n_docs=len(corpus),
        )
        backend = make_backend("threads", 2, resilience=POLICY)
        backend.fault_plan = FaultPlan(
            [FaultSpec("kmeans", 0, "raise")], str(tmp_path)
        )
        tfidf, kmeans = _operators()
        try:
            result = run_pipeline(
                corpus, backend=backend, plan=plan, tfidf=tfidf, kmeans=kmeans
            )
        finally:
            backend.close()
        assert built == [("sequential", POLICY), ("processes", POLICY)]
        assert result.ipc["phases"]["kmeans"]["retries"] >= 1
        assert result.ipc["total"]["retries"] >= 1
        assert result.quarantine is None
        assert _digest(result) == BACKEND_DIGEST


def test_verbatim_plan_over_a_stream_overlaps_reads_and_leaks_nothing(
    corpus, corpus_dir
):
    before = set(threading.enumerate())
    stream = corpus_stream(FsStorage(corpus_dir), workers=2)
    tfidf, kmeans = _operators()
    result = run_pipeline(
        stream, plan=_mixed_tier_plan(len(corpus), None),
        tfidf=tfidf, kmeans=kmeans, trace=True,
    )
    # Not drained up front: the read phase is the time phase 1 spent
    # blocked, billed beside input+wc, and the reader spans are traced.
    assert list(result.phase_seconds)[:2] == [PHASE_READ, "input+wc"]
    assert PHASE_READ in result.trace.phases
    assert stream.n_read == len(corpus)
    assert _digest(result) == BACKEND_DIGEST
    deadline = time.monotonic() + 5.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(threading.enumerate()) - before == set()


def test_downgrade_is_sticky_on_a_planned_run(corpus, tmp_path, monkeypatch):
    """Every phase planned on processes-2, and every process pool armed
    to die on its first task of any phase: the run must fall to
    threads-2 once, in phase 1, and stay there."""
    specs = [
        FaultSpec(phase, 0, "exit")
        for phase in ("input+wc", "transform", "kmeans")
    ]

    def armed(name, workers=1, shm=None, resilience=None):
        backend = make_backend(name, workers, shm=shm, resilience=resilience)
        if isinstance(backend, ProcessBackend):
            backend.fault_plan = FaultPlan(specs, str(tmp_path))
        return backend

    monkeypatch.setattr("repro.core.pipeline.make_backend", armed)
    plan = RealPlan(
        phases={
            phase: PhasePlan(phase, "processes", 2, False)
            for phase in ("input+wc", "transform", "kmeans")
        },
        calibration="test",
        n_docs=len(corpus),
    )
    # No pool restarts, by the run's own policy: the first crash survives
    # the backend's own breaker and reaches the driver's degrade loop.
    backend = make_backend(
        "sequential", resilience=ResilienceConfig(max_pool_restarts=0)
    )
    tfidf, kmeans = _operators()
    result = run_pipeline(
        corpus, backend=backend, plan=plan, tfidf=tfidf, kmeans=kmeans,
        degrade=True,
    )
    assert [
        (event.phase, event.from_backend, event.to_backend)
        for event in result.downgrades
    ] == [("input+wc", "processes-2", "threads-2")]
    for phase in ("transform", "kmeans"):
        # Threads share the parent's memory: nothing was pickled.
        moved = result.ipc["phases"].get(phase, {})
        assert moved.get("task_pickle_bytes", 0) == 0
    assert _digest(result) == BACKEND_DIGEST
