"""One task lifecycle on every backend.

Retry, deadline, fault, span and quarantine are one gather loop in
:class:`~repro.exec.inline.ExecutionBackend`; the backends differ only
in how a task starts and what a dead or wedged pool does. So the same
poisoned map must leave the same bill on all three: the same results
and quarantine records, a span for every task body that finished, a
task for every item the producer yielded, and a retry for every
re-execution — each bisection probe included.
"""

from __future__ import annotations

import pytest

from repro.exec.process import make_backend
from repro.exec.resilience import ResilienceConfig, RetryPolicy

BACKENDS = (("sequential", 1), ("threads", 2), ("processes", 2))

# Four items of eight ints; the second holds the poisoned 13.
ITEMS = [list(range(start, start + 8)) for start in range(0, 32, 8)]


# Module-level so the process backend can pickle it by reference.
def _double_unless_13(chunk):
    if 13 in chunk:
        raise ValueError("poisoned 13")
    return [x * 2 for x in chunk]


def _run(name, workers, max_attempts):
    cfg = ResilienceConfig(
        retry=RetryPolicy(max_attempts=max_attempts), on_poison="quarantine"
    )
    with make_backend(name, workers, resilience=cfg) as backend:
        backend.bill.spans.begin_run()
        backend.begin_phase("p")
        results = backend.map(_double_unless_13, ITEMS, bisect_items=True)
        records = [item.as_dict() for item in backend.bill.quarantine.items]
        spans = backend.bill.spans.spans
        bill = backend.bill.ipc.snapshot()["phases"]["p"]
    return results, records, spans, bill


@pytest.mark.parametrize("max_attempts,retries", [(1, 6), (2, 10)])
@pytest.mark.parametrize("name,workers", BACKENDS)
def test_a_poisoned_map_leaves_the_same_bill(name, workers, max_attempts, retries):
    results, records, spans, bill = _run(name, workers, max_attempts)
    expected, expected_records, _, _ = _run("sequential", 1, max_attempts)
    assert results == expected
    assert records == expected_records
    # Items 0, 2 and 3, then the probes that passed: [8..11], [12], [14, 15].
    assert results == [
        [x * 2 for x in ITEMS[0]],
        [16, 18, 20, 22], [24], [28, 30],
        [x * 2 for x in ITEMS[2]],
        [x * 2 for x in ITEMS[3]],
    ]
    assert [(r["item_index"], r["sub_start"], r["n_units"]) for r in records] == [
        (1, 5, 1)
    ]
    assert records[0]["attempts"] == max_attempts
    assert len(spans) == 6
    assert {span.task_id for span in spans} == {0, 1, 2, 3}
    assert bill["tasks"] == 4
    # Six probes, each run up to ``max_attempts`` times, plus the failed
    # task's own retries: every re-execution is a retry.
    assert bill["retries"] == retries
    assert bill["quarantined"] == 1


class _DiesAfterThree(Exception):
    pass


def _producer():
    for index in range(3):
        yield [index]
    raise _DiesAfterThree("producer failed")


@pytest.mark.parametrize("name,workers", BACKENDS)
def test_a_dying_producer_bills_the_items_it_yielded(name, workers):
    with make_backend(name, workers) as backend:
        backend.begin_phase("p")
        with pytest.raises(_DiesAfterThree):
            backend.map(_double_unless_13, _producer())
        assert backend.bill.ipc.total().tasks == 3


def _times_out(x):
    raise TimeoutError(f"read {x} timed out")


@pytest.mark.parametrize("name,workers", BACKENDS)
def test_a_task_raising_timeout_error_fails_but_does_not_overrun(name, workers):
    # TimeoutError is what a wait past its deadline raises too; the
    # task's own is a failure like any other, retried and quarantined.
    cfg = ResilienceConfig(
        retry=RetryPolicy(max_attempts=2), task_timeout_s=30.0,
        on_poison="quarantine",
    )
    with make_backend(name, workers, resilience=cfg) as backend:
        backend.begin_phase("p")
        assert backend.map(_times_out, [1, 2]) == []
        bill = backend.bill.ipc.total()
        assert (bill.timeouts, bill.retries, bill.quarantined) == (0, 2, 2)
        assert [item.error_type for item in backend.bill.quarantine.items] == [
            "TimeoutError", "TimeoutError"
        ]
