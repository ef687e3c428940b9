"""In-process serve daemon: admission, isolation, recovery, lifecycle."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.errors import ConfigurationError
from repro.io.corpus_io import store_corpus
from repro.io.storage import FsStorage
from repro.plan.calibration import CalibrationStore
from repro.serve.daemon import ServeConfig, ServeDaemon, _QueuedJob
from repro.serve.journal import JobJournal, read_journal, replay
from repro.serve.transport import (
    INBOX_DIR,
    LOCK_FILE,
    read_result,
    request_drain,
    submit_job,
    write_heartbeat,
)
from repro.text.synth import MIX_PROFILE, generate_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    store_corpus(FsStorage(out), generate_corpus(MIX_PROFILE, scale=0.002,
                                                 seed=1))
    return out


def _config(tmp_path, **kw) -> ServeConfig:
    defaults = dict(
        state=str(tmp_path / "state"),
        backend="threads",
        workers=2,
        executors=1,
        idle_exit_s=0.3,
        drain_deadline_s=30.0,
        heartbeat_s=0.05,
        poll_s=0.02,
    )
    defaults.update(kw)
    return ServeConfig(**defaults)


def _events(state: str, job_id: str) -> list[str]:
    records, _ = read_journal(state)
    return [r["event"] for r in records
            if r.get("kind") == "job" and r.get("job_id") == job_id]


class TestHappyPath:
    def test_single_job_completes(self, tmp_path, corpus_dir):
        config = _config(tmp_path)
        job_id = submit_job(config.state, {"input": corpus_dir, "iters": 2})
        daemon = ServeDaemon(config)
        assert daemon.run() == 0
        assert daemon.stats.done == 1 and daemon.stats.failed == 0

        view = replay(read_journal(config.state)[0])[job_id]
        assert view.state == "done"
        result = read_result(config.state, job_id)
        assert result is not None and result["digest"] == view.digest
        # Completed work feeds the ledger.
        assert os.path.isfile(os.path.join(config.ledger_path, "ledger.jsonl"))

    def test_duplicate_submission_runs_once(self, tmp_path, corpus_dir):
        config = _config(tmp_path)
        spec = {"input": corpus_dir, "iters": 2, "job_id": "dup-1"}
        submit_job(config.state, spec)
        assert ServeDaemon(config).run() == 0
        # Resubmitting a completed id must be a no-op, not a second run.
        submit_job(config.state, spec)
        assert ServeDaemon(config).run() == 0
        assert _events(config.state, "dup-1").count("done") == 1
        inbox = os.path.join(config.state, INBOX_DIR)
        assert [n for n in os.listdir(inbox) if n.endswith(".json")] == []

    def test_poisoned_job_cannot_take_down_the_service(
        self, tmp_path, corpus_dir
    ):
        config = _config(tmp_path)
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        bad = submit_job(config.state, {"input": empty, "job_id": "a-bad"})
        good = submit_job(
            config.state, {"input": corpus_dir, "iters": 2, "job_id": "b-good"}
        )
        daemon = ServeDaemon(config)
        assert daemon.run() == 0
        views = replay(read_journal(config.state)[0])
        assert views[bad].state == "failed"
        assert "empty corpus" in views[bad].error
        assert views[good].state == "done"
        assert daemon.stats.done == 1 and daemon.stats.failed == 1


class TestCalibration:
    def test_without_a_store_nothing_is_observed_or_written(
        self, tmp_path, corpus_dir
    ):
        config = _config(tmp_path, cost_budget_s=1000.0)
        submit_job(config.state, {"input": corpus_dir, "iters": 2})
        daemon = ServeDaemon(config)
        assert daemon.run() == 0
        assert daemon.stats.done == 1
        assert not os.path.exists(config.calibration_path)
        # A restart still admits unpriced rather than failing to price.
        restarted = ServeDaemon(config)
        assert restarted._estimate_cost_s({"input": corpus_dir}) is None

    def test_a_seeded_store_learns_from_jobs_and_prices_them(
        self, tmp_path, corpus_dir
    ):
        config = _config(tmp_path, cost_budget_s=1000.0)
        os.makedirs(config.state)
        seeded = CalibrationStore.probe(generate_corpus(
            MIX_PROFILE, scale=0.002, seed=1
        ))
        seeded.save(config.calibration_path)
        submit_job(config.state, {"input": corpus_dir, "iters": 2})
        assert ServeDaemon(config).run() == 0
        learned = CalibrationStore.load(config.calibration_path)
        assert learned.samples > seeded.samples
        assert learned.source == "observed"
        assert ServeDaemon(config)._estimate_cost_s({"input": corpus_dir}) > 0


class TestAdmission:
    def test_queue_full_sheds_with_reason(self, tmp_path, corpus_dir):
        config = _config(tmp_path, max_depth=1)
        ids = [
            submit_job(config.state,
                       {"input": corpus_dir, "job_id": f"q-{i}"})
            for i in range(3)
        ]
        daemon = ServeDaemon(config)
        daemon._scan_inbox()  # no executors: the queue cannot drain
        views = replay(read_journal(config.state)[0])
        states = [views[job_id].state for job_id in ids]
        assert states.count("admitted") == 1
        assert states.count("shed") == 2
        shed = [views[j] for j in ids if views[j].state == "shed"]
        assert all("queue-full" in view.reason for view in shed)
        assert daemon.stats.shed == 2

    def test_unreadable_submission_quarantined(self, tmp_path):
        config = _config(tmp_path)
        daemon = ServeDaemon(config)
        inbox = os.path.join(config.state, INBOX_DIR)
        with open(os.path.join(inbox, "garbage.json"), "w") as handle:
            handle.write("{not json")
        daemon._scan_inbox()
        assert os.path.isfile(os.path.join(inbox, "garbage.json.bad"))
        view = replay(read_journal(config.state)[0])["garbage"]
        assert view.state == "shed"
        assert "unreadable submission" in view.reason

    def test_spec_without_input_rejected_at_submit(self, tmp_path):
        with pytest.raises(ConfigurationError):
            submit_job(str(tmp_path / "state"), {"iters": 2})

    def test_breaker_drain_sheds_new_admissions(self, tmp_path, corpus_dir):
        config = _config(tmp_path)
        daemon = ServeDaemon(config)
        daemon._trip_breaker("synthetic pool loss")
        assert not daemon._admit(
            _QueuedJob("late-1", {"input": corpus_dir})
        )
        records, _ = read_journal(config.state)
        assert any(
            r.get("kind") == "daemon" and r["event"] == "breaker-open"
            for r in records
        )
        view = replay(records)["late-1"]
        assert view.state == "shed" and "draining" in view.reason


class TestRecovery:
    def _orphan_journal(self, state: str, attempt: int, spec: dict) -> None:
        journal = JobJournal(state)
        journal.job_event("orph-1", "submitted", spec=spec)
        journal.job_event("orph-1", "admitted", attempt=0)
        journal.job_event("orph-1", "running", attempt=attempt)

    def test_orphan_rerun_to_done(self, tmp_path, corpus_dir):
        config = _config(tmp_path)
        os.makedirs(config.state, exist_ok=True)
        self._orphan_journal(config.state, 1, {"input": corpus_dir,
                                               "iters": 2})
        daemon = ServeDaemon(config)
        assert daemon.run() == 0
        view = replay(read_journal(config.state)[0])["orph-1"]
        assert view.state == "done"
        assert daemon.stats.recovered == 1
        assert "requeued" in view.events

    def test_orphan_policy_fail(self, tmp_path, corpus_dir):
        config = _config(tmp_path, orphan_policy="fail")
        os.makedirs(config.state, exist_ok=True)
        self._orphan_journal(config.state, 1, {"input": corpus_dir})
        daemon = ServeDaemon(config)
        outcome = daemon.recover()
        assert outcome["failed"] == 1 and outcome["orphaned"] == 1
        view = replay(read_journal(config.state)[0])["orph-1"]
        assert view.state == "failed" and "orphaned" in view.error

    def test_orphan_with_spent_attempt_budget_fails(
        self, tmp_path, corpus_dir
    ):
        config = _config(tmp_path, max_attempts=2)
        os.makedirs(config.state, exist_ok=True)
        self._orphan_journal(config.state, 2, {"input": corpus_dir})
        ServeDaemon(config).recover()
        view = replay(read_journal(config.state)[0])["orph-1"]
        assert view.state == "failed"
        assert "attempt budget spent" in view.error

    def test_queued_jobs_recovered_without_new_admission_records(
        self, tmp_path, corpus_dir
    ):
        config = _config(tmp_path)
        os.makedirs(config.state, exist_ok=True)
        journal = JobJournal(config.state)
        journal.job_event("q-1", "submitted",
                          spec={"input": corpus_dir, "iters": 2})
        journal.job_event("q-1", "admitted", attempt=0)
        daemon = ServeDaemon(config)
        assert daemon.run() == 0
        events = _events(config.state, "q-1")
        assert events.count("admitted") == 1  # the decision stood
        assert events.count("done") == 1


class TestLifecycle:
    def test_drain_request_halts_new_work_then_next_run_completes(
        self, tmp_path, corpus_dir
    ):
        config = _config(tmp_path, idle_exit_s=None)
        job_id = submit_job(config.state,
                            {"input": corpus_dir, "iters": 2})
        request_drain(config.state)
        t0 = time.monotonic()
        assert ServeDaemon(config).run() == 0
        assert time.monotonic() - t0 < 10.0  # drained, did not serve
        view = replay(read_journal(config.state)[0]).get(job_id)
        assert view is None or view.state != "done"
        # The drain marker is consumed at shutdown; the next daemon serves.
        second = ServeDaemon(_config(tmp_path))
        assert second.run() == 0
        assert _events(config.state, job_id).count("done") == 1

    def test_live_daemon_lock_refused(self, tmp_path):
        config = _config(tmp_path)
        os.makedirs(config.state, exist_ok=True)
        with open(os.path.join(config.state, LOCK_FILE), "w") as handle:
            json.dump({"pid": os.getpid()}, handle)
        write_heartbeat(config.state, "serving", 1)  # fresh + pid alive
        with pytest.raises(ConfigurationError):
            ServeDaemon(config).run()

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ServeConfig(state="")
        with pytest.raises(ConfigurationError):
            ServeConfig(state=str(tmp_path), max_depth=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(state=str(tmp_path), orphan_policy="shrug")
