"""Job journal: durability discipline, loud reads, replay semantics."""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.serve.journal import (
    JOURNAL_FILE,
    JOURNAL_SCHEMA,
    JobJournal,
    JournalCorruptionWarning,
    read_journal,
    replay,
)
from tests.validator_tool import bound, validate

validate_journal = bound("journal", validate_state_dir=validate.check_journal)


class TestWriter:
    def test_append_stamps_schema_ts_pid(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        record = journal.job_event("j1", "submitted", spec={"input": "x"})
        assert record["schema"] == JOURNAL_SCHEMA
        assert record["pid"] == os.getpid()
        assert record["ts"] > 0
        lines = open(journal.path, encoding="utf-8").read().splitlines()
        assert json.loads(lines[0]) == record

    def test_timestamps_strictly_increase(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        stamps = [
            journal.job_event("j1", "submitted")["ts"],
            journal.job_event("j1", "admitted")["ts"],
            journal.daemon_event("start")["ts"],
        ]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_unknown_events_rejected(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        with pytest.raises(ConfigurationError):
            journal.job_event("j1", "teleported")
        with pytest.raises(ConfigurationError):
            journal.daemon_event("submitted")  # a job event, not daemon
        with pytest.raises(ConfigurationError):
            journal.job_event("", "submitted")

    def test_empty_root_rejected(self):
        with pytest.raises(ConfigurationError):
            JobJournal("")


class TestReadJournal:
    def test_missing_file_is_empty_history(self, tmp_path):
        records, problems = read_journal(str(tmp_path))
        assert records == [] and problems == []

    def test_round_trip_sorted_by_ts(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.job_event("j1", "submitted")
        journal.job_event("j1", "admitted")
        records, problems = read_journal(str(tmp_path))
        assert problems == []
        assert [r["event"] for r in records] == ["submitted", "admitted"]
        assert records[0]["ts"] < records[1]["ts"]

    def test_torn_tail_skipped_loudly(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.job_event("j1", "submitted")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "kind": "job", "eve')  # torn append
        with pytest.warns(JournalCorruptionWarning):
            records, problems = read_journal(str(tmp_path))
        assert len(records) == 1
        assert len(problems) == 1 and "corrupt" in problems[0]

    def test_newer_schema_and_foreign_lines_skipped(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.job_event("j1", "submitted")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "schema": JOURNAL_SCHEMA + 1, "kind": "job",
                "event": "warped", "ts": 1.0, "pid": 1,
            }) + "\n")
            handle.write('[1, 2, 3]\n')
            handle.write(json.dumps({"schema": 1, "kind": "job"}) + "\n")
        with pytest.warns(JournalCorruptionWarning):
            records, problems = read_journal(str(tmp_path))
        assert len(records) == 1
        assert len(problems) == 3


class TestReplay:
    def _journal(self, tmp_path) -> JobJournal:
        return JobJournal(str(tmp_path))

    def test_folds_lifecycle(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.job_event("j1", "submitted", spec={"input": "corpus"})
        journal.job_event("j1", "admitted", attempt=0)
        journal.job_event("j1", "running", attempt=1)
        journal.job_event("j1", "done", digest="d" * 8, total_s=0.5)
        records, _ = read_journal(str(tmp_path))
        view = replay(records)["j1"]
        assert view.state == "done" and view.terminal
        assert view.spec == {"input": "corpus"}
        assert view.attempt == 1
        assert view.digest == "d" * 8
        assert view.total_s == 0.5
        assert view.events == ["submitted", "admitted", "running", "done"]

    def test_terminal_state_is_sticky(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.job_event("j1", "submitted")
        journal.job_event("j1", "done", digest="d", total_s=0.1)
        journal.job_event("j1", "running", attempt=9)  # must not resurrect
        records, _ = read_journal(str(tmp_path))
        view = replay(records)["j1"]
        assert view.state == "done"
        assert view.attempt == 0  # the late record changed nothing

    def test_shed_and_failed_capture_why(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.job_event("j1", "submitted")
        journal.job_event("j1", "shed", reason="queue-full")
        journal.job_event("j2", "submitted")
        journal.job_event("j2", "failed", error="boom")
        views = replay(read_journal(str(tmp_path))[0])
        assert views["j1"].state == "shed" and views["j1"].reason == "queue-full"
        assert views["j2"].state == "failed" and views["j2"].error == "boom"

    def test_daemon_records_ignored(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.daemon_event("start")
        journal.job_event("j1", "submitted")
        journal.daemon_event("shutdown")
        assert list(replay(read_journal(str(tmp_path))[0])) == ["j1"]


class TestValidatorTool:
    """The strict CI stance in tools/validate_journal.py."""

    def _write(self, tmp_path, lines) -> str:
        path = tmp_path / JOURNAL_FILE
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(
                    (line if isinstance(line, str) else json.dumps(line)) + "\n"
                )
        return str(tmp_path)

    def _job(self, event, job_id="j1", ts=1.0, **extra):
        record = {"schema": 1, "kind": "job", "job_id": job_id,
                  "event": event, "ts": ts, "pid": 7}
        record.update(extra)
        return record

    def test_accepts_a_real_journal(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.daemon_event("start")
        journal.job_event("j1", "submitted", spec={})
        journal.job_event("j1", "admitted", attempt=0)
        journal.job_event("j1", "running", attempt=1)
        journal.job_event("j1", "done", digest="d", total_s=0.2)
        records, problems = validate_journal.validate_state_dir(str(tmp_path))
        assert problems == []
        assert len(records) == 5

    def test_double_completion_is_an_error(self, tmp_path):
        root = self._write(tmp_path, [
            self._job("submitted", ts=1.0),
            self._job("admitted", ts=2.0),
            self._job("running", ts=3.0),
            self._job("done", ts=4.0, digest="d", total_s=0.1),
            self._job("done", ts=5.0, digest="d", total_s=0.1),
        ])
        _, problems = validate_journal.validate_state_dir(root)
        assert any("resurrected" in p or "exactly-once" in p for p in problems)

    def test_illegal_transition_is_an_error(self, tmp_path):
        root = self._write(tmp_path, [
            self._job("submitted", ts=1.0),
            self._job("running", ts=2.0),  # skipped admission
        ])
        _, problems = validate_journal.validate_state_dir(root)
        assert any("illegal transition" in p for p in problems)

    def test_torn_line_is_an_error_not_a_skip(self, tmp_path):
        root = self._write(tmp_path, [
            self._job("submitted", ts=1.0),
            '{"schema": 1, "kind": "jo',
        ])
        _, problems = validate_journal.validate_state_dir(root)
        assert any("not valid JSON" in p for p in problems)

    def test_expect_done_gates_exact_count(self, tmp_path):
        root = self._write(tmp_path, [
            self._job("submitted", ts=1.0),
            self._job("admitted", ts=2.0),
            self._job("running", ts=3.0),
            self._job("done", ts=4.0, digest="d", total_s=0.1),
        ])
        assert validate_journal.main([root, "--expect-done", "1"]) == 0
        assert validate_journal.main([root, "--expect-done", "2"]) == 1

    def test_missing_journal_fails(self, tmp_path):
        assert validate_journal.main([str(tmp_path)]) == 1
