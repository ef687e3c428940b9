"""The append-only JSONL log under the run ledger and the serve journal:
fresh-line appends, loud short writes, reads that never raise, and a
crash at any byte."""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.io import jsonl_log
from repro.obs.ledger import (
    LEDGER_FILE,
    LedgerCorruptionWarning,
    RunLedger,
    WallAnchor,
    read_ledger,
)
from repro.serve.journal import (
    JOB_EVENTS,
    JOURNAL_FILE,
    JobJournal,
    JournalCorruptionWarning,
    read_journal,
    replay,
)

TORN = '{"schema": 1, "kind": "job", "eve'


def _failed_run(ledger: RunLedger, tag: str) -> dict:
    return ledger.record_failed_run(
        anchor=WallAnchor.capture(),
        phase_seconds={"input+wc": 0.01, "transform": 0.02},
        failed_step="kmeans",
        error=f"boom {tag}",
        backend="sequential",
        n_docs=3,
        config={"tag": tag},
    )


def _canonical(records) -> list[str]:
    return sorted(json.dumps(record, sort_keys=True) for record in records)


class TestFreshLine:
    def test_torn_journal_tail_does_not_swallow_the_next_record(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.job_event("j1", "submitted", spec={})
        journal.job_event("j1", "admitted", attempt=0)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write(TORN)  # a crash mid-append
        restarted = JobJournal(str(tmp_path))
        restarted.job_event("j1", "running", attempt=1)
        restarted.job_event("j1", "done", digest="d", total_s=0.1)
        with pytest.warns(JournalCorruptionWarning):
            records, problems = read_journal(str(tmp_path))
        assert [r["event"] for r in records] == [
            "submitted", "admitted", "running", "done"
        ]
        assert len(problems) == 1 and "not valid JSON" in problems[0]

    def test_torn_ledger_tail_does_not_swallow_the_next_run(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        _failed_run(ledger, "first")
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "run')
        _failed_run(RunLedger(str(tmp_path)), "second")
        with pytest.warns(LedgerCorruptionWarning):
            records, problems = read_ledger(str(tmp_path))
        second = [r["step"] for r in records if r["run"]["config"]["tag"] == "second"]
        assert second == ["input+wc", "transform", "kmeans"]
        assert len(records) == 6 and len(problems) == 1

    def test_a_clean_file_gets_no_blank_lines(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        for event in ("submitted", "admitted"):
            journal.job_event("j1", event)
        with open(journal.path, "rb") as handle:
            assert b"\n\n" not in handle.read()


class TestShortWrite:
    @pytest.mark.parametrize("writer", ["journal", "ledger"])
    def test_short_write_raises_naming_path_and_bytes(self, tmp_path, monkeypatch,
                                                      writer):
        log = JobJournal(str(tmp_path)) if writer == "journal" else RunLedger(
            str(tmp_path))
        real_write = os.write

        def short_write(fd, payload):
            return real_write(fd, payload[:-1])

        with monkeypatch.context() as patch:
            patch.setattr(jsonl_log.os, "write", short_write)
            with pytest.raises(StorageError) as raised:
                if writer == "journal":
                    log.job_event("j1", "done", digest="d", total_s=0.1)
                else:
                    _failed_run(log, "short")
        message = str(raised.value)
        size = os.path.getsize(log.path)
        assert log.path in message
        assert f"{size} of {size + 1} bytes" in message
        assert "free space" in message


# -- reads never raise -------------------------------------------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _or_json(*values):
    return st.one_of(st.sampled_from(values), _json)


_journal_line = st.fixed_dictionaries(
    {"schema": _or_json(1), "kind": _or_json("job", "daemon"),
     "event": _or_json(*JOB_EVENTS), "ts": _or_json(1.5), "pid": _or_json(7)},
    optional={"job_id": _or_json("j1", "j2"), "attempt": _json, "spec": _json,
              "error": _json, "reason": _json, "digest": _json, "total_s": _json},
)

_ledger_line = st.fixed_dictionaries(
    {"schema": _or_json(1), "run_id": _or_json("r"), "ts": _or_json(2.5),
     "step": _or_json("kmeans"), "status": _or_json("ok"),
     "duration_s": _or_json(0.1),
     "run": st.one_of(st.dictionaries(st.just("started"), _json), _json)},
)


def _write_mixed(path: str, valid: list[dict], drawn: list[dict]) -> None:
    lines = [json.dumps(record) for record in drawn]
    for index, record in enumerate(valid):
        lines.insert(min(2 * index, len(lines)), json.dumps(record))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _quietly(read, root):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return read(root)


@settings(max_examples=60, deadline=None)
@given(drawn=st.lists(_journal_line, max_size=6))
def test_journal_reader_and_replay_never_raise(drawn):
    root = tempfile.mkdtemp()
    try:
        writer = JobJournal(root)
        valid = [writer.job_event("j1", "submitted", spec={}),
                 writer.job_event("j1", "admitted", attempt=0),
                 writer.daemon_event("start")]
        _write_mixed(os.path.join(root, JOURNAL_FILE), valid, drawn)
        records, _ = _quietly(read_journal, root)
        assert set(_canonical(valid)) <= set(_canonical(records))
        views = replay(records)
        assert "j1" in views
    finally:
        shutil.rmtree(root)


@settings(max_examples=60, deadline=None)
@given(drawn=st.lists(_ledger_line, max_size=6))
def test_ledger_reader_never_raises(drawn):
    root = tempfile.mkdtemp()
    try:
        ledger = RunLedger(root)
        _failed_run(ledger, "valid")
        with open(ledger.path, encoding="utf-8") as handle:
            valid = [json.loads(line) for line in handle]
        _write_mixed(os.path.join(root, LEDGER_FILE), valid, drawn)
        records, _ = _quietly(read_ledger, root)
        assert set(_canonical(valid)) <= set(_canonical(records))
    finally:
        shutil.rmtree(root)


@pytest.mark.parametrize("field,value", [("ts", "soon"), ("run", None)])
def test_a_mistyped_required_field_is_skipped_loudly(tmp_path, field, value):
    ledger = RunLedger(str(tmp_path))
    _failed_run(ledger, "ok")
    with open(ledger.path, encoding="utf-8") as handle:
        bad = json.loads(handle.readline())
    bad[field] = value
    with open(ledger.path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(bad) + "\n")
    with pytest.warns(LedgerCorruptionWarning, match=f"'{field}' has the wrong type"):
        records, problems = read_ledger(str(tmp_path))
    assert len(records) == 3 and len(problems) == 1
    assert f"{ledger.path}:4" in problems[0] and "delete" in problems[0]



def test_a_mistyped_journal_field_neither_crashes_read_nor_replay(tmp_path):
    journal = JobJournal(str(tmp_path))
    journal.job_event("j1", "submitted", spec={})
    job = {"schema": 1, "kind": "job", "job_id": "j1", "event": "admitted",
           "pid": 1}
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**job, "ts": "soon"}) + "\n")
        handle.write(json.dumps({**job, "ts": 9e9, "attempt": "x"}) + "\n")
    with pytest.warns(JournalCorruptionWarning, match="'ts' has the wrong type"):
        records, problems = read_journal(str(tmp_path))
    assert len(records) == 2 and len(problems) == 1
    view = replay(records)["j1"]
    assert view.state == "admitted" and view.attempt == 0

# -- crash at any byte ------------------------------------------------------------


def _journal_history(root: str) -> None:
    journal = JobJournal(root)
    journal.daemon_event("start")
    for job_id, end in (("j-done", "done"), ("j-failed", "failed"),
                        ("j-shed", "shed")):
        journal.job_event(job_id, "submitted", spec={})
        if end == "shed":
            journal.job_event(job_id, "shed", reason="queue-full")
            continue
        journal.job_event(job_id, "admitted", attempt=0)
        journal.job_event(job_id, "running", attempt=1)
        if end == "done":
            journal.job_event(job_id, "done", digest="d", total_s=0.1)
        else:
            journal.job_event(job_id, "failed", error="boom")


def _line_ends(data: bytes) -> list[tuple[int, dict]]:
    """(offset just past each record's closing brace, record)."""
    ends, start = [], 0
    for line in data.split(b"\n")[:-1]:
        ends.append((start + len(line), json.loads(line)))
        start += len(line) + 1
    return ends


def _crash_at_every_byte(tmp_path, monkeypatch, name, write_history, read, append,
                         check=lambda survivors, after: None):
    # Every offset appends through a fresh writer; the fsyncs would only
    # slow this down, and durability is not what is under test here.
    monkeypatch.setattr(jsonl_log.os, "fsync", lambda fd: None)
    source = str(tmp_path / "source")
    write_history(source)
    with open(os.path.join(source, name), "rb") as handle:
        data = handle.read()
    ends = _line_ends(data)
    root = str(tmp_path / "cut")
    for cut in range(len(data) + 1):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        with open(os.path.join(root, name), "wb") as handle:
            handle.write(data[:cut])
        records, problems = _quietly(read, root)
        survivors = [record for end, record in ends if end <= cut]
        assert _canonical(records) == _canonical(survivors), cut
        assert len(problems) <= 1, (cut, problems)
        appended = append(root)
        after, _ = _quietly(read, root)
        assert _canonical(after) == _canonical(survivors + appended), cut
        check(survivors, after)


def test_journal_crash_at_any_byte(tmp_path, monkeypatch):
    def append(root):
        return [JobJournal(root).job_event("j-done", "requeued", reason="late")]

    def terminal_stays_terminal(survivors, after):
        now = replay(after)
        for job_id, view in replay(survivors).items():
            if view.terminal:
                assert now[job_id].state == view.state

    _crash_at_every_byte(tmp_path, monkeypatch, JOURNAL_FILE, _journal_history,
                         read_journal, append, terminal_stays_terminal)


def test_ledger_crash_at_any_byte(tmp_path, monkeypatch):
    def history(root):
        ledger = RunLedger(root)
        _failed_run(ledger, "one")
        _failed_run(ledger, "two")

    def append(root):
        ledger = RunLedger(root)
        _failed_run(ledger, "after")
        with open(ledger.path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()[-3:]
        return [json.loads(line) for line in lines]

    _crash_at_every_byte(tmp_path, monkeypatch, LEDGER_FILE, history,
                         read_ledger, append)
