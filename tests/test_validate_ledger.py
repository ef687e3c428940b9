"""Tests for the strict run-ledger validator (tools/validate_ledger.py)."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.pipeline import run_pipeline
from repro.text.synth import MIX_PROFILE, generate_corpus
from tests.validator_tool import bound, validate

validate_ledger = bound("ledger", validate_dir=validate.check_ledger)


def _record(run_id="r1", ts=1001.0, step="kmeans", status="ok", **extra):
    record = {
        "schema": 1,
        "run_id": run_id,
        "ts": ts,
        "step": step,
        "status": status,
        "duration_s": 0.5,
        "run": {"started": 1000.0, "kind": "pipeline", "backend": "threads-2",
                "n_docs": 10, "total_s": 1.0},
        "host": {"platform": "test", "python": "3.11.0", "cpu_count": 1},
    }
    record.update(extra)
    return record


def _ledger_dir(tmp_path, records):
    root = tmp_path / "led"
    root.mkdir(exist_ok=True)
    with open(root / "ledger.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write((record if isinstance(record, str)
                          else json.dumps(record)) + "\n")
    return str(root)


class TestValidateDir:
    def test_accepts_a_pristine_ledger(self, tmp_path):
        root = _ledger_dir(tmp_path, [
            _record(ts=1001.0, step="input+wc"),
            _record(ts=1002.0, step="kmeans"),
        ])
        records, problems = validate_ledger.validate_dir(root)
        assert problems == []
        assert len(records) == 2

    def test_accepts_a_real_pipeline_ledger(self, tmp_path):
        corpus = generate_corpus(MIX_PROFILE, scale=0.002, seed=1)
        led = str(tmp_path / "led")
        run_pipeline(corpus, ledger=led)
        run_pipeline(corpus, ledger=led)
        records, problems = validate_ledger.validate_dir(led)
        assert problems == []
        assert len(records) == 6

    def test_rejects_missing_dir_and_empty_dir(self, tmp_path):
        _, problems = validate_ledger.validate_dir(str(tmp_path / "nope"))
        assert any("not a directory" in p for p in problems)
        empty = tmp_path / "empty"
        empty.mkdir()
        _, problems = validate_ledger.validate_dir(str(empty))
        assert any("no *.jsonl" in p for p in problems)

    def test_rejects_corrupt_line_strictly(self, tmp_path):
        root = _ledger_dir(tmp_path, [_record(), '{"schema": 1, "torn'])
        _, problems = validate_ledger.validate_dir(root)
        assert any("not valid JSON" in p for p in problems)

    def test_rejects_non_increasing_timestamps_within_a_run(self, tmp_path):
        root = _ledger_dir(tmp_path, [
            _record(ts=1002.0, step="input+wc"),
            _record(ts=1002.0, step="kmeans"),
        ])
        _, problems = validate_ledger.validate_dir(root)
        assert any("strictly increasing" in p for p in problems)

    def test_newer_schema_records_pass_without_deep_checks(self, tmp_path):
        root = _ledger_dir(tmp_path, [
            _record(),
            {"schema": 2, "mystery": True},
        ])
        _, problems = validate_ledger.validate_dir(root)
        assert problems == []


class TestValidateRecord:
    def test_rejects_missing_fields(self, tmp_path):
        bad = _record()
        del bad["run_id"]
        bad["duration_s"] = -1
        bad["run"] = {"started": 1000.0}
        root = _ledger_dir(tmp_path, [bad])
        _, problems = validate_ledger.validate_dir(root)
        assert any("run_id" in p for p in problems)
        assert any("duration_s" in p for p in problems)
        assert any("'backend'" in p for p in problems)

    def test_failed_record_requires_error(self, tmp_path):
        root = _ledger_dir(tmp_path, [_record(status="failed")])
        _, problems = validate_ledger.validate_dir(root)
        assert any("'error'" in p for p in problems)
        ok_parent = tmp_path / "ok"
        ok_parent.mkdir()
        root2 = _ledger_dir(ok_parent, [
            _record(status="failed", error="boom"),
        ])
        _, problems = validate_ledger.validate_dir(root2)
        assert problems == []

    def test_rejects_unknown_status(self, tmp_path):
        root = _ledger_dir(tmp_path, [_record(status="meh")])
        _, problems = validate_ledger.validate_dir(root)
        assert any("'status'" in p for p in problems)


class TestMain:
    def test_valid_ledger_exits_zero(self, tmp_path, capsys):
        root = _ledger_dir(tmp_path, [_record()])
        assert validate_ledger.main([root]) == 0
        assert "1 valid step record(s) across 1 run(s)" in capsys.readouterr().out

    def test_single_file_accepted(self, tmp_path, capsys):
        root = _ledger_dir(tmp_path, [_record()])
        assert validate_ledger.main([os.path.join(root, "ledger.jsonl")]) == 0

    def test_corrupt_ledger_exits_one(self, tmp_path, capsys):
        root = _ledger_dir(tmp_path, ["not json at all"])
        assert validate_ledger.main([root]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_file_refused_with_remedy(self, tmp_path, capsys):
        root = tmp_path / "led"
        root.mkdir()
        (root / "ledger.jsonl").write_text("")
        assert validate_ledger.main([str(root)]) == 1
        err = capsys.readouterr().err
        assert "is empty" in err and "delete the damaged ledger file" in err
