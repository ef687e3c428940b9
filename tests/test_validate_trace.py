"""Tests for the Chrome trace-event validator (tools/validate_trace.py)."""

from __future__ import annotations

import json

import pytest

from tests.validator_tool import bound, validate

validate_trace = bound("trace", validate=validate.check_trace)


def _event(ph="X", tid=0, name="p#0", ts=0.0, dur=1.0, cat="p"):
    event = {"ph": ph, "pid": 0, "tid": tid, "name": name}
    if ph == "X":
        event.update({"ts": ts, "dur": dur, "cat": cat, "args": {}})
    return event


def _doc(events):
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class TestValidate:
    def test_accepts_a_well_formed_trace(self):
        doc = _doc([
            _event(ph="M", name="process_name"),
            _event(ts=0.0, dur=5.0),
            _event(name="p#1", ts=5.0, dur=5.0),
            _event(tid=1, name="q#0", ts=0.0, dur=3.0, cat="q"),
        ])
        assert validate_trace.validate(doc, ["p", "q"]) == []

    def test_rejects_wrong_top_level(self):
        assert validate_trace.validate([], [])
        assert validate_trace.validate({"events": []}, [])
        assert validate_trace.validate(_doc([]), [])

    def test_rejects_missing_keys_and_bad_ph(self):
        problems = validate_trace.validate(
            _doc([{"ph": "X", "pid": 0}, _event(ph="B")]), []
        )
        assert any("lacks required key" in p for p in problems)
        assert any("unexpected ph" in p for p in problems)

    def test_rejects_negative_timestamps(self):
        problems = validate_trace.validate(_doc([_event(ts=-1.0)]), [])
        assert any("negative" in p for p in problems)

    def test_rejects_overlapping_spans_on_one_lane(self):
        doc = _doc([
            _event(ts=0.0, dur=10.0),
            _event(name="p#1", ts=5.0, dur=10.0),
        ])
        problems = validate_trace.validate(doc, [])
        assert any("overlap" in p for p in problems)
        # Same intervals on different lanes are fine.
        doc = _doc([
            _event(ts=0.0, dur=10.0),
            _event(tid=1, name="p#1", ts=5.0, dur=10.0),
        ])
        assert validate_trace.validate(doc, []) == []

    def test_reports_missing_required_phase(self):
        problems = validate_trace.validate(_doc([_event()]), ["p", "kmeans"])
        assert any("'kmeans'" in p for p in problems)

    def test_trace_without_span_events_rejected(self):
        doc = _doc([_event(ph="M", name="process_name")])
        assert any("no complete" in p for p in validate_trace.validate(doc, []))


class TestMain:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_doc([_event()])))
        assert validate_trace.main([str(path), "--phases", "p"]) == 0
        assert "valid trace-event JSON" in capsys.readouterr().out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(_doc([_event(ts=-5.0)])))
        assert validate_trace.main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert validate_trace.main([str(path)]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_empty_file_refused_with_remedy(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text("")
        assert validate_trace.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "is empty" in err and "--trace" in err

    def test_truncated_json_refused_with_remedy(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"traceEvents": [')
        assert validate_trace.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "not valid JSON" in err and str(path) in err

    def test_real_pipeline_trace_passes(self, tmp_path):
        from repro.core.pipeline import run_pipeline
        from repro.exec.process import make_backend
        from repro.text.synth import MIX_PROFILE, generate_corpus

        corpus = generate_corpus(MIX_PROFILE, scale=0.002, seed=1)
        with make_backend("process", 2) as backend:
            result = run_pipeline(corpus, backend=backend, trace=True)
        path = tmp_path / "run.json"
        result.trace.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert validate_trace.validate(
            doc, ["input+wc", "transform", "kmeans"]
        ) == []


@pytest.mark.parametrize("fraction,expected", [
    (0.5, 2.0), (1.0, 4.0), (0.0, 1.0),
])
def test_percentile_nearest_rank(fraction, expected):
    from repro.exec.spans import _percentile

    assert _percentile([1.0, 2.0, 3.0, 4.0], fraction) == expected
