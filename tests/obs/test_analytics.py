"""Tests for the workflow-DNA analytics engine (repro.obs.analytics)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.pipeline import PHASE_KMEANS, run_pipeline
from repro.exec.faultinject import FaultPlan, FaultSpec
from repro.exec.inline import SequentialBackend
from repro.obs import analytics, read_ledger
from repro.plan.calibration import CalibrationStore
from repro.text.synth import MIX_PROFILE, generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=1)


def _rec(step, duration, run_id="r1", started=1000.0, status="ok", **extra):
    record = {
        "schema": 1,
        "run_id": run_id,
        "ts": started + duration,
        "step": step,
        "status": status,
        "duration_s": duration,
        "run": {"started": started, "kind": "pipeline", "backend": "threads-2",
                "n_docs": 10, "total_s": duration},
    }
    record.update(extra)
    return record


class TestHeatmap:
    def test_empty_history(self):
        assert analytics.heatmap([]) == {}

    def test_aggregates_durations_failures_and_telemetry(self):
        records = [
            _rec("transform", 0.1, run_id="r1",
                 ipc={"task_pickle_bytes": 600, "result_pickle_bytes": 400},
                 cache={"hits": 3, "misses": 1, "seconds_saved": 0.25},
                 span={"utilization": 0.5, "straggler_ratio": 2.0,
                       "queue_wait_s": 0.01}),
            _rec("transform", 0.3, run_id="r2", started=1010.0,
                 span={"utilization": 0.7, "straggler_ratio": 4.0,
                       "queue_wait_s": 0.03}),
            _rec("transform", 0.0, run_id="r3", started=1020.0,
                 status="failed", error="boom"),
        ]
        stats = analytics.heatmap(records)["transform"]
        assert stats.n_records == 3
        assert stats.n_failed == 1
        assert stats.failure_rate == pytest.approx(1 / 3)
        # Failed records contribute no duration sample.
        assert sorted(stats.durations) == [0.1, 0.3]
        assert stats.p50_s == 0.1
        assert stats.p95_s == 0.3
        assert stats.bytes_moved == 1000
        assert stats.cache_hit_rate == pytest.approx(0.75)
        assert stats.seconds_saved == pytest.approx(0.25)
        assert stats.mean_utilization == pytest.approx(0.6)
        assert stats.mean_straggler_ratio == pytest.approx(3.0)
        assert stats.queue_wait_s == pytest.approx(0.04)

    def test_untelemetered_steps_report_none_not_zero(self):
        stats = analytics.heatmap([_rec("kmeans", 0.1)])["kmeans"]
        assert stats.cache_hit_rate is None
        assert stats.mean_utilization is None
        assert stats.mean_straggler_ratio is None


class TestStepHistory:
    def test_filters_by_step(self):
        records = [_rec("input+wc", 0.1), _rec("kmeans", 0.2)]
        rows = analytics.step_history(records, step="kmeans")
        assert [r["step"] for r in rows] == ["kmeans"]
        assert rows[0]["backend"] == "threads-2"
        assert len(analytics.step_history(records)) == 2


class TestRegressions:
    def test_two_clean_runs_never_flag(self):
        records = [
            _rec("kmeans", 0.1, run_id="r1"),
            _rec("kmeans", 0.4, run_id="r2", started=1010.0),
        ]
        assert analytics.detect_regressions(records) == []

    def test_slow_latest_flagged_against_trailing_median(self):
        records = [
            _rec("kmeans", 0.10, run_id="r1"),
            _rec("kmeans", 0.12, run_id="r2", started=1010.0),
            _rec("input+wc", 0.20, run_id="r1"),
            _rec("input+wc", 0.21, run_id="r2", started=1010.0),
            _rec("input+wc", 0.20, run_id="r3", started=1020.0),
            _rec("kmeans", 0.50, run_id="r3", started=1020.0),
        ]
        flagged = analytics.detect_regressions(records)
        assert [f["step"] for f in flagged] == ["kmeans"]
        flag = flagged[0]
        assert flag["latest_s"] == pytest.approx(0.5)
        assert flag["baseline_p50_s"] == pytest.approx(0.10)
        assert flag["ratio"] == pytest.approx(5.0)
        assert flag["samples"] == 3

    def test_absolute_slack_ignores_micro_jitter(self):
        # 3x slower but only 2ms absolute: under the slack, not a flag.
        records = [
            _rec("kmeans", 0.001, run_id=f"r{i}", started=1000.0 + i)
            for i in range(3)
        ] + [_rec("kmeans", 0.003, run_id="r9", started=1010.0)]
        assert analytics.detect_regressions(records) == []

    def test_failed_runs_never_feed_the_baseline(self):
        records = [
            _rec("kmeans", 0.1, run_id="r1"),
            _rec("kmeans", 99.0, run_id="r2", started=1010.0, status="failed"),
            _rec("kmeans", 0.1, run_id="r3", started=1020.0),
            _rec("kmeans", 0.1, run_id="r4", started=1030.0),
        ]
        assert analytics.detect_regressions(records) == []

    def test_fault_injected_slow_step_flagged_exactly(
        self, tmp_path, corpus, monkeypatch
    ):
        """End to end: 3 clean ledgered runs, then one with an injected
        hang in kmeans — ``regressions`` must flag kmeans and only kmeans.

        The driver reads phase time through one module-level clock; a
        deterministic one stands in for it (every reading 0.10 s after
        the last, an injected hang adding what it would have slept), so
        the verdict cannot depend on how loaded the host is.
        """
        led = str(tmp_path / "led")
        now = [0.0]

        def clock():
            now[0] += 0.10
            return now[0]

        def hang(seconds):
            now[0] += seconds

        monkeypatch.setattr("repro.core.pipeline._clock", clock)
        # Only the fault injector's view of ``time``: nothing else sleeps
        # on the fake clock.
        monkeypatch.setattr(
            "repro.exec.faultinject.time", SimpleNamespace(sleep=hang)
        )

        def run(fault_plan=None):
            backend = SequentialBackend()
            if fault_plan is not None:
                backend.fault_plan = fault_plan
            try:
                run_pipeline(corpus, backend=backend, ledger=led)
            finally:
                backend.close()

        for _ in range(3):
            run()
        state = tmp_path / "faults"
        state.mkdir()
        run(FaultPlan(
            [FaultSpec(PHASE_KMEANS, 0, "hang", hang_s=0.5)], str(state)
        ))

        records, problems = read_ledger(led)
        assert problems == []
        durations = {}
        for record in records:
            durations.setdefault(record["step"], []).append(record["duration_s"])
        for step, seen in durations.items():
            slow = 0.60 if step == PHASE_KMEANS else 0.10
            assert seen == pytest.approx([0.10, 0.10, 0.10, slow]), step
        flagged = analytics.detect_regressions(records)
        assert [f["step"] for f in flagged] == [PHASE_KMEANS]
        assert flagged[0]["latest_s"] == pytest.approx(0.60)
        assert flagged[0]["baseline_p50_s"] == pytest.approx(0.10)


class TestExports:
    RECORDS = [
        _rec("input+wc", 0.2, run_id="r1",
             ipc={"task_pickle_bytes": 100, "result_pickle_bytes": 50}),
        _rec("kmeans", 0.1, run_id="r1",
             span={"utilization": 0.8, "straggler_ratio": 1.5,
                   "queue_wait_s": 0.0}),
        _rec("input+wc", 0.25, run_id="r2", started=1010.0),
        _rec("kmeans", 0.1, run_id="r2", started=1010.0,
             cache={"hits": 1, "misses": 0, "seconds_saved": 0.1}),
    ]

    def test_json_export_shape(self):
        doc = analytics.export_json(self.RECORDS)
        assert doc["runs"] == 2
        assert doc["records"] == 4
        assert [s["step"] for s in doc["steps"]] == ["input+wc", "kmeans"]
        assert doc["regressions"] == []

    def test_prom_export_is_text_exposition(self):
        text = analytics.export_prom(self.RECORDS)
        assert '# TYPE repro_step_runs_total gauge' in text
        assert 'repro_step_runs_total{step="input+wc"} 2' in text
        assert 'repro_step_duration_seconds{step="kmeans",quantile="0.5"}' in text
        assert 'repro_step_bytes_moved_total{step="input+wc"} 150' in text
        assert 'repro_step_cache_hit_ratio{step="kmeans"} 1' in text
        assert 'repro_step_utilization_ratio{step="kmeans"} 0.8' in text
        assert text.endswith("\n")

    def test_prom_export_escapes_labels(self):
        text = analytics.export_prom([_rec('we"ird', 0.1)])
        assert 'step="we\\"ird"' in text

    def test_chrome_export_one_lane_per_run(self):
        doc = analytics.export_chrome(self.RECORDS)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 4
        assert len({e["tid"] for e in spans}) == 2
        assert all(e["ts"] >= 0 for e in spans)
        lanes = [e for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {lane["args"]["name"] for lane in lanes} == {"run r1", "run r2"}

    def test_html_export_is_self_contained(self):
        html = analytics.export_html(self.RECORDS)
        assert html.startswith("<!doctype html>")
        assert "Workflow DNA" in html and "2 run(s)" in html
        assert "input+wc" in html and "kmeans" in html
        assert "http" not in html  # no external assets

    def test_html_export_badges_regressions(self):
        records = [
            _rec("kmeans", 0.1, run_id=f"r{i}", started=1000.0 + i)
            for i in range(3)
        ] + [_rec("kmeans", 5.0, run_id="r9", started=1010.0)]
        assert "regression" in analytics.export_html(records)


class TestRecalibrate:
    def _store(self, corpus):
        return CalibrationStore.probe(corpus)

    def test_traced_history_changes_predictions(self, corpus):
        store = self._store(corpus)
        before = {
            phase: constants.compute_ns_per_doc
            for phase, constants in store.phases.items()
        }
        n = len(corpus)
        records = []
        for i, run_id in enumerate(("r1", "r2")):
            for step in ("input+wc", "transform", "kmeans"):
                records.append(_rec(
                    step, 1.0, run_id=run_id, started=1000.0 + 10 * i,
                    span_totals={"busy_s": 1.0, "n_items": n},
                ))
                records[-1]["run"]["n_docs"] = n
                # K-means constants are per pass; replay needs the count.
                records[-1]["run"]["kmeans_passes"] = 2
        summary = analytics.recalibrate(records, store)
        assert summary == {"runs_applied": 2, "runs_skipped": 0}
        assert store.source == "observed"
        for phase, old in before.items():
            assert store.phases[phase].compute_ns_per_doc != old

    def test_sequential_runs_contribute_wall_time_as_compute(self, corpus):
        store = self._store(corpus)
        record = _rec("kmeans", 2.0)
        record["run"]["backend"] = "sequential"
        record["run"]["n_docs"] = len(corpus)
        summary = analytics.recalibrate([record], store)
        assert summary["runs_applied"] == 1

    def test_untraced_parallel_and_failed_runs_skipped(self, corpus):
        store = self._store(corpus)
        untraced = _rec("kmeans", 2.0, run_id="r1")  # threads, no span_totals
        failed = _rec("kmeans", 2.0, run_id="r2", started=1010.0,
                      status="failed",
                      span_totals={"busy_s": 1.0, "n_items": 10})
        summary = analytics.recalibrate([untraced, failed], store)
        assert summary == {"runs_applied": 0, "runs_skipped": 2}
