"""Tests for per-task span tracing (repro.exec.spans)."""

from __future__ import annotations

import json
import pickle
import time

import pytest

from repro.core.pipeline import run_pipeline
from repro.errors import ConfigurationError
from repro.exec.process import ProcessBackend, make_backend
from repro.exec.spans import (
    RunTrace,
    SpanRecorder,
    TaskSpan,
    install_worker_epoch,
    worker_now,
)
from repro.sim.trace import phase_timings, render_phase_trace
from repro.text.synth import MIX_PROFILE, generate_corpus


def span(phase, task_id, worker, t0, t1, **kw):
    return TaskSpan(phase=phase, task_id=task_id, worker=worker,
                    t_start=t0, t_end=t1, **kw)


class TestSpanRecorder:
    def test_disarmed_record_is_a_noop(self):
        recorder = SpanRecorder()
        recorder.record(0.0, 1.0)
        assert recorder.spans == []
        assert recorder.enabled is False

    def test_begin_run_arms_and_clears(self):
        recorder = SpanRecorder()
        epoch = recorder.begin_run()
        assert recorder.enabled and epoch == recorder.epoch
        recorder.record(0.0, 1.0, n_items=3)
        assert len(recorder.spans) == 1
        recorder.begin_run()  # re-arming drops the previous run's spans
        assert recorder.spans == []

    def test_begin_run_anchors_epoch_to_wall_clock(self):
        recorder = SpanRecorder()
        before = time.time()
        recorder.begin_run()
        after = time.time()
        assert before <= recorder.epoch_wall <= after

    def test_end_run_disarms_but_keeps_spans(self):
        recorder = SpanRecorder()
        recorder.begin_run()
        recorder.record(0.0, 1.0)
        recorder.end_run()
        recorder.record(1.0, 2.0)  # post-run records are dropped
        assert len(recorder.spans) == 1

    def test_lanes_are_dense_in_first_appearance_order(self):
        recorder = SpanRecorder()
        recorder.begin_run()
        recorder.record(0, 1, worker_key=("proc", 4242))
        recorder.record(1, 2, worker_key=("thread", 7))
        recorder.record(2, 3, worker_key=("proc", 4242))
        assert [s.worker for s in recorder.spans] == [0, 1, 0]
        assert recorder.n_lanes == 2

    def test_record_worker_span_round_trip(self):
        recorder = SpanRecorder()
        recorder.begin_run()
        raw = ("kmeans", 5, 999, 1.0, 1.5, 4, 100, 200, 0.25)
        recorder.record_worker_span(raw)
        (s,) = recorder.spans
        assert (s.phase, s.task_id) == ("kmeans", 5)
        assert (s.t_start, s.t_end) == (1.0, 1.5)
        assert (s.n_items, s.in_bytes, s.out_bytes, s.queue_s) == (4, 100, 200, 0.25)

    def test_negative_queue_wait_is_clamped(self):
        recorder = SpanRecorder()
        recorder.begin_run()
        recorder.record(0.0, 1.0, queue_s=-0.5)
        assert recorder.spans[0].queue_s == 0.0


class TestWorkerEpoch:
    def test_install_rebases_worker_clock(self):
        try:
            install_worker_epoch(0.0)
            raw = worker_now()
            install_worker_epoch(raw)  # "now" becomes the epoch
            assert worker_now() < raw
        finally:
            install_worker_epoch(0.0)


class TestPhaseStats:
    def test_full_utilization_single_worker(self):
        trace = RunTrace(spans=[span("p", 0, 0, 0.0, 1.0), span("p", 1, 0, 1.0, 2.0)])
        stats = trace.phase_summary()["p"]
        assert stats.n_tasks == 2
        assert stats.n_workers == 1
        assert stats.window_s == pytest.approx(2.0)
        assert stats.busy_s == pytest.approx(2.0)
        assert stats.utilization == pytest.approx(1.0)
        assert stats.straggler_ratio == pytest.approx(1.0)
        assert stats.serial_tail_s == 0.0

    def test_idle_worker_halves_utilization(self):
        # Worker 1 finishes at t=1 while worker 0 runs until t=2.
        trace = RunTrace(spans=[
            span("p", 0, 0, 0.0, 2.0),
            span("p", 1, 1, 0.0, 1.0),
        ])
        stats = trace.phase_summary()["p"]
        assert stats.n_workers == 2
        assert stats.utilization == pytest.approx(3.0 / 4.0)
        assert stats.straggler_ratio == pytest.approx(2.0)  # p100=2, p50=1
        assert stats.serial_tail_s == pytest.approx(1.0)

    def test_queue_wait_totals(self):
        trace = RunTrace(spans=[
            span("p", 0, 0, 0.0, 1.0, queue_s=0.2),
            span("p", 1, 1, 0.0, 1.0, queue_s=0.3),
        ])
        assert trace.phase_summary()["p"].queue_wait_s == pytest.approx(0.5)

    def test_busy_never_exceeds_lanes_times_window(self):
        # Spans per worker are disjoint, so busy <= n_workers * window.
        trace = RunTrace(spans=[
            span("p", i, i % 3, 0.1 * i, 0.1 * i + 0.05) for i in range(12)
        ])
        stats = trace.phase_summary()["p"]
        assert stats.busy_s <= stats.n_workers * stats.window_s + 1e-9

    def test_top_stragglers_sorted_slowest_first(self):
        trace = RunTrace(spans=[
            span("a", 0, 0, 0.0, 0.5),
            span("b", 0, 0, 1.0, 3.0),
            span("a", 1, 1, 0.0, 0.1),
        ])
        top = trace.top_stragglers(2)
        assert [(s.phase, s.task_id) for s in top] == [("b", 0), ("a", 0)]


class TestChromeExport:
    def _trace(self):
        return RunTrace(
            spans=[
                span("input+wc", 0, 0, 0.0, 0.5, n_items=3, out_bytes=10),
                span("input+wc", 1, 1, 0.1, 0.4),
                span("kmeans", 0, 0, 0.6, 0.9, queue_s=0.05),
            ],
            phase_wall_s={"input+wc": 0.5, "kmeans": 0.3},
            backend_name="processes-2",
            workers=2,
        )

    def test_structure_is_valid_trace_event_json(self):
        doc = self._trace().to_chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        # The wall anchor rides along so traces line up against the
        # run ledger's wall-clock timestamps.
        assert doc["otherData"] == {"epoch_wall_s": 0.0}
        events = doc["traceEvents"]
        assert all(e["ph"] in ("M", "X") for e in events)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        for event in xs:
            assert {"pid", "tid", "name", "cat", "ts", "dur", "args"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0
        # Microsecond conversion: 0.5s span -> 500000us.
        assert xs[0]["ts"] == 0.0 and xs[0]["dur"] == pytest.approx(5e5)
        # Metadata names the process and each worker lane.
        names = [e["name"] for e in events if e["ph"] == "M"]
        assert names.count("thread_name") == 2

    def test_spans_disjoint_per_worker_lane(self):
        doc = self._trace().to_chrome_trace()
        by_lane: dict[int, list[tuple[float, float]]] = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                by_lane.setdefault(event["tid"], []).append(
                    (event["ts"], event["ts"] + event["dur"])
                )
        for intervals in by_lane.values():
            intervals.sort()
            for (_, e0), (s1, _) in zip(intervals, intervals[1:]):
                assert s1 >= e0

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self._trace().write_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == self._trace().to_chrome_trace()


class TestPhaseTimingAdapter:
    def test_adapts_and_renders(self):
        trace = RunTrace(spans=[
            span("input+wc", 0, 0, 1.0, 1.5),
            span("input+wc", 1, 1, 1.1, 1.4),
            span("kmeans", 0, 0, 2.0, 2.2),
        ])
        timings = phase_timings(trace)
        assert [t.name for t in timings] == ["input+wc", "kmeans"]
        first = timings[0]
        # Re-based to the phase's first task start.
        assert first.spans[0][1] == pytest.approx(0.0)
        assert first.elapsed_s == pytest.approx(0.5)
        assert first.workers == 2
        chart = render_phase_trace(first)
        assert "input+wc" in chart and "core" in chart


class TestProcessBackendTracing:
    def test_traced_trampoline_results_blob_matches_untraced(self):
        """The results pickle must be byte-identical traced or not."""
        from repro.exec.process import run_pickled_chunk, run_pickled_chunk_traced

        fn = len
        chunk = ["abc", "de", ""]
        plain = run_pickled_chunk(pickle.dumps((fn, chunk)))
        traced, span_blob = run_pickled_chunk_traced(
            pickle.dumps((fn, chunk, 3, "input+wc", 0.0))
        )
        assert traced == plain
        raw = pickle.loads(span_blob)
        assert raw[0] == "input+wc" and raw[1] == 3
        assert raw[5] == len(chunk)

    def test_pool_records_worker_spans_with_rebased_clock(self):
        backend = ProcessBackend(2, shm=False)
        try:
            backend.bill.spans.begin_run()
            backend.begin_phase("input+wc")
            out = backend.map(len, ["x" * i for i in range(50)])
            assert out == [i for i in range(50)]
            spans = backend.bill.spans.spans
            assert len(spans) == 50  # one per item
            now = backend.bill.spans.now()
            for s in spans:
                assert s.phase == "input+wc"
                assert 0.0 <= s.t_start <= s.t_end <= now
                assert s.n_items == 1
                assert s.in_bytes > 0 and s.out_bytes > 0
        finally:
            backend.close()

    def test_span_bytes_billed_separately(self):
        backend = ProcessBackend(1, shm=False)
        try:
            backend.bill.spans.begin_run()
            backend.begin_phase("input+wc")
            untraced_backend = ProcessBackend(1, shm=False)
            try:
                untraced_backend.begin_phase("input+wc")
                backend.map(len, list("abcdef"))
                untraced_backend.map(len, list("abcdef"))
                traced_ipc = backend.bill.ipc.snapshot()["phases"]["input+wc"]
                plain_ipc = untraced_backend.bill.ipc.snapshot()["phases"]["input+wc"]
                # Same result bytes; span payload on its own counter.
                assert (
                    traced_ipc["result_pickle_bytes"]
                    == plain_ipc["result_pickle_bytes"]
                )
                assert traced_ipc["span_pickle_bytes"] > 0
                assert plain_ipc["span_pickle_bytes"] == 0
            finally:
                untraced_backend.close()
        finally:
            backend.close()

    def test_broken_pool_error_names_phase_and_task(self):
        backend = ProcessBackend(1, shm=False)
        try:
            backend.begin_phase("kmeans")
            backend._last_task = "kmeans#7"
            error = backend._broken(ValueError("worker ate a signal"))
            message = str(error)
            assert "kmeans" in message
            assert "kmeans#7" in message
            assert "worker ate a signal" in message
        finally:
            backend.close()

    def test_broken_pool_error_without_context(self):
        backend = ProcessBackend(1, shm=False)
        try:
            error = backend._broken()
            assert "worker pool crashed" in str(error)
        finally:
            backend.close()


class TestBackendAliases:
    @pytest.mark.parametrize("alias,name", [
        ("process", "processes"),
        ("thread", "threads"),
        ("inline", "sequential"),
    ])
    def test_singular_aliases_resolve(self, alias, name):
        backend = make_backend(alias, 2)
        try:
            assert backend.name.startswith(name)
        finally:
            backend.close()

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend("gpu")


class TestTracedPipeline:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(MIX_PROFILE, scale=0.002, seed=3)

    def _assert_identical(self, a, b):
        ma, mb = a.tfidf.matrix, b.tfidf.matrix
        assert (ma.n_rows, ma.n_cols) == (mb.n_rows, mb.n_cols)
        for ra, rb in zip(ma.iter_rows(), mb.iter_rows()):
            assert ra.indices == rb.indices
            assert ra.values == rb.values
        assert a.kmeans.assignments == b.kmeans.assignments

    def test_trace_without_a_backend_runs_sequential(self, corpus):
        traced = run_pipeline(corpus, trace=True)
        assert traced.backend_name == "sequential" and traced.ipc is not None
        assert set(traced.trace.phases) == {"input+wc", "transform", "kmeans"}
        self._assert_identical(traced, run_pipeline(corpus))

    def test_untraced_run_has_no_trace(self, corpus):
        backend = make_backend("sequential")
        try:
            result = run_pipeline(corpus, backend=backend)
        finally:
            backend.close()
        assert result.trace is None
        assert backend.bill.spans.enabled is False

    @pytest.mark.parametrize("name,workers", [
        ("sequential", 1), ("threads", 2), ("processes", 2),
    ])
    def test_every_phase_has_spans_on_every_backend(self, corpus, name, workers):
        backend = make_backend(name, workers)
        try:
            result = run_pipeline(corpus, backend=backend, trace=True)
        finally:
            backend.close()
        trace = result.trace
        assert trace is not None
        assert set(trace.phases) == {"input+wc", "transform", "kmeans"}
        for phase in trace.phases:
            assert len(trace.phase_spans(phase)) >= 1
        summary = trace.phase_summary()
        for stats in summary.values():
            assert 0.0 < stats.utilization <= 1.0 + 1e-9
            assert stats.straggler_ratio >= 1.0
            assert stats.busy_s <= stats.n_workers * stats.window_s + 1e-9
        # Span time within a phase never exceeds that phase's wall time
        # by more than scheduling jitter allows per worker.
        for phase, stats in summary.items():
            wall = result.phase_seconds[phase]
            assert stats.busy_s <= stats.n_workers * wall + 0.25

    @pytest.mark.parametrize("name,workers", [
        ("sequential", 1), ("threads", 2), ("processes", 2),
    ])
    def test_output_bit_identical_tracing_on_or_off(self, corpus, name, workers):
        def run(trace):
            backend = make_backend(name, workers)
            try:
                return run_pipeline(corpus, backend=backend, trace=trace)
            finally:
                backend.close()

        self._assert_identical(run(False), run(True))

    def test_trace_carried_on_result_with_metrics(self, corpus):
        backend = make_backend("processes", 2)
        try:
            result = run_pipeline(corpus, backend=backend, trace=True)
        finally:
            backend.close()
        summary = result.trace.summary_dict()
        for stats in summary.values():
            assert {"utilization", "straggler_ratio", "queue_wait_s",
                    "serial_tail_s", "n_tasks", "n_workers"} <= set(stats)
        assert result.trace.backend_name == "processes-2"
        assert result.trace.workers == 2
