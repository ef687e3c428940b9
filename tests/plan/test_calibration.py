"""Calibration store: probe, persistence round-trip, observed-run fits."""

from __future__ import annotations

import copy
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.pipeline import run_pipeline
from repro.exec.process import make_backend
from repro.exec.spans import SpanRecorder, RunTrace
from repro.obs import analytics
from repro.obs.ledger import read_ledger
from repro.plan import (
    AdaptivePlanner,
    CalibrationStore,
    PhaseConstants,
    PhasePlan,
    PhaseWorkload,
    RealCostModel,
)
from repro.text.synth import MIX_PROFILE, generate_corpus

PHASES = ("input+wc", "transform", "kmeans")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=7)


@pytest.fixture(scope="module")
def probed(corpus):
    return CalibrationStore.probe(corpus)


class TestProbe:
    def test_fits_every_phase(self, probed):
        for phase in PHASES:
            constants = probed.phases[phase]
            assert constants.compute_ns_per_doc > 0
            assert constants.task_bytes_per_doc > 0
            assert constants.result_bytes_per_doc > 0
        assert probed.pickle_ns_per_byte > 0
        assert probed.unpickle_ns_per_byte > 0
        assert probed.samples >= 16
        assert probed.source == "probe"
        assert "probe" in probed.describe()

    def test_probe_rejects_empty_corpus(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CalibrationStore.probe([])


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self, probed):
        clone = CalibrationStore.from_dict(probed.to_dict())
        assert clone.to_dict() == probed.to_dict()

    def test_save_load_preserves_predictions(self, probed, tmp_path):
        path = str(tmp_path / "calib.json")
        probed.save(path)
        loaded = CalibrationStore.load(path)
        workload = PhaseWorkload("transform", 1000)
        for plan in (
            PhasePlan("transform", "sequential"),
            PhasePlan("transform", "threads", 4),
            PhasePlan("transform", "processes", 2, True),
        ):
            a = RealCostModel(probed, cpu_count=2).predict(workload, plan)
            b = RealCostModel(loaded, cpu_count=2).predict(workload, plan)
            assert a.predicted_s == b.predicted_s
            assert a.breakdown == b.breakdown

    def test_load_or_probe_persists_then_reloads(self, corpus, tmp_path):
        path = str(tmp_path / "calib.json")
        first = CalibrationStore.load_or_probe(path, corpus)
        second = CalibrationStore.load_or_probe(path, corpus)
        assert first.to_dict() == second.to_dict()

    def test_save_is_atomic(self, probed, tmp_path):
        import json
        import os

        path = str(tmp_path / "calib.json")
        probed.save(path)
        probed.save(path)  # overwrite goes through the same replace
        with open(path, "r", encoding="utf-8") as handle:
            json.load(handle)  # never a partially written file
        assert not [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]

    def test_load_empty_file_names_path_and_cause(self, tmp_path):
        from repro.errors import ConfigurationError

        path = str(tmp_path / "calib.json")
        open(path, "w").close()
        with pytest.raises(ConfigurationError, match="calib.json") as err:
            CalibrationStore.load(path)
        assert "truncated" in str(err.value)
        assert "delete it" in str(err.value)

    def test_load_corrupt_json_names_path_and_cause(self, tmp_path):
        from repro.errors import ConfigurationError

        path = str(tmp_path / "calib.json")
        with open(path, "w") as handle:
            handle.write('{"phases": {"input+wc"')
        with pytest.raises(ConfigurationError, match="calib.json") as err:
            CalibrationStore.load(path)
        assert "not valid JSON" in str(err.value)

    def test_retired_constants_are_dropped(self, probed):
        payload = probed.to_dict()
        payload["cache_serve_ns_per_doc"] = 123.0
        payload["phases"]["input+wc"]["merge_ops_per_doc"] = 4.0
        clone = CalibrationStore.from_dict(payload)
        assert clone.to_dict() == probed.to_dict()


#: Stores written before the dictionary, grain and cache-pinning
#: dimensions left the planner: both committed fixtures, unedited, and a
#: probed-then-observed store as ``save`` wrote it then.
_HERE = Path(__file__).resolve().parent
LEGACY_STORES = [
    str(_HERE.parents[1] / "perfbench" / "calibration.json"),
    str(_HERE.parents[1] / "benchmarks" / "calibration_ci.json"),
    str(_HERE / "legacy_store.json"),
]


class TestLegacyStores:
    @pytest.mark.parametrize(
        "path", LEGACY_STORES, ids=["perfbench", "ci", "observed"]
    )
    def test_loads_and_plans(self, path):
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        assert "dict_ns_per_op" in raw  # the file still carries retired keys
        store = CalibrationStore.load(path)
        assert set(store.phases) == set(PHASES)
        plan = AdaptivePlanner(store, cpu_count=2, shm_ok=False).plan(1000)
        assert set(plan.phases) == set(PHASES)
        assert plan.predicted_total_s > 0
        assert "dict_ns_per_op" not in store.to_dict()


class TestObserveRun:
    def test_fit_from_synthetic_spans_and_ipc(self):
        """Fitting on a known-constant run converges within tolerance."""
        store = CalibrationStore(
            phases={phase: PhaseConstants() for phase in PHASES}
        )
        # Synthesize a trace whose busy time is exactly 1ms/doc in each
        # phase, and an IPC snapshot shipping exactly 100/50 bytes/doc.
        recorder = SpanRecorder()
        recorder.begin_run()
        n_docs = 200
        for phase in PHASES:
            recorder.set_phase(phase)
            start = recorder.now()
            recorder.record_worker_span(
                (phase, 0, 0, start, start + n_docs * 1e-3, n_docs, 0, 0, 0.0)
            )
        trace = RunTrace.from_recorder(recorder, {}, "synthetic", 1)

        class FakeResult:
            pass

        result = FakeResult()
        result.trace = trace
        result.kmeans = SimpleNamespace(n_iters=1)
        result.ipc = {
            "phases": {
                phase: {
                    "task_pickle_bytes": 100 * n_docs,
                    "result_pickle_bytes": 50 * n_docs,
                }
                for phase in PHASES
            }
        }
        # Blending from zero adopts the measurement outright; a second
        # observation of the same run must leave it fixed.
        for _ in range(2):
            store.observe_run(result, n_docs)
        for phase in PHASES:
            constants = store.phases[phase]
            assert constants.compute_ns_per_doc == pytest.approx(1e6, rel=0.01)
            assert constants.task_bytes_per_doc == pytest.approx(100, rel=0.01)
            assert constants.result_bytes_per_doc == pytest.approx(50, rel=0.01)
        assert store.source == "observed"
        assert store.samples == 2 * n_docs

    def test_observed_real_run_stays_within_tolerance(self, corpus, probed):
        """A probe-seeded store predicts a real traced run within 10x.

        Wall-clock noise on shared CI makes tight bounds flaky; the
        planner only needs the *ordering* of candidates to be right, so
        this guards against unit errors (ns vs s, per-doc vs per-run),
        not timer jitter.
        """
        backend = make_backend("sequential")
        result = run_pipeline(corpus, backend=backend, trace=True)
        backend.close()
        model = RealCostModel(probed, cpu_count=1)
        for phase in ("input+wc", "transform"):
            predicted = model.predict(
                PhaseWorkload(phase, len(corpus)),
                PhasePlan(phase, "sequential"),
            ).predicted_s
            actual = result.phase_seconds[phase]
            assert predicted < 10 * max(actual, 1e-4)
            assert actual < 10 * max(predicted, 1e-4)


class TestKmeansUnits:
    """K-means constants are per document per assignment pass: in the
    probe, the cost model, live feedback and ledger replay alike."""

    @pytest.fixture(scope="class")
    def run(self, corpus, tmp_path_factory):
        ledger = str(tmp_path_factory.mktemp("ledger"))
        backend = make_backend("processes", 2, shm=False)
        try:
            result = run_pipeline(corpus, backend=backend, trace=True, ledger=ledger)
        finally:
            backend.close()
        # One pass would hide a missing division by the pass count.
        assert result.kmeans.n_iters >= 2
        records, problems = read_ledger(ledger)
        assert not problems
        return result, records

    @staticmethod
    def _empty_store():
        return CalibrationStore(phases={phase: PhaseConstants() for phase in PHASES})

    @staticmethod
    def _assert_per_document_pass(store, result, n_docs):
        totals = result.trace.phase_totals()
        units = n_docs * result.kmeans.n_iters
        ipc = result.ipc["phases"]["kmeans"]
        kmeans = store.phases["kmeans"]
        assert kmeans.task_bytes_per_doc == pytest.approx(
            ipc["task_pickle_bytes"] / units
        )
        assert kmeans.result_bytes_per_doc == pytest.approx(
            ipc["result_pickle_bytes"] / units
        )
        assert kmeans.compute_ns_per_doc == pytest.approx(
            totals["kmeans"]["busy_s"] / units * 1e9
        )
        # Spans count chunks, not documents: every phase divides by documents.
        assert store.phases["input+wc"].compute_ns_per_doc == pytest.approx(
            totals["input+wc"]["busy_s"] / n_docs * 1e9
        )

    def test_live_feedback_divides_by_documents_times_passes(self, corpus, run):
        result, _ = run
        store = self._empty_store()
        store.observe_run(result, len(corpus))
        self._assert_per_document_pass(store, result, len(corpus))

    def test_ledger_replay_divides_by_documents_times_passes(self, corpus, run):
        result, records = run
        store = self._empty_store()
        assert analytics.recalibrate(records, store)["runs_applied"] == 1
        self._assert_per_document_pass(store, result, len(corpus))

    def test_replay_without_a_pass_count_leaves_kmeans_untouched(self, run):
        records = copy.deepcopy(run[1])
        for record in records:
            del record["run"]["kmeans_passes"]
        store = self._empty_store()
        store.phases["kmeans"] = PhaseConstants(1.0, 2.0, 3.0, 4.0)
        analytics.recalibrate(records, store)
        assert store.phases["kmeans"] == PhaseConstants(1.0, 2.0, 3.0, 4.0)
        assert store.phases["input+wc"].compute_ns_per_doc > 0


class TestObserveGate:
    """``run_pipeline(observe=...)`` controls calibration feedback."""

    def test_auto_plan_observes_by_default(self, corpus, probed):
        store = CalibrationStore.from_dict(probed.to_dict())
        before = store.samples
        run_pipeline(corpus, plan="auto", calibration=store, trace=True)
        assert store.samples > before
        assert store.source == "observed"

    def test_observe_false_leaves_the_store_untouched(self, corpus, probed):
        store = CalibrationStore.from_dict(probed.to_dict())
        snapshot = store.to_dict()
        run_pipeline(
            corpus, plan="auto", calibration=store, trace=True, observe=False
        )
        assert store.to_dict() == snapshot

    def test_observe_false_skips_the_store_save(self, corpus, tmp_path):
        path = str(tmp_path / "cal.json")
        CalibrationStore.probe(corpus).save(path)
        before = open(path).read()
        run_pipeline(
            corpus, plan="auto", calibration=path, trace=True, observe=False
        )
        assert open(path).read() == before
