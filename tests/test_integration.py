"""Cross-module integration and failure-injection tests.

These exercise the full paper pipeline across real module boundaries:
filesystem storage, the workflow engine, both execution modes, the
planner, and error propagation when the substrate misbehaves.
"""

import pytest

from repro import (
    MIX_PROFILE,
    FsStorage,
    MemStorage,
    generate_corpus,
    read_sparse_arff,
    store_corpus,
)
from repro.errors import StorageError
from repro.exec import TaskCost
from repro.io.storage import Storage
from repro.sim import (
    SimScheduler,
    WorkflowPlanner,
    build_tfidf_kmeans_workflow,
    paper_node,
)
from repro.sim.cost_model import WorkloadScale


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=21)


class TestFilesystemPipeline:
    def test_full_discrete_run_on_real_files(self, corpus, tmp_path):
        storage = FsStorage(str(tmp_path / "data"))
        store_corpus(storage, corpus, prefix="in/")
        workflow = build_tfidf_kmeans_workflow(mode="discrete", max_iters=5)
        result = workflow.run(
            SimScheduler(paper_node(8)),
            storage,
            inputs={"tfidf.corpus_prefix": "in/"},
            workers=8,
            scratch_prefix="scratch/",
        )
        # The intermediate ARFF is a real file readable by the codec.
        arff_path = tmp_path / "data" / "scratch" / "tfidf.scores.arff"
        assert arff_path.exists()
        relation = read_sparse_arff(arff_path.read_text())
        assert relation.rows.n_rows == len(corpus)
        # And the final output is real too.
        clusters_file = tmp_path / "data" / "clusters.txt"
        assert len(clusters_file.read_text().strip().splitlines()) == len(corpus)
        assert result.total_s > 0

    def test_mem_and_fs_storage_agree(self, corpus, tmp_path):
        results = {}
        for label, storage in (
            ("mem", MemStorage()),
            ("fs", FsStorage(str(tmp_path / "fs"))),
        ):
            store_corpus(storage, corpus, prefix="in/")
            workflow = build_tfidf_kmeans_workflow(mode="merged", max_iters=5)
            results[label] = workflow.run(
                SimScheduler(paper_node(8)),
                storage,
                inputs={"tfidf.corpus_prefix": "in/"},
                workers=8,
            )
        assert (
            results["mem"].value("kmeans.clusters").assignments
            == results["fs"].value("kmeans.clusters").assignments
        )
        assert results["mem"].total_s == pytest.approx(
            results["fs"].total_s, rel=1e-9
        )


class TestDeterminism:
    def test_repeated_runs_identical(self, corpus):
        outcomes = []
        for _ in range(2):
            storage = MemStorage()
            store_corpus(storage, corpus, prefix="in/")
            workflow = build_tfidf_kmeans_workflow(mode="discrete", max_iters=5)
            result = workflow.run(
                SimScheduler(paper_node(16)),
                storage,
                inputs={"tfidf.corpus_prefix": "in/"},
                workers=12,
            )
            outcomes.append(
                (
                    result.total_s,
                    tuple(sorted(result.breakdown().items())),
                    tuple(result.value("kmeans.clusters").assignments),
                    result.peak_resident_bytes,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_scale_changes_time_not_results(self, corpus):
        assignments = {}
        times = {}
        for factor in (1.0, 25.0):
            storage = MemStorage()
            store_corpus(storage, corpus, prefix="in/")
            workflow = build_tfidf_kmeans_workflow(
                mode="merged",
                max_iters=5,
                scale=WorkloadScale(doc_factor=factor, vocab_factor=factor / 5 if factor > 1 else 1.0),
            )
            result = workflow.run(
                SimScheduler(paper_node(8)),
                storage,
                inputs={"tfidf.corpus_prefix": "in/"},
                workers=8,
            )
            assignments[factor] = result.value("kmeans.clusters").assignments
            times[factor] = result.total_s
        assert assignments[1.0] == assignments[25.0]
        assert times[25.0] > 10 * times[1.0]


class _FlakyStorage(Storage):
    """Delegates to MemStorage, failing the Nth read."""

    def __init__(self, inner: MemStorage, fail_on_read: int) -> None:
        self.inner = inner
        self.fail_on_read = fail_on_read
        self.reads = 0

    def read(self, path):
        self.reads += 1
        if self.reads == self.fail_on_read:
            raise StorageError(f"injected failure reading {path!r}")
        return self.inner.read(path)

    def write(self, path, data):
        return self.inner.write(path, data)

    def exists(self, path):
        return self.inner.exists(path)

    def size(self, path):
        return self.inner.size(path)

    def delete(self, path):
        self.inner.delete(path)

    def list(self, prefix=""):
        return self.inner.list(prefix)


class TestFailureInjection:
    def make_flaky(self, corpus, fail_on_read):
        inner = MemStorage()
        store_corpus(inner, corpus, prefix="in/")
        return _FlakyStorage(inner, fail_on_read)

    def test_read_failure_propagates_as_storage_error(self, corpus):
        storage = self.make_flaky(corpus, fail_on_read=10)
        workflow = build_tfidf_kmeans_workflow(mode="merged", max_iters=3)
        with pytest.raises(StorageError, match="injected failure"):
            workflow.run(
                SimScheduler(paper_node(4)),
                storage,
                inputs={"tfidf.corpus_prefix": "in/"},
                workers=4,
            )

    def test_failure_during_materialization_read(self, corpus):
        # Let the corpus reads succeed, fail on the ARFF read-back
        # (reads: 47 docs + 1 intermediate).
        storage = self.make_flaky(corpus, fail_on_read=len(corpus) + 1)
        workflow = build_tfidf_kmeans_workflow(mode="discrete", max_iters=3)
        with pytest.raises(StorageError):
            workflow.run(
                SimScheduler(paper_node(4)),
                storage,
                inputs={"tfidf.corpus_prefix": "in/"},
                workers=4,
            )

    def test_no_failure_when_injection_beyond_reads(self, corpus):
        storage = self.make_flaky(corpus, fail_on_read=10_000)
        workflow = build_tfidf_kmeans_workflow(mode="merged", max_iters=3)
        result = workflow.run(
            SimScheduler(paper_node(4)),
            storage,
            inputs={"tfidf.corpus_prefix": "in/"},
            workers=4,
        )
        assert result.total_s > 0


class TestPlannerAgainstReality:
    def test_planner_ranking_matches_direct_measurement(self, corpus):
        """The plan's predicted ordering of extreme configs must agree
        with actually running them on the full stored corpus."""
        storage = MemStorage()
        store_corpus(storage, corpus, prefix="in/")
        planner = WorkflowPlanner(
            paper_node(16),
            dict_kinds=("map",),
            modes=("merged", "discrete"),
            worker_options=(1, 16),
            mixed_dicts=False,
        )
        plan = planner.plan(storage, "in/", pilot_docs=24, max_iters=3)

        def measure(mode, workers):
            workflow = build_tfidf_kmeans_workflow(mode=mode, max_iters=3)
            return workflow.run(
                SimScheduler(paper_node(16)),
                storage,
                inputs={"tfidf.corpus_prefix": "in/"},
                workers=workers,
            ).total_s

        predicted = {
            (e.config.mode, e.config.workers): e.predicted_s
            for e in plan.candidates
        }
        measured = {
            key: measure(*key)
            for key in [("merged", 16), ("discrete", 1)]
        }
        # Best and worst extremes ordered the same way in both worlds.
        assert predicted[("merged", 16)] < predicted[("discrete", 1)]
        assert measured[("merged", 16)] < measured[("discrete", 1)]


class TestSerialTransformVariant:
    def test_serial_transform_flag(self, corpus):
        """§3.2: the standalone operator's phase 2 can be left serial."""
        from repro.ops import TfIdfOperator
        from repro.sim import SimConfig, run_tfidf

        storage = MemStorage()
        store_corpus(storage, corpus, prefix="in/")
        scheduler = SimScheduler(paper_node(16))
        parallel = run_tfidf(
            TfIdfOperator(), scheduler, storage, "in/", workers=16,
            config=SimConfig(parallel_transform=True),
        )
        serial = run_tfidf(
            TfIdfOperator(), scheduler, storage, "in/", workers=16,
            config=SimConfig(parallel_transform=False),
        )
        assert list(serial.matrix.iter_rows()) == list(parallel.matrix.iter_rows())
        assert serial.timeline.phase_seconds(
            "transform"
        ) > parallel.timeline.phase_seconds("transform")

    def test_workflow_describe(self):
        workflow = build_tfidf_kmeans_workflow(mode="discrete")
        text = workflow.describe()
        assert "tfidf" in text and "kmeans" in text
        assert "=[file]=>" in text
