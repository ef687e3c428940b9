"""Tests for the command-line interface (operators as separate binaries)."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.io import read_sparse_arff
from repro.obs import read_ledger
from repro.plan.calibration import CalibrationStore
from repro.text.synth import MIX_PROFILE, generate_corpus


@pytest.fixture()
def corpus_dir(tmp_path):
    out = str(tmp_path / "corpus")
    assert main(["generate", "--profile", "mix", "--scale", "0.002",
                 "--seed", "1", "--out", out]) == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.profile == "mix"
        assert args.scale == 0.01

    def test_backend_flags(self):
        args = build_parser().parse_args(
            ["pipeline", "--input", "x", "--backend", "processes",
             "--workers", "4"]
        )
        assert args.backend == "processes"
        assert args.workers == 4
        args = build_parser().parse_args(["tfidf", "--input", "x",
                                          "--output", "y"])
        assert args.backend == "sequential"

    def test_shm_flag(self):
        args = build_parser().parse_args(
            ["pipeline", "--input", "x", "--backend", "processes", "--shm"]
        )
        assert args.shm is True
        args = build_parser().parse_args(
            ["pipeline", "--input", "x", "--no-shm"]
        )
        assert args.shm is False
        args = build_parser().parse_args(["pipeline", "--input", "x"])
        assert args.shm is None  # auto-detect

    def test_invalid_workers_reports_clean_error(self, corpus_dir, capsys):
        assert main(["pipeline", "--input", corpus_dir, "--backend",
                     "processes", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "workers" in err

    def test_read_flags(self):
        args = build_parser().parse_args(
            ["pipeline", "--input-dir", "x", "--read-workers", "4",
             "--prefetch", "16"]
        )
        assert args.input == "x"  # --input-dir is an alias for --input
        assert args.read_workers == 4
        assert args.prefetch == 16
        args = build_parser().parse_args(["tfidf", "--input", "x",
                                          "--output", "y"])
        assert args.read_workers == 1
        assert args.prefetch is None

    def test_invalid_read_workers_reports_clean_error(self, corpus_dir, capsys):
        assert main(["pipeline", "--input", corpus_dir,
                     "--read-workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err


class TestGenerate:
    def test_writes_documents(self, corpus_dir):
        files = os.listdir(corpus_dir)
        assert len(files) == 47
        assert all(name.endswith(".txt") for name in files)

    def test_deterministic(self, tmp_path, corpus_dir):
        other = str(tmp_path / "other")
        main(["generate", "--profile", "mix", "--scale", "0.002",
              "--seed", "1", "--out", other])
        name = sorted(os.listdir(corpus_dir))[0]
        with open(os.path.join(corpus_dir, name)) as a, open(
            os.path.join(other, name)
        ) as b:
            assert a.read() == b.read()


class TestDiscretePipeline:
    def test_tfidf_then_kmeans(self, corpus_dir, tmp_path):
        scores = str(tmp_path / "scores.arff")
        clusters = str(tmp_path / "clusters.txt")
        assert main(["tfidf", "--input", corpus_dir, "--output", scores]) == 0
        relation = read_sparse_arff(open(scores).read())
        assert relation.rows.n_rows == 47

        assert main(["kmeans", "--input", scores, "--output", clusters,
                     "--clusters", "4"]) == 0
        lines = open(clusters).read().strip().splitlines()
        assert len(lines) == 47
        assignments = [int(line.split("\t")[1]) for line in lines]
        assert set(assignments) <= set(range(4))


class TestRealPipeline:
    @pytest.mark.parametrize("backend", ["sequential", "threads", "processes"])
    def test_pipeline_runs_on_each_backend(
        self, corpus_dir, tmp_path, backend, capsys
    ):
        clusters = str(tmp_path / f"clusters-{backend}.txt")
        assert main(["pipeline", "--input", corpus_dir, "--output", clusters,
                     "--backend", backend, "--workers", "2",
                     "--max-iters", "3"]) == 0
        lines = open(clusters).read().strip().splitlines()
        assert len(lines) == 47
        out = capsys.readouterr().out
        assert "input+wc" in out and "kmeans" in out

    def test_pipeline_trace_writes_valid_chrome_json(
        self, corpus_dir, tmp_path, capsys
    ):
        import json

        clusters = str(tmp_path / "clusters.txt")
        trace_path = str(tmp_path / "trace.json")
        # Acceptance spelling: singular "process" must be accepted.
        assert main(["pipeline", "--input", corpus_dir, "--output", clusters,
                     "--backend", "process", "--workers", "2",
                     "--read-workers", "2", "--max-iters", "3",
                     "--trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "utilization:" in out
        doc = json.loads(open(trace_path).read())
        events = doc["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert xs, "trace must contain complete span events"
        for event in xs:
            assert event["ts"] >= 0 and event["dur"] >= 0
        # At least one span per pipeline phase, with per-worker lanes.
        assert {e["cat"] for e in xs} == {"read", "input+wc", "transform",
                                          "kmeans"}
        assert len({e["tid"] for e in xs}) >= 2

    def test_pipeline_output_identical_with_and_without_trace(
        self, corpus_dir, tmp_path
    ):
        outputs = {}
        for label, extra in (("plain", []),
                             ("traced", ["--trace",
                                         str(tmp_path / "t.json")])):
            path = str(tmp_path / f"{label}.txt")
            assert main(["pipeline", "--input", corpus_dir, "--output", path,
                         "--backend", "processes", "--workers", "2",
                         "--max-iters", "3"] + extra) == 0
            outputs[label] = open(path).read()
        assert outputs["plain"] == outputs["traced"]

    def test_pipeline_backends_agree(self, corpus_dir, tmp_path):
        outputs = {}
        for backend in ("sequential", "processes"):
            path = str(tmp_path / f"{backend}.txt")
            assert main(["pipeline", "--input", corpus_dir, "--output", path,
                         "--backend", backend, "--workers", "2",
                         "--max-iters", "3"]) == 0
            outputs[backend] = open(path).read()
        assert outputs["sequential"] == outputs["processes"]

    def test_pipeline_shm_modes_agree_and_report_ipc(
        self, corpus_dir, tmp_path, capsys
    ):
        from repro.exec.shm import shm_available

        outputs = {}
        ipc_lines = {}
        for flag in ("--no-shm",) + (("--shm",) if shm_available() else ()):
            path = str(tmp_path / f"shm{flag}.txt")
            assert main(["pipeline", "--input", corpus_dir, "--output", path,
                         "--backend", "processes", "--workers", "2",
                         "--max-iters", "3", flag]) == 0
            outputs[flag] = open(path).read()
            out = capsys.readouterr().out
            assert "IPC:" in out
            ipc_lines[flag] = next(
                line for line in out.splitlines() if line.startswith("IPC:")
            )
        if shm_available():
            assert outputs["--no-shm"] == outputs["--shm"]
            assert "0 shared segment(s)" in ipc_lines["--no-shm"]
            assert "0 shared segment(s)" not in ipc_lines["--shm"]

    def test_pipeline_parallel_read_matches_serial(self, corpus_dir, tmp_path):
        outputs = {}
        for n_read in ("1", "4"):
            path = str(tmp_path / f"read-{n_read}.txt")
            assert main(["pipeline", "--input-dir", corpus_dir,
                         "--output", path, "--read-workers", n_read,
                         "--max-iters", "3"]) == 0
            outputs[n_read] = open(path).read()
        assert outputs["1"] == outputs["4"]

    def test_pipeline_reports_read_phase(self, corpus_dir, capsys):
        assert main(["pipeline", "--input", corpus_dir, "--read-workers", "2",
                     "--max-iters", "2"]) == 0
        out = capsys.readouterr().out
        assert "read:" in out
        assert "2 read worker(s)" in out

    def test_tfidf_parallel_read_matches_serial(self, corpus_dir, tmp_path):
        docs = {}
        for n_read in ("1", "3"):
            path = str(tmp_path / f"scores-{n_read}.arff")
            assert main(["tfidf", "--input-dir", corpus_dir, "--output", path,
                         "--read-workers", n_read]) == 0
            docs[n_read] = open(path).read()
        assert docs["1"] == docs["3"]

    def test_pipeline_writes_arff(self, corpus_dir, tmp_path):
        arff = str(tmp_path / "scores.arff")
        assert main(["pipeline", "--input", corpus_dir, "--arff", arff,
                     "--max-iters", "2"]) == 0
        relation = read_sparse_arff(open(arff).read())
        assert relation.rows.n_rows == 47

    def test_pipeline_empty_dir_fails(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert main(["pipeline", "--input", empty]) == 1
        assert "no documents" in capsys.readouterr().err

    def test_tfidf_min_df_shrinks_vocabulary(self, corpus_dir, tmp_path):
        full = str(tmp_path / "full.arff")
        pruned = str(tmp_path / "pruned.arff")
        main(["tfidf", "--input", corpus_dir, "--output", full])
        main(["tfidf", "--input", corpus_dir, "--output", pruned,
              "--min-df", "3"])
        full_attrs = read_sparse_arff(open(full).read()).attributes
        pruned_attrs = read_sparse_arff(open(pruned).read()).attributes
        assert len(pruned_attrs) < len(full_attrs)

    def test_tfidf_empty_dir_fails(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert main(["tfidf", "--input", empty, "--output",
                     str(tmp_path / "x.arff")]) == 1
        assert "no documents" in capsys.readouterr().err

    def test_kmeans_plusplus_init(self, corpus_dir, tmp_path):
        scores = str(tmp_path / "scores.arff")
        clusters = str(tmp_path / "clusters.txt")
        main(["tfidf", "--input", corpus_dir, "--output", scores])
        assert main(["kmeans", "--input", scores, "--output", clusters,
                     "--clusters", "4", "--init", "kmeans++"]) == 0


class TestWorkflowAndPlan:
    def test_workflow_reports_phases(self, corpus_dir, capsys):
        assert main(["workflow", "--input", corpus_dir, "--mode", "discrete",
                     "--threads", "8", "--max-iters", "3"]) == 0
        out = capsys.readouterr().out
        assert "input+wc" in out
        assert "tfidf-output" in out
        assert "total" in out
        # The output file lands inside the corpus storage.
        assert os.path.exists(os.path.join(corpus_dir, "clusters.txt"))

    def test_merged_workflow_has_no_materialization(self, corpus_dir, capsys):
        main(["workflow", "--input", corpus_dir, "--mode", "merged",
              "--max-iters", "3"])
        out = capsys.readouterr().out
        assert "tfidf-output" not in out

    def test_plan_prints_ranking(self, corpus_dir, capsys):
        assert main(["plan", "--input", corpus_dir, "--pilot-docs", "24"]) == 0
        out = capsys.readouterr().out
        assert "#1" in out
        assert "merged" in out


class TestAnalyze:
    def test_analyze_reports_statistics(self, corpus_dir, capsys):
        assert main(["analyze", "--input", corpus_dir, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "documents:" in out
        assert "Heaps fit:" in out
        assert "top-5 term frequencies" in out

    def test_analyze_empty_dir(self, tmp_path, capsys):
        import os

        empty = str(tmp_path / "void")
        os.makedirs(empty)
        assert main(["analyze", "--input", empty]) == 1
        assert "no documents" in capsys.readouterr().err


class TestPlannedPipeline:
    """--plan auto: the measured-cost planner drives the real pipeline."""

    def test_plan_flag_defaults(self):
        args = build_parser().parse_args(["pipeline", "--input", "x"])
        assert args.plan == "fixed"
        assert args.calibration is None
        assert args.explain_plan is False
        assert not hasattr(args, "dict_kind")  # a real run has no dictionary

    def test_auto_plan_runs_and_persists_calibration(
        self, corpus_dir, tmp_path, capsys
    ):
        calib = str(tmp_path / "calib.json")
        clusters = str(tmp_path / "clusters.txt")
        assert main(["pipeline", "--input", corpus_dir, "--output", clusters,
                     "--plan", "auto", "--calibration", calib,
                     "--explain-plan", "--max-iters", "2"]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "planned in" in out
        assert "Plan for" in out          # --explain-plan narrative
        assert "rejected:" in out
        assert os.path.exists(calib)      # probe persisted for next run

        # Second invocation loads the store instead of re-probing.
        assert main(["pipeline", "--input", corpus_dir, "--output", clusters,
                     "--plan", "auto", "--calibration", calib,
                     "--max-iters", "2"]) == 0

    def test_auto_plan_output_matches_fixed_run(self, corpus_dir, tmp_path):
        fixed = str(tmp_path / "fixed.txt")
        planned = str(tmp_path / "planned.txt")
        assert main(["pipeline", "--input", corpus_dir, "--output", fixed,
                     "--backend", "sequential", "--max-iters", "2"]) == 0
        assert main(["pipeline", "--input", corpus_dir, "--output", planned,
                     "--plan", "auto", "--max-iters", "2"]) == 0
        assert open(planned).read() == open(fixed).read()

    def test_auto_plan_rejects_resilience_flags(self, corpus_dir, capsys):
        assert main(["pipeline", "--input", corpus_dir,
                     "--plan", "auto", "--retries", "2"]) == 2
        err = capsys.readouterr().err
        assert "--plan fixed" in err

    def test_auto_plan_conflict_names_every_offending_flag(
        self, corpus_dir, capsys
    ):
        # Fail fast at argument validation — before any corpus read —
        # naming each conflicting flag, not just a generic policy error.
        assert main(["pipeline", "--input", corpus_dir, "--plan", "auto",
                     "--retries", "2", "--task-timeout", "5",
                     "--on-poison", "quarantine", "--degrade"]) == 2
        err = capsys.readouterr().err
        for flag in ("--retries", "--task-timeout", "--on-poison",
                     "--plan fixed"):
            assert flag in err
        # --degrade is not a conflict: the degrade loop is the driver's.
        assert "--degrade" not in err
        # The text is the rule table's, with the real reason.
        assert "carry no ResilienceConfig" in err

    def test_auto_plan_conflict_precedes_input_validation(
        self, tmp_path, capsys
    ):
        # The conflict is caught even when the input directory is bogus:
        # argument validation runs before the stream is opened.
        missing = str(tmp_path / "nonexistent")
        assert main(["pipeline", "--input", missing,
                     "--plan", "auto", "--phase-timeout", "9"]) == 2
        assert "--phase-timeout" in capsys.readouterr().err

    def test_auto_plan_with_degrade_runs_and_matches_fixed(
        self, corpus_dir, tmp_path
    ):
        fixed = str(tmp_path / "fixed.txt")
        planned = str(tmp_path / "planned.txt")
        assert main(["pipeline", "--input", corpus_dir, "--output", fixed,
                     "--backend", "sequential", "--max-iters", "2"]) == 0
        assert main(["pipeline", "--input", corpus_dir, "--output", planned,
                     "--plan", "auto", "--degrade", "--max-iters", "2"]) == 0
        assert open(planned).read() == open(fixed).read()

    def test_plan_fixed_still_accepts_resilience_flags(self, corpus_dir):
        assert main(["pipeline", "--input", corpus_dir, "--retries", "1",
                     "--max-iters", "2"]) == 0


class TestCachedPipeline:
    """--cache: phase results served from disk, bit-identically."""

    def test_cache_flag_defaults(self):
        args = build_parser().parse_args(["pipeline", "--input", "x"])
        assert args.cache is None
        assert args.cache_max_mb is None

    def test_warm_run_serves_and_reports(self, corpus_dir, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        cold_out = str(tmp_path / "cold.txt")
        warm_out = str(tmp_path / "warm.txt")
        assert main(["pipeline", "--input", corpus_dir, "--cache", cache,
                     "--output", cold_out, "--max-iters", "2"]) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hit(s), 3 miss(es)" in cold
        assert main(["pipeline", "--input", corpus_dir, "--cache", cache,
                     "--output", warm_out, "--max-iters", "2"]) == 0
        warm = capsys.readouterr().out
        assert "cache: 3 hit(s), 0 miss(es)" in warm
        assert "served" in warm and "saved" in warm
        assert open(warm_out).read() == open(cold_out).read()

    def test_cache_with_auto_plan_serves_every_phase(
        self, corpus_dir, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        calib = str(tmp_path / "calib.json")
        outputs = []
        for name in ("cold.txt", "warm.txt"):
            outputs.append(str(tmp_path / name))
            assert main(["pipeline", "--input", corpus_dir, "--cache", cache,
                         "--plan", "auto", "--calibration", calib,
                         "--output", outputs[-1], "--max-iters", "2"]) == 0
        warm = capsys.readouterr().out
        assert "cache: 3 hit(s), 0 miss(es)" in warm
        assert open(outputs[1]).read() == open(outputs[0]).read()

    def test_cache_max_mb_requires_cache(self, corpus_dir, capsys):
        assert main(["pipeline", "--input", corpus_dir,
                     "--cache-max-mb", "10"]) == 2
        assert "--cache" in capsys.readouterr().err

    def test_no_cache_prints_no_cache_line(self, corpus_dir, capsys):
        assert main(["pipeline", "--input", corpus_dir,
                     "--max-iters", "2"]) == 0
        assert "cache:" not in capsys.readouterr().out


class TestLedgerAndAnalytics:
    @pytest.fixture()
    def ledger_dir(self, corpus_dir, tmp_path):
        led = str(tmp_path / "ledger")
        for _ in range(2):
            assert main(["pipeline", "--input", corpus_dir,
                         "--max-iters", "2", "--ledger", led]) == 0
        return led

    def test_pipeline_reports_ledger_append(self, corpus_dir, tmp_path, capsys):
        led = str(tmp_path / "ledger")
        assert main(["pipeline", "--input", corpus_dir, "--max-iters", "2",
                     "--ledger", led]) == 0
        out = capsys.readouterr().out
        assert "ledger: 4 step record(s)" in out
        assert os.path.exists(os.path.join(led, "ledger.jsonl"))

    def test_no_ledger_prints_no_ledger_line(self, corpus_dir, capsys):
        assert main(["pipeline", "--input", corpus_dir, "--max-iters", "2"]) == 0
        assert "ledger:" not in capsys.readouterr().out

    def test_heatmap_reports_steps(self, ledger_dir, capsys):
        assert main(["analytics", "heatmap", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert "workflow DNA over 2 run(s)" in out
        for step in ("read", "input+wc", "transform", "kmeans"):
            assert step in out

    def test_heatmap_json_output(self, ledger_dir, capsys):
        assert main(["analytics", "heatmap", "--ledger", ledger_dir,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {s["step"] for s in doc} == {"read", "input+wc",
                                            "transform", "kmeans"}
        assert all(s["runs"] == 2 for s in doc)

    def test_heatmap_empty_ledger(self, tmp_path, capsys):
        assert main(["analytics", "heatmap", "--ledger",
                     str(tmp_path / "none")]) == 0
        assert "has no records yet" in capsys.readouterr().out

    def test_steps_filters_history(self, ledger_dir, capsys):
        assert main(["analytics", "steps", "--ledger", ledger_dir,
                     "--step", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert out.count("kmeans") == 2
        assert "transform" not in out

    def test_regressions_clean_history_exits_zero(self, ledger_dir, capsys):
        assert main(["analytics", "regressions", "--ledger", ledger_dir]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regressions_flag_slow_step_and_exit_one(self, ledger_dir, capsys):
        records, _ = read_ledger(ledger_dir)
        slow = dict(records[-1])
        slow["run_id"] = "slow-run"
        slow["run"] = dict(slow["run"], started=slow["run"]["started"] + 60)
        slow["ts"] = slow["ts"] + 60
        slow["duration_s"] = 30.0
        slow["step"] = "kmeans"
        with open(os.path.join(ledger_dir, "ledger.jsonl"), "a") as handle:
            handle.write(json.dumps(slow) + "\n")
        assert main(["analytics", "regressions", "--ledger", ledger_dir]) == 1
        out = capsys.readouterr().out
        assert "regression: kmeans" in out

    def test_export_formats(self, ledger_dir, tmp_path, capsys):
        prom = str(tmp_path / "metrics.prom")
        assert main(["analytics", "export", "--ledger", ledger_dir,
                     "--format", "prom", "--out", prom]) == 0
        assert "repro_step_runs_total" in open(prom).read()
        html = str(tmp_path / "dna.html")
        assert main(["analytics", "export", "--ledger", ledger_dir,
                     "--format", "html", "--out", html]) == 0
        assert open(html).read().startswith("<!doctype html>")
        capsys.readouterr()  # drop the "wrote ... export" lines
        assert main(["analytics", "export", "--ledger", ledger_dir,
                     "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"} == {0, 1}

    def test_recalibrate_updates_store(self, ledger_dir, tmp_path, capsys):
        store_path = str(tmp_path / "cal.json")
        corpus = generate_corpus(MIX_PROFILE, scale=0.002, seed=1)
        CalibrationStore.probe(corpus).save(store_path)
        before = CalibrationStore.load(store_path)
        assert main(["analytics", "recalibrate", "--ledger", ledger_dir,
                     "--calibration", store_path]) == 0
        out = capsys.readouterr().out
        assert "recalibrated from 2 run(s)" in out
        after = CalibrationStore.load(store_path)
        assert after.source == "observed"
        assert (after.phases["kmeans"].compute_ns_per_doc
                != before.phases["kmeans"].compute_ns_per_doc)


class TestServeCli:
    def test_serve_run_defaults(self):
        args = build_parser().parse_args(["serve", "run", "--state", "s"])
        assert args.backend == "threads"
        assert args.max_depth == 8
        assert args.orphan_policy == "retry"
        assert args.idle_exit is None

    def test_submit_run_status_round_trip(self, corpus_dir, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["serve", "submit", "--state", state,
                     "--input", corpus_dir, "--iters", "2",
                     "--job-id", "cli-1"]) == 0
        assert "submitted cli-1" in capsys.readouterr().out
        assert main(["serve", "run", "--state", state,
                     "--idle-exit", "0.3", "--drain-deadline", "60"]) == 0
        out = capsys.readouterr().out
        assert "1 done, 0 failed, 0 shed" in out
        assert main(["serve", "status", "--state", state, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"]["cli-1"]["state"] == "done"
        assert payload["jobs"]["cli-1"]["digest"]

    def test_status_unknown_job_fails(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        os.makedirs(state)
        assert main(["serve", "status", "--state", state,
                     "--job", "ghost"]) == 1
        assert "unknown job" in capsys.readouterr().err

    def test_drain_writes_marker(self, tmp_path, capsys):
        from repro.serve.transport import drain_requested

        state = str(tmp_path / "state")
        assert main(["serve", "drain", "--state", state]) == 0
        assert drain_requested(state)


class TestCacheCli:
    @pytest.fixture()
    def cache_dir(self, tmp_path):
        from repro.cache.store import CacheStore

        root = str(tmp_path / "cache")
        store = CacheStore(root)
        store.put("k1", {"x": 1})
        store.put("k2", {"y": 2})
        store.flush()
        return root

    def test_invalidate_one_key(self, cache_dir, capsys):
        from repro.cache.store import CacheStore

        assert main(["cache", "invalidate", "--cache", cache_dir,
                     "--key", "k1"]) == 0
        assert "invalidated 1 entry" in capsys.readouterr().out
        store = CacheStore(cache_dir)
        assert "k1" not in store and "k2" in store

    def test_invalidate_all(self, cache_dir, capsys):
        from repro.cache.store import CacheStore

        assert main(["cache", "invalidate", "--cache", cache_dir,
                     "--all"]) == 0
        assert "invalidated 2 entries" in capsys.readouterr().out
        assert len(CacheStore(cache_dir)) == 0

    def test_invalidate_expired(self, cache_dir, capsys):
        from repro.cache.store import CacheStore

        store = CacheStore(cache_dir)
        store._index["k1"]["stored_at"] -= 2000.0
        store.flush()
        assert main(["cache", "invalidate", "--cache", cache_dir,
                     "--expired", "1000"]) == 0
        assert "invalidated 1 expired entry" in capsys.readouterr().out
        reopened = CacheStore(cache_dir)
        assert "k1" not in reopened and "k2" in reopened

    def test_unknown_key_fails(self, cache_dir, capsys):
        assert main(["cache", "invalidate", "--cache", cache_dir,
                     "--key", "ghost"]) == 1
        assert "no cache entry" in capsys.readouterr().err

    def test_missing_cache_dir_fails(self, tmp_path, capsys):
        assert main(["cache", "invalidate",
                     "--cache", str(tmp_path / "nope"), "--all"]) == 1

    def test_pipeline_cache_ttl_requires_cache(self, corpus_dir, capsys):
        assert main(["pipeline", "--input", corpus_dir,
                     "--cache-ttl", "60"]) == 2
        assert "--cache-ttl requires --cache" in capsys.readouterr().err

    def test_pipeline_cache_ttl_expires_entries(
        self, corpus_dir, tmp_path, capsys
    ):
        from repro.cache.store import CacheStore

        cache = str(tmp_path / "cache")
        assert main(["pipeline", "--input", corpus_dir, "--cache", cache,
                     "--max-iters", "2"]) == 0
        store = CacheStore(cache)
        assert len(store) > 0
        for meta in store._index.values():
            meta["stored_at"] -= 2000.0
        store.flush()
        capsys.readouterr()
        # Aged entries are misses under a TTL'd rerun, which re-stores.
        assert main(["pipeline", "--input", corpus_dir, "--cache", cache,
                     "--cache-ttl", "1000", "--max-iters", "2"]) == 0
        capsys.readouterr()
        reopened = CacheStore(cache)
        assert all(
            meta["stored_at"] > 0 for meta in reopened._index.values()
        )
