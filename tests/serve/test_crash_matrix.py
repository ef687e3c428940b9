"""Crash matrix: SIGKILL-equivalent at every lifecycle stage, exactly once.

Each case arms ``REPRO_SERVE_KILL_AT`` so a real daemon subprocess dies
via ``os._exit`` (no cleanup, no atexit — the closest deterministic
stand-in for SIGKILL) right after one journal append, then restarts a
second daemon over the same state directory. Whatever the stage, every
job must finish exactly once with the digest of an in-process sequential
run over the same stored corpus, and the surviving journal must pass the
strict validator.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.pipeline import output_digest, run_pipeline
from repro.exec.process import make_backend
from repro.io.corpus_io import load_corpus, store_corpus
from repro.io.storage import FsStorage
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.serve.daemon import CRASH_EXIT_CODE, KILL_STAGES
from repro.serve.journal import read_journal, replay
from repro.serve.transport import read_result, submit_job
from repro.text.synth import MIX_PROFILE, generate_corpus
from tests.validator_tool import bound, validate

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

validate_journal = bound("journal", validate_state_dir=validate.check_journal)

N_JOBS = 2


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    store_corpus(FsStorage(out), generate_corpus(MIX_PROFILE, scale=0.002,
                                                 seed=1))
    return out


@pytest.fixture(scope="module")
def reference_digest(corpus_dir):
    """One-shot sequential run of what every job asks for: the stored
    corpus read back from disk, the daemon's default operators, 2 iters."""
    backend = make_backend("sequential", 1)
    try:
        result = run_pipeline(
            load_corpus(FsStorage(corpus_dir), ""),
            backend=backend,
            tfidf=TfIdfOperator(min_df=1),
            kmeans=KMeansOperator(n_clusters=8, max_iters=2, seed=0),
        )
    finally:
        backend.close()
    return output_digest(result)


def _run_daemon(state: str, *, kill_at: str | None) -> int:
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    if kill_at is not None:
        env["REPRO_SERVE_KILL_AT"] = kill_at
    else:
        env.pop("REPRO_SERVE_KILL_AT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "run",
         "--state", state, "--executors", "1", "--workers", "2",
         "--idle-exit", "0.5", "--drain-deadline", "60"],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode in (0, CRASH_EXIT_CODE), proc.stderr
    return proc.returncode


@pytest.mark.parametrize("stage", KILL_STAGES)
def test_kill_at_stage_then_recover_exactly_once(
    stage, tmp_path, corpus_dir, reference_digest
):
    state = str(tmp_path / "state")
    job_ids = [
        submit_job(state, {
            "input": corpus_dir, "iters": 2, "job_id": f"{stage}-{i}",
        })
        for i in range(N_JOBS)
    ]

    # First daemon dies mid-lifecycle at the armed stage…
    assert _run_daemon(state, kill_at=stage) == CRASH_EXIT_CODE
    # …and a restart over the same state dir finishes the backlog.
    assert _run_daemon(state, kill_at=None) == 0

    records, problems = read_journal(state)
    assert problems == []
    views = replay(records)
    digests = set()
    for job_id in job_ids:
        view = views[job_id]
        assert view.state == "done", (job_id, view.state, view.error)
        assert view.events.count("done") == 1
        digests.add(view.digest)
        result = read_result(state, job_id)
        assert result is not None and result["digest"] == view.digest
    # Deterministic pipeline: a re-run after the crash is bit-identical,
    # and serving reproduces one-shot in-process execution bit for bit.
    assert digests == {reference_digest}

    _, strict_problems = validate_journal.validate_state_dir(state)
    assert strict_problems == []
    assert validate_journal.main([state, "--expect-done", str(N_JOBS)]) == 0


def test_crash_between_result_write_and_done_rewrites_identically(
    tmp_path, corpus_dir, reference_digest
):
    """The nastiest window: result durable, ``done`` not yet appended.

    The restarted daemon must re-run the job (the journal, not the
    results directory, is the source of truth) and overwrite the result
    with bit-identical content.
    """
    state = str(tmp_path / "state")
    job_id = submit_job(state, {
        "input": corpus_dir, "iters": 2, "job_id": "window-1",
    })
    assert _run_daemon(state, kill_at="completing") == CRASH_EXIT_CODE
    orphaned = read_result(state, job_id)
    assert orphaned is not None  # written before the crash
    views = replay(read_journal(state)[0])
    assert views[job_id].state == "running"  # done was never appended

    assert _run_daemon(state, kill_at=None) == 0
    views = replay(read_journal(state)[0])
    assert views[job_id].state == "done"
    assert views[job_id].attempt == 2  # the re-run is honest in the journal
    final = read_result(state, job_id)
    assert final["digest"] == orphaned["digest"] == reference_digest
