"""Shared fixtures and reporting helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper: it runs the
real operators on a scaled synthetic corpus, extrapolates to full scale
through the WorkloadScale mechanism, prints the paper-vs-measured report
and writes it to ``benchmarks/reports/<name>.txt``.

Scale can be raised for higher fidelity (at more wall-clock cost) with
``REPRO_BENCH_SCALE`` (default 0.01 for Mix; NSF uses half of it so both
corpora hold a few hundred documents).
"""

import os

import pytest

from repro.bench import prepare_workload
from repro.text import MIX_PROFILE, NSF_ABSTRACTS_PROFILE, with_topics

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))

_REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


@pytest.fixture(scope="session")
def mix_workload():
    return prepare_workload(MIX_PROFILE, scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def nsf_workload():
    return prepare_workload(NSF_ABSTRACTS_PROFILE, scale=BENCH_SCALE / 2)


@pytest.fixture(scope="session")
def mix_topics_workload():
    """Mix with 8 latent topics (``repro.text.synth.with_topics``)."""
    return prepare_workload(with_topics(MIX_PROFILE), scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def nsf_topics_workload():
    return prepare_workload(
        with_topics(NSF_ABSTRACTS_PROFILE), scale=BENCH_SCALE / 2
    )


@pytest.fixture(scope="session")
def report():
    """Write a named report to benchmarks/reports/ and echo it."""

    def _write(name: str, text: str) -> None:
        os.makedirs(_REPORT_DIR, exist_ok=True)
        path = os.path.join(_REPORT_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n{text}\n[report written to {path}]")

    return _write
