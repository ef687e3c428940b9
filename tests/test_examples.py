"""The examples that drive the real pipeline run to completion.

Each is started as its own interpreter, the way a reader would run it,
with ``src`` on the import path; a non-zero exit fails the test and
shows the example's stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

#: Examples on the real (backend) path, with the arguments that keep
#: them small.
EXAMPLES = [
    ("dedup_and_classify.py",),
    ("news_clustering.py",),
    ("real_parallel.py", "--workers", "2"),
    ("trace_real_run.py",),
]


@pytest.mark.parametrize("argv", EXAMPLES, ids=lambda argv: argv[0])
def test_example_exits_cleanly(argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
