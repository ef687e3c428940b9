"""The conftest shm leak guard attributes segments by their creating pid."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.exec.shm import SEGMENT_PREFIX
from tests.conftest import _foreign_segment


def test_own_and_descendant_segments_are_ours():
    assert not _foreign_segment(f"{SEGMENT_PREFIX}_{os.getpid()}_0")
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdin.read()"],
        stdin=subprocess.PIPE,
    )
    try:
        assert not _foreign_segment(f"{SEGMENT_PREFIX}_{child.pid}_3")
    finally:
        child.communicate()
    # Reaped: a dead creator's segment is a leak, whoever it was.
    assert not _foreign_segment(f"{SEGMENT_PREFIX}_{child.pid}_3")


def test_live_process_outside_the_run_is_foreign():
    # A live process that is not below pytest: a sibling reparented
    # away from us (double fork), as a perfbench run beside pytest is.
    script = (
        "import subprocess, sys\n"
        "p = subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(60)'])\n"
        "print(p.pid, flush=True)\n"
    )
    middle = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE
    )
    with middle:
        orphan = int(middle.stdout.readline())
    try:
        assert _foreign_segment(f"{SEGMENT_PREFIX}_{orphan}_0")
        assert not _foreign_segment(f"{SEGMENT_PREFIX}_notapid_0")
    finally:
        os.kill(orphan, 9)
