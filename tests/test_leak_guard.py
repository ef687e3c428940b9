"""The conftest leak guards attribute shm segments and tile spill
directories by their creating pid."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.exec.shm import SEGMENT_PREFIX
from repro.tiles import SPILL_PREFIX
from tests.conftest import _foreign

#: A name of each kind, for a creator pid (``TileStore`` appends a
#: sequence number and mkdtemp's random suffix).
_NAMES = (
    lambda pid: (f"{SEGMENT_PREFIX}_{pid}_3", SEGMENT_PREFIX),
    lambda pid: (f"{SPILL_PREFIX}_{pid}_3_k2x9_q1", SPILL_PREFIX),
)


def test_own_and_descendant_segments_are_ours():
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; sys.stdin.read()"],
        stdin=subprocess.PIPE,
    )
    try:
        for name in _NAMES:
            assert not _foreign(*name(os.getpid()))
            assert not _foreign(*name(child.pid))
    finally:
        child.communicate()
    # Reaped: a dead creator's segment or directory is a leak, whoever
    # it was.
    for name in _NAMES:
        assert not _foreign(*name(child.pid))


def test_live_process_outside_the_run_is_foreign():
    # A live process that is not below pytest: a sibling reparented
    # away from us (double fork), as a perfbench run or a second test
    # session beside pytest is.
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
        for name in _NAMES:
            assert _foreign(*name(orphan))
            assert not _foreign(*name("notapid"))
    finally:
        os.kill(orphan, 9)
