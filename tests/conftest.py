"""Repo-wide fixtures: shared-memory segments and spill dirs must never leak.

Every segment the shm plane creates is named ``repro_shm_*`` (see
:data:`repro.exec.shm.SEGMENT_PREFIX`), so on platforms with a visible
``/dev/shm`` a leak is directly observable as a leftover file. The
autouse fixture below snapshots the directory around every test and
fails any test that leaves a segment behind — close, double-close and
worker-crash paths all have to clean up to stay green; segments of a
live process outside the test run are not the test's and are ignored.
(On hosts without ``/dev/shm`` the check degrades to a no-op; the
promoted resource_tracker warnings in ``pyproject.toml`` still cover
leaks.)

The tile plane gets the same treatment: every spill directory is named
``$TMPDIR/repro_tiles_*`` (:data:`repro.tiles.SPILL_PREFIX`), so a
:class:`~repro.tiles.TileStore` that outlives its test — an unclosed
tiled matrix, a worker-side reader, an exception path that skipped
``close()`` — shows up as a leftover directory and fails that test.
"""

from __future__ import annotations

import os
import tempfile

import pytest

from repro.exec.shm import SEGMENT_PREFIX
from repro.tiles import SPILL_PREFIX

_SHM_DIR = "/dev/shm"


def _segments() -> set[str]:
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith(SEGMENT_PREFIX)}


def _foreign_segment(name: str) -> bool:
    """Whether a live process outside this test run created ``name``.

    Segments are named ``repro_shm_<creating pid>_<n>``. One whose
    creator is alive and is neither this process nor a descendant
    belongs to something running beside pytest (a perfbench run, another
    test session) and is not this test's leak; a dead creator's segment
    is reported, whoever it was.
    """
    try:
        pid = int(name[len(SEGMENT_PREFIX) + 1:].split("_")[0])
    except ValueError:
        return False
    while pid != os.getpid():
        if pid <= 1:
            return True
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # "pid (comm) state ppid ..." — comm may contain spaces.
                pid = int(handle.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            return False
    return False


def _spill_dirs() -> set[str]:
    root = tempfile.gettempdir()
    try:
        names = os.listdir(root)
    except OSError:
        return set()
    return {name for name in names if name.startswith(SPILL_PREFIX)}


@pytest.fixture(autouse=True)
def no_shm_segment_leaks():
    if not os.path.isdir(_SHM_DIR):
        yield
        return
    before = _segments()
    yield
    leaked = {
        name for name in _segments() - before if not _foreign_segment(name)
    }
    assert not leaked, (
        f"test leaked shared-memory segment(s): {sorted(leaked)} — every "
        f"ShmArrays/ShmBroadcast must be unlinked via close()"
    )


@pytest.fixture(autouse=True)
def no_tile_spill_leaks():
    before = _spill_dirs()
    yield
    leaked = _spill_dirs() - before
    assert not leaked, (
        f"test leaked tile spill director{'y' if len(leaked) == 1 else 'ies'}: "
        f"{sorted(leaked)} — every TileStore (or the TiledCsrMatrix that "
        f"owns it) must be closed"
    )
