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
``close()`` — shows up as a leftover directory and fails that test
(a live process outside the run owns its directories, as it does its
segments). So
does a tile file that is still *mapped* into this process after its test
(``/proc/self/maps``, where there is one): a reader nobody closed keeps
its mmaps — and the deleted files' blocks — for the life of the process.
"""

from __future__ import annotations

import gc
import os
import tempfile

import pytest
from hypothesis import settings

from repro.exec.shm import SEGMENT_PREFIX
from repro.tiles import SPILL_PREFIX

_SHM_DIR = "/dev/shm"

# ``pytest --hypothesis-profile=ci``: the same examples on every run (no
# random seed, no example database) and a fixed number of them, so a CI
# step's outcome and runtime are reproducible.
settings.register_profile(
    "ci", derandomize=True, database=None, max_examples=100, deadline=None
)


def _segments() -> set[str]:
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return set()
    return {name for name in names if name.startswith(SEGMENT_PREFIX)}


def _foreign(name: str, prefix: str) -> bool:
    """Whether a live process outside this test run created ``name``.

    Segments are named ``repro_shm_<creating pid>_<n>`` and spill
    directories ``repro_tiles_<creating pid>_<n>_<random>``. One whose
    creator is alive and is neither this process nor a descendant
    belongs to something running beside pytest (a perfbench run, another
    test session) and is not this test's leak; a dead creator's is
    reported, whoever it was.
    """
    try:
        pid = int(name[len(prefix) + 1:].split("_")[0])
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


def _mapped_tiles() -> set[str]:
    """Tile files mapped into this process (empty where ``/proc`` is not)."""
    try:
        with open("/proc/self/maps") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return set()
    # "address perms offset dev inode   pathname[ (deleted)]"
    return {
        line.split(None, 5)[5] for line in lines
        if f"/{SPILL_PREFIX}_" in line
    }


@pytest.fixture(autouse=True)
def no_shm_segment_leaks():
    if not os.path.isdir(_SHM_DIR):
        yield
        return
    before = _segments()
    yield
    leaked = {
        name for name in _segments() - before
        if not _foreign(name, SEGMENT_PREFIX)
    }
    assert not leaked, (
        f"test leaked shared-memory segment(s): {sorted(leaked)} — every "
        f"shared Segment (and Broadcast/Gather over one) must be unlinked "
        f"via close()"
    )


@pytest.fixture(autouse=True)
def no_tile_spill_leaks():
    before = _spill_dirs()
    mapped_before = _mapped_tiles()
    yield
    leaked = {
        name for name in _spill_dirs() - before
        if not _foreign(name, SPILL_PREFIX)
    }
    assert not leaked, (
        f"test leaked tile spill director{'y' if len(leaked) == 1 else 'ies'}: "
        f"{sorted(leaked)} — every TileStore (or the TiledCsrMatrix that "
        f"owns it) must be closed"
    )
    if _mapped_tiles() - mapped_before:
        gc.collect()  # an evicted tile lives until its last view dies
    still_mapped = _mapped_tiles() - mapped_before
    assert not still_mapped, (
        f"test left tile file(s) mapped: {sorted(still_mapped)} — every "
        f"TileReader (or the TiledCsrMatrix over it) must be closed, "
        f"worker-side ones included"
    )
