"""Crash-safe file replacement for every on-disk artifact we persist.

Writing JSON (or any serialized state) straight into its destination
means a crash mid-``dump`` leaves a truncated, unloadable file — and the
calibration store, the result cache's index, and the committed benchmark
trajectory are all files whose loss costs real re-measurement. Every
writer therefore goes through one idiom: serialize into a temporary file
*in the destination's directory* (same filesystem, so the final step is
a metadata operation) and ``os.replace`` it over the target. Readers see
either the old content or the new content, never a prefix of the new.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = ["atomic_write_bytes", "atomic_write_text", "atomic_write_json"]


def atomic_write_bytes(path: str, payload: bytes, *, fsync: bool = True) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp + replace.

    ``fsync=False`` keeps the replace atomic but lets the new content
    reach the disk when the kernel flushes it: for a file whose loss in
    a power cut costs nothing its reader cannot rebuild.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # The temp file must not outlive a failed write (including an
        # interrupt between write and replace): the whole point is that a
        # crash leaves only the old file behind.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str, *, fsync: bool = True) -> None:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: str, payload, *, indent: int = 2, fsync: bool = True
) -> None:
    """Serialize ``payload`` as JSON and atomically replace ``path``.

    Serialization happens *before* the target is touched, so a payload
    that fails to encode leaves the existing file intact too.
    """
    text = json.dumps(payload, indent=indent, sort_keys=True) + "\n"
    atomic_write_text(path, text, fsync=fsync)
