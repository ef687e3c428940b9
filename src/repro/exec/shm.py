"""The data plane of the real backends, and its IPC accounting.

The process backend's hidden tax is serialization across the in-node
boundary. This module extends the fused pipeline's "memory edges"
across it (paper §3.1/§3.3): an operator declares what it writes and
who reads it, and the backend's plane decides where the bytes live.

* A :class:`Segment` holds named arrays at one field layout, backed by
  held references or by a named ``multiprocessing.shared_memory``
  segment. It is its own picklable descriptor: a copy in another
  process attaches by name, and only the creating process unlinks.
* Channels are ownership rules over segments. Placed arrays are written
  once by the parent and read by every task; allocated arrays are
  written in place by tasks and read by the parent. A :class:`Broadcast`
  is stamped slots (two on shm), written by the parent once per
  iteration and read by tasks; a :class:`Gather` is one slot per block,
  written by tasks and read by the parent. Both write through one gate
  that checks arity, dtype and shape.
* A :class:`Plane`, one per backend, makes the one transport decision:
  :data:`REFERENCE` (in-process: the caller's own arrays, nothing
  copied), :data:`VALUE` (worker processes without shared memory:
  arrays ride the install payload, the task tokens and the task
  returns) or :data:`SHM`. A shm plane unlinks every segment it made
  on ``backend.close()``, after a worker crash, and on atexit/SIGTERM.
* :class:`IpcStats` counts, per pipeline phase, the bytes pickled next
  to the bytes that crossed through shared segments instead.

A :class:`Placement` is the plane one level up: a whole block source.

Segments are named ``repro_shm_<pid>_<n>`` so tests can scan for leaks.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import signal
import threading
import weakref
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from repro.errors import ConfigurationError

try:  # POSIX/Windows shared memory; absent on some exotic platforms.
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without _posixshmem
    _shared_memory = None

__all__ = [
    "IpcStats",
    "PhaseIpc",
    "Broadcast",
    "Gather",
    "Placement",
    "Plane",
    "Segment",
    "REFERENCE",
    "VALUE",
    "SHM",
    "detach_all",
    "shm_available",
    "SEGMENT_PREFIX",
]

#: Prefix of every segment this module creates; the leak-check fixture in
#: the test suite scans ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro_shm"

#: The transports a :class:`Plane` chooses between: held references in
#: one address space, pickled copies, or named shared-memory segments.
REFERENCE, VALUE, SHM = "reference", "value", "shm"

_SEQUENCE = itertools.count()

#: Field offsets inside a segment are rounded up to this, so any dtype's
#: alignment requirement is met by the view constructed over the buffer.
_ALIGN = 16


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_SEQUENCE)}"


_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """True when named shared memory actually works on this host.

    Probes once (create + unlink of a 1-byte segment) and caches: some
    platforms import ``multiprocessing.shared_memory`` fine but fail at
    ``shm_open`` time (no ``/dev/shm``, sandboxed runtimes).
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        if _shared_memory is None:
            _AVAILABLE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(
                    create=True, size=1, name=_segment_name()
                )
                probe.unlink()
                probe.close()
                _AVAILABLE = True
            except Exception:
                _AVAILABLE = False
    return _AVAILABLE


# -- IPC accounting ---------------------------------------------------------------


@dataclass
class PhaseIpc:
    """IPC traffic of one pipeline phase (all byte counts are exact)."""

    #: Tasks submitted to a worker pool (chunks, not items).
    tasks: int = 0
    #: Bytes pickled into task payloads (function + chunk).
    task_pickle_bytes: int = 0
    #: Bytes pickled in task results on the way back.
    result_pickle_bytes: int = 0
    #: Bytes of span records piggy-backed on results when tracing is on
    #: (kept out of ``result_pickle_bytes`` so benchmark bytes stay honest).
    span_pickle_bytes: int = 0
    #: configure() calls that (re)shipped per-worker state.
    configures: int = 0
    #: Pickled size of the shipped initargs.
    configure_pickle_bytes: int = 0
    #: Shared-memory segments created.
    segments: int = 0
    #: Capacity of those segments.
    segment_bytes: int = 0
    #: broadcast() publications.
    broadcasts: int = 0
    #: Bytes written into broadcast buffers (not pickled).
    broadcast_buffer_bytes: int = 0
    #: Task re-executions (retry after a transient failure, or replay of
    #: an in-flight chunk after a pool death).
    retries: int = 0
    #: Bytes re-pickled into retried/replayed task payloads (kept out of
    #: ``task_pickle_bytes`` so first-attempt accounting stays honest).
    retry_pickle_bytes: int = 0
    #: Per-task deadlines that expired (each costs a pool restart).
    timeouts: int = 0
    #: Worker-pool respawns after a crash or hang.
    pool_restarts: int = 0
    #: Map items (or isolated slices of items) quarantined as poisoned.
    quarantined: int = 0
    #: Spill tiles written by the out-of-core data plane.
    tile_writes: int = 0
    #: Bytes written into spill tiles (header + payload, exact file size).
    tile_write_bytes: int = 0
    #: Tile mmap opens (a re-open after eviction counts again).
    tile_reads: int = 0
    #: Bytes mapped by those opens.
    tile_read_bytes: int = 0
    #: Tiles unmapped by the reader's LRU to stay under the memory budget.
    tile_evictions: int = 0

    def add(self, other: "PhaseIpc") -> None:
        for spec in dataclass_fields(self):
            setattr(
                self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
            )

    def as_dict(self) -> dict[str, int]:
        return {
            spec.name: getattr(self, spec.name) for spec in dataclass_fields(self)
        }


class IpcStats:
    """Per-phase IPC counters of one run's bill, and the run's one phase
    cursor (:class:`~repro.exec.inline.RunBill`).

    Operators start a phase with ``backend.begin_phase``, which calls
    :meth:`set_phase`; every subsequent task/configure/segment/broadcast/
    tile is charged to that phase.
    ``snapshot()`` returns a JSON-able dict that ``run_pipeline`` surfaces
    in :class:`~repro.core.pipeline.RealRunResult` (``result.ipc``), where
    ``perfbench/`` reads its ``exec.*`` rows.
    """

    def __init__(self) -> None:
        self._phases: dict[str, PhaseIpc] = {}
        self._phase = "misc"

    def reset(self) -> None:
        self._phases = {}
        self._phase = "misc"

    def set_phase(self, name: str) -> None:
        self._phase = name

    @property
    def phase(self) -> str:
        return self._phase

    def _current(self) -> PhaseIpc:
        bucket = self._phases.get(self._phase)
        if bucket is None:
            bucket = self._phases[self._phase] = PhaseIpc()
        return bucket

    # -- recording hooks (called by backends and segment handles) ---------------

    def record_task(self, pickle_bytes: int) -> None:
        bucket = self._current()
        bucket.tasks += 1
        bucket.task_pickle_bytes += pickle_bytes

    def record_result(self, pickle_bytes: int) -> None:
        self._current().result_pickle_bytes += pickle_bytes

    def record_span_payload(self, pickle_bytes: int) -> None:
        self._current().span_pickle_bytes += pickle_bytes

    def record_configure(self, pickle_bytes: int) -> None:
        bucket = self._current()
        bucket.configures += 1
        bucket.configure_pickle_bytes += pickle_bytes

    def record_segment(self, nbytes: int) -> None:
        bucket = self._current()
        bucket.segments += 1
        bucket.segment_bytes += nbytes

    def record_broadcast(self, buffer_bytes: int) -> None:
        bucket = self._current()
        bucket.broadcasts += 1
        bucket.broadcast_buffer_bytes += buffer_bytes

    def record_retry(self, pickle_bytes: int) -> None:
        bucket = self._current()
        bucket.retries += 1
        bucket.retry_pickle_bytes += pickle_bytes

    def record_timeout(self) -> None:
        self._current().timeouts += 1

    def record_pool_restart(self) -> None:
        self._current().pool_restarts += 1

    def record_quarantined(self, n_items: int = 1) -> None:
        self._current().quarantined += n_items

    def record_tile_write(self, nbytes: int) -> None:
        bucket = self._current()
        bucket.tile_writes += 1
        bucket.tile_write_bytes += nbytes

    def record_tile_read(self, nbytes: int) -> None:
        bucket = self._current()
        bucket.tile_reads += 1
        bucket.tile_read_bytes += nbytes

    def record_tile_eviction(self) -> None:
        self._current().tile_evictions += 1

    # -- reading ---------------------------------------------------------------

    def phase_stats(self, name: str) -> PhaseIpc:
        """Counters for one phase (zeros when the phase never ran)."""
        return self._phases.get(name, PhaseIpc())

    def total(self) -> PhaseIpc:
        combined = PhaseIpc()
        for bucket in self._phases.values():
            combined.add(bucket)
        return combined

    def snapshot(self) -> dict:
        return {
            "phases": {name: b.as_dict() for name, b in self._phases.items()},
            "total": self.total().as_dict(),
        }


class Placement:
    """A block source made reachable from a backend's workers.

    ``source.place(backend)`` returns one. It is the parent-side handle
    (``close()`` releases what the placement put on the plane) and, being
    its own ``descriptor()``, the picklable recipe that rides the worker
    initializer. ``resolve()`` in the process that placed it hands back
    the very source that was placed — in-process backends read through
    the caller's object: no second tile reader, no second list of row
    views. Any other process (pool workers, forked or spawned) gets
    ``rebuild(*recipe)``. ``release(source)`` closes a source this
    descriptor rebuilt and leaves the placed one to its owner.
    """

    def __init__(self, source, rebuild, recipe: tuple, shared=None) -> None:
        self._source = source
        self._owner_pid = os.getpid()
        self._rebuild = rebuild
        self._recipe = recipe
        self._shared = shared

    def descriptor(self) -> "Placement":
        return self

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_source": None, "_shared": None}

    def resolve(self):
        if self._source is not None and os.getpid() == self._owner_pid:
            return self._source
        return self._rebuild(*self._recipe)

    def release(self, source) -> None:
        if source is not self._source:
            source.close()

    def close(self) -> None:
        shared, self._shared = self._shared, None
        if shared is not None:
            shared.close()


# -- segments ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Field:
    """Where one array lives inside a segment."""

    dtype: str
    shape: tuple[int, ...]
    offset: int


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


def _layout(specs) -> tuple[dict[str, _Field], int]:
    """Lay ``(key, dtype, shape)`` specs out back to back at aligned
    offsets; returns the fields by key and the segment's size."""
    fields = {}
    offset = 0
    for key, dtype, shape in specs:
        dtype = np.dtype(dtype)
        shape = tuple(int(n) for n in shape)
        fields[key] = _Field(dtype.str, shape, offset)
        offset = _aligned(offset + dtype.itemsize * math.prod(shape))
    return fields, offset


def _view(buf, spec: _Field) -> np.ndarray:
    # ``frombuffer`` holds an export on the mapping for as long as the
    # view lives (``np.ndarray(buffer=...)`` does not): a segment closed
    # under a live view stays mapped instead of leaving it dangling.
    count = math.prod(spec.shape)
    return np.frombuffer(buf, spec.dtype, count, spec.offset).reshape(spec.shape)


def _checked(what: str, specs, arrays, prefix: bool = False) -> tuple:
    """The one write gate of broadcast and gather: ``arrays`` must match
    the ``(key, dtype, shape)`` specs in arity, dtype and shape — or,
    with ``prefix``, be a 1-D prefix of the field's capacity."""
    arrays = tuple(np.asarray(array) for array in arrays)
    if len(arrays) != len(specs):
        raise ConfigurationError(
            f"{what} expects {len(specs)} arrays, got {len(arrays)}"
        )
    for array, (key, dtype, shape) in zip(arrays, specs):
        fits = array.shape == shape or (
            prefix and array.ndim == 1 and len(array) <= shape[0]
        )
        if array.dtype.str != dtype or not fits:
            bound = "capacity" if prefix else "shape"
            raise ConfigurationError(
                f"{what} field {key}: got dtype {array.dtype.str}, shape "
                f"{array.shape}; expected dtype {dtype}, {bound} {shape}"
            )
    return arrays


def _slotted(tag: str, slots, shared: bool, stats) -> Segment:
    """One segment of slots back to back. Slot ``s`` is an int64 header
    at ``"s.head"`` followed by its ``(key, dtype, shape)`` fields at
    ``"s.<key>"``; ``slots`` holds ``(header length, specs)`` per slot."""
    specs = [
        (f"{s}.{key}", dtype, shape)
        for s, (width, fields) in enumerate(slots)
        for key, dtype, shape in [("head", np.int64, (width,)), *fields]
    ]
    return Segment(tag, specs, shared=shared, stats=stats)


#: Per-process cache of attached segments, keyed by segment name. A
#: worker attaches each segment once per phase (an install detaches them
#: all, :func:`detach_all`); the *name* is unlinked by its creator.
_ATTACHED: dict[str, object] = {}


def _close_mapping(shm) -> None:
    """Close this process's mapping, tolerating live exported views."""
    try:
        shm.close()
    except BufferError:
        # A numpy view over the buffer is still alive (a result matrix,
        # a worker's last block): drop this handle's references instead.
        # The views' buffer chain owns the mapping and unmaps it when the
        # last of them dies.
        shm._buf = shm._mmap = None
        if getattr(shm, "_fd", -1) >= 0:
            os.close(shm._fd)
            shm._fd = -1


def detach_all() -> None:
    """Drop every attachment this process holds (a pool worker between
    two phases: what the next phase reads, it attaches afresh)."""
    while _ATTACHED:
        _close_mapping(_ATTACHED.popitem()[1])


class Segment:
    """Named arrays at one field layout, behind one picklable handle.

    Built from ``arrays`` (placed) or ``(key, dtype, shape)`` ``specs``
    (zero-filled). Without ``shared`` it holds references, the caller's
    own arrays; with it, a named shared-memory segment (``segment``,
    billed to ``stats``). Pickled, it drops this process's mapping: held
    references travel by value, a shared segment by name, attached on
    first read (``release()`` detaches). ``close()`` is idempotent and
    unlinks only in the creating process; live views keep their mapping.
    """

    def __init__(
        self, tag: str, specs=None, arrays=None, *, shared: bool = False,
        stats=None,
    ) -> None:
        self.tag = tag
        arrays = dict(arrays or {})
        if specs is None:
            specs = [(key, np.asarray(a).dtype, np.shape(a)) for key, a in arrays.items()]
        self.fields, self.nbytes = _layout(specs)
        #: Whether ``close()`` has not run (workers can still attach).
        self.live = True
        #: Name of the shared segment; ``None`` for held references.
        self.segment: str | None = None
        self._owner_pid = os.getpid()
        self._shm = None
        self._arrays = None if shared else arrays
        if not shared:
            return
        if _shared_memory is None:
            raise ConfigurationError("shared memory is unavailable on this platform")
        self._shm = _shared_memory.SharedMemory(
            create=True, size=max(1, self.nbytes), name=_segment_name()
        )
        self.segment = self._shm.name
        if stats is not None:
            stats.record_segment(self.nbytes)
        self.write(arrays)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_shm": None}

    def descriptor(self) -> "Segment":
        return self

    def read(self, keys) -> tuple[np.ndarray, ...]:
        """The arrays at ``keys``: the held ones, or views over the segment."""
        if not self.live:
            raise ConfigurationError(f"segment {self.tag!r} already closed")
        if self._arrays is not None:
            return tuple(self._arrays[key] for key in keys)
        shm = self._shm if os.getpid() == self._owner_pid else None
        if shm is None and self.segment not in _ATTACHED:
            _ATTACHED[self.segment] = _shared_memory.SharedMemory(name=self.segment)
        shm = shm or _ATTACHED[self.segment]
        return tuple(_view(shm.buf, self.fields[key]) for key in keys)

    def resolve(self) -> dict[str, np.ndarray]:
        """Every array, keyed like the arrays or specs it was built from."""
        return dict(zip(self.fields, self.read(self.fields)))

    def write(self, values: dict) -> None:
        """Store each array at its key: by reference, or copied into the
        segment as a prefix of its field."""
        if self._arrays is not None:
            self._arrays.update(values)
            return
        for value, view in zip(values.values(), self.read(values)):
            view[: len(value)] = value

    def release(self) -> None:
        """Drop this process's attachment, if it made one."""
        shm = _ATTACHED.pop(self.segment, None)
        if shm is not None:
            _close_mapping(shm)

    def close(self) -> None:
        self.live = False
        self._arrays = None
        shm, self._shm = self._shm, None
        if shm is None:
            return
        if os.getpid() != self._owner_pid:
            _close_mapping(shm)
            return
        # Unlink first: the *name* is gone even when live views keep the
        # mapping, which is what leak checks observe.
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        _close_mapping(shm)


class Broadcast:
    """Parent → tasks: stamped slots of one segment.

    ``publish(arrays)`` writes slot ``generation % slots`` and stamps it
    last, so a token carrying only the generation finds and checks its
    slot. Shm keeps two slots, so a publish never overwrites the one a
    straggler of the previous iteration may still read; held references
    keep one, so only the current generation reads. ``template`` fixes
    every publish's arity, shapes and dtypes. On the value transport the
    token is the arrays.
    """

    def __init__(self, tag: str, template, transport: str, stats=None) -> None:
        self.tag = tag
        self.generation = -1
        template = [np.asarray(a) for a in template]
        self._specs = [(f"a{i}", a.dtype.str, a.shape) for i, a in enumerate(template)]
        #: Bytes one publish copies: only into a shared segment (the value
        #: transport's bytes are billed as task pickles).
        self.payload_bytes = sum(a.nbytes for a in template) if transport == SHM else 0
        self._segment = None
        self._n_slots = 2 if transport == SHM else 1
        if transport != VALUE:
            self._segment = _slotted(
                tag, [(1, self._specs)] * self._n_slots, transport == SHM, stats
            )
            self._segment.write(
                {f"{slot}.head": np.array([-1]) for slot in range(self._n_slots)}
            )

    def descriptor(self) -> "Broadcast":
        return self

    def publish(self, arrays):
        """Write this iteration's arrays; returns the token tasks carry."""
        arrays = _checked(f"broadcast {self.tag!r}", self._specs, arrays)
        self.generation += 1
        if self._segment is None:
            return arrays
        slot = self.generation % self._n_slots
        self._segment.write({
            f"{slot}.{key}": array for (key, _, _), array in zip(self._specs, arrays)
        })
        # Stamp last: a reader that raced the copy sees a stale stamp,
        # not a half-written payload passing for the new generation.
        self._segment.write({f"{slot}.head": np.array([self.generation])})
        return self.generation

    def read(self, token) -> tuple[np.ndarray, ...]:
        """The arrays ``token`` names, after checking the slot's stamp."""
        if self._segment is None:
            return token
        slot = token % self._n_slots
        (stamp,) = self._segment.read([f"{slot}.head"])
        if int(stamp[0]) != token:
            raise ConfigurationError(
                f"broadcast {self.tag!r} slot holds generation "
                f"{int(stamp[0])}, expected {token}"
            )
        return self._segment.read([f"{slot}.{key}" for key, _, _ in self._specs])

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()


class Gather:
    """Tasks → parent: one slot per result.

    ``slots`` holds one tuple of ``(dtype, capacity)`` pairs per slot and
    sizes a shm arena; without it a slot's first put fixes its arity and
    dtypes. A task returns what ``put(slot, arrays)`` returned (``None``
    on shm, which writes prefixes and lengths into the slot; elsewhere
    the arrays) and the parent passes it to ``take(slot, returned)``. A
    slot is rewritten whenever its task runs again (next iteration,
    retry, replay), so the parent reads it before resubmitting its tasks.
    """

    def __init__(self, tag: str, slots, transport: str, stats=None) -> None:
        self.tag = tag
        self._slots = {
            slot: tuple(
                (f"a{i}", np.dtype(dtype).str, (int(capacity),))
                for i, (dtype, capacity) in enumerate(fields)
            )
            for slot, fields in enumerate(slots or ())
        }
        self._segment = None
        if transport == SHM:
            self._segment = _slotted(
                tag, [(len(specs), specs) for specs in self._slots.values()],
                True, stats,
            )

    def descriptor(self) -> "Gather":
        return self

    def put(self, slot: int, arrays):
        if slot not in self._slots and self._segment is None:
            self._slots[slot] = tuple(
                (f"a{i}", np.asarray(a).dtype.str, (math.inf,))
                for i, a in enumerate(arrays)
            )
        arrays = _checked(
            f"gather {self.tag!r} slot {slot}", self._slots[slot], arrays, prefix=True
        )
        if self._segment is None:
            return arrays
        self._segment.write({
            **{f"{slot}.{key}": a for (key, _, _), a in zip(self._slots[slot], arrays)},
            f"{slot}.head": np.array([len(a) for a in arrays], dtype=np.int64),
        })
        return None

    def take(self, slot: int, returned) -> tuple[np.ndarray, ...]:
        if returned is not None:
            return returned
        (lengths,) = self._segment.read([f"{slot}.head"])
        views = self._segment.read([f"{slot}.{key}" for key, _, _ in self._slots[slot]])
        return tuple(view[:n] for view, n in zip(views, lengths.tolist()))

    def close(self) -> None:
        if self._segment is not None:
            self._segment.close()


#: Resources whose backing storage must be released if the owning process
#: dies by SIGTERM (or plain interpreter exit) before ``close()`` ran:
#: shm planes, and any other owner of kernel- or disk-backed state that
#: duck-types ``owner_pid``/``close()`` (the tile spill directories of
#: :class:`repro.tiles.store.TileStore` register here too). Weak so a
#: normally-closed, garbage-collected resource does not pin itself here.
_LIVE_PLANES: "weakref.WeakSet" = weakref.WeakSet()

_CLEANUP_INSTALLED = False


def _cleanup_live_planes() -> None:
    """Release every live resource owned by *this* process.

    The pid guard matters under ``fork``: worker processes inherit the
    registry (and the signal handler) copy-on-write, and must never
    unlink segments (or delete spill tiles) the parent is still serving.
    """
    for plane in list(_LIVE_PLANES):
        if plane.owner_pid == os.getpid():
            plane.close()


def register_cleanup_resource(resource) -> None:
    """Arm atexit/SIGTERM cleanup for any ``owner_pid``/``close()`` owner.

    A shm plane's segments and a tile spill directory are the two kinds
    of state a run killed by SIGTERM would otherwise leak: ``close()``
    only runs on orderly unwinding, and SIGTERM's default disposition
    skips Python entirely. The handler releases every live resource and
    then re-delivers the signal with the previous disposition restored,
    so exit status and any outer handler behave exactly as before. It is
    installed on the first registration, so merely importing this module
    never hijacks a host application's signal handling, and skipped
    silently off the main thread, where CPython forbids ``signal.signal``.
    """
    global _CLEANUP_INSTALLED
    _LIVE_PLANES.add(resource)
    if _CLEANUP_INSTALLED:
        return
    _CLEANUP_INSTALLED = True
    atexit.register(_cleanup_live_planes)
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        previous = signal.getsignal(signal.SIGTERM)

        def _on_sigterm(signum, frame):
            _cleanup_live_planes()
            if callable(previous):
                previous(signum, frame)
                return
            # Restore the prior (default/ignore) disposition and
            # re-deliver, so the process still dies "by SIGTERM".
            signal.signal(signum, previous if previous is not None else signal.SIG_DFL)
            os.kill(os.getpid(), signum)

        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - restricted platforms
        pass


def unregister_cleanup_resource(resource) -> None:
    _LIVE_PLANES.discard(resource)


class Plane:
    """One backend's transport decision, and every segment it made.

    ``transport`` is :data:`REFERENCE`, :data:`VALUE` or :data:`SHM`;
    only through shm do worker writes reach the parent. A shm plane
    tracks the handles it is given, and its ``close()`` unlinks them all
    (closing twice is safe): it runs on ``backend.close()``, after a
    worker crash, and on atexit/SIGTERM.
    """

    def __init__(self, transport: str) -> None:
        self.transport = transport
        #: Whether worker writes reach the parent (only through shm).
        self.shared = transport == SHM
        self.owner_pid = os.getpid()
        self._handles: list = []
        if transport == SHM:
            register_cleanup_resource(self)

    def track(self, handle):
        """Close ``handle`` with the plane; returns it."""
        if self.shared:
            self._handles.append(handle)
        return handle

    def close(self) -> None:
        handles, self._handles = self._handles, []
        for handle in handles:
            handle.close()
        unregister_cleanup_resource(self)
