"""Shared-memory array plane + IPC accounting for the real backends.

The process backend's hidden tax is serialization across the in-node
boundary: phase-constant state (the prepared CSR matrix, the transform
vocabulary) is shipped to every worker, and per-iteration K-means
centroids used to be re-pickled into every block task. This module
extends the fused pipeline's "memory edges" across the process boundary
(paper §3.1/§3.3): arrays are *placed* once into named
``multiprocessing.shared_memory`` segments and workers *attach*
zero-copy, while per-iteration state is *broadcast* into a
double-buffered segment — one buffer write per iteration instead of one
pickled copy per task.

Three layers:

* **Descriptors** — small, picklable recipes a worker turns back into
  numpy arrays: :class:`ShmArraysDescriptor` (``resolve()``) and
  :class:`ShmBroadcastDescriptor` (``read(token)``). Their in-process
  twins :class:`LocalArrays` / :class:`LocalBroadcast` hold plain
  references (sequential/thread backends share an address space, so
  "zero-copy" is trivially a no-op for them). The third transport, for
  worker processes *without* shared memory, is by value: a pickled
  :class:`LocalArrays` carries its arrays, and a
  :class:`ValueBroadcast` token is the payload itself. Results travel
  back through *gather* channels, the broadcast's mirror:
  :class:`ShmGatherDescriptor` (``put(slot, arrays)`` into a parent-owned
  arena) and :class:`LocalGather` (results handed back by reference
  in-process, by value once pickled). A :class:`Placement` is the same
  idea one level up — a whole block source (resident rows, spilled
  tiles) behind ``resolve()``.
* **Parent-side handles** — :class:`ShmArrays` / :class:`ShmBroadcast`
  / :class:`ShmGather` own a segment's lifecycle (create → write →
  unlink); the :class:`ShmPlane` tracks every handle a backend created
  so ``backend.close()`` can unlink them all even after a worker crash.
* **Accounting** — :class:`IpcStats` counts, per pipeline phase, the
  bytes actually pickled (tasks, results, configure) next to the bytes
  that crossed through shared segments instead. On a noisy or 1-CPU
  host the wall clock cannot show the win; the pickled-bytes counter
  does, unambiguously.

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
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from repro.errors import ConfigurationError

try:  # POSIX/Windows shared memory; absent on some exotic platforms.
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without _posixshmem
    _shared_memory = None

__all__ = [
    "IpcStats",
    "PhaseIpc",
    "LocalArrays",
    "LocalBroadcast",
    "ValueBroadcast",
    "LocalGather",
    "Placement",
    "ShmArrays",
    "ShmArraysDescriptor",
    "ShmBroadcast",
    "ShmBroadcastDescriptor",
    "ShmGather",
    "ShmGatherDescriptor",
    "ShmPlane",
    "shm_available",
    "SEGMENT_PREFIX",
]

#: Prefix of every segment this module creates; the leak-check fixture in
#: the test suite scans ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro_shm"

_SEQUENCE = itertools.count()

#: Field offsets inside a segment are rounded up to this, so any dtype's
#: alignment requirement is met by the view constructed over the buffer.
_ALIGN = 16

#: Per-slot broadcast header: one int64 generation stamp, padded.
_HEADER_BYTES = _ALIGN


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
    """Per-phase IPC counters owned by one execution backend.

    Operators call :meth:`set_phase` when they start a backend run; every
    subsequent task/configure/segment/broadcast is charged to that phase.
    ``snapshot()`` returns a JSON-able dict that ``run_pipeline`` surfaces
    in :class:`~repro.core.pipeline.RealRunResult` and the wall-clock
    benchmark appends to ``BENCH_wallclock.json``.
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


# -- in-process (no-op) sharing ----------------------------------------------------


class LocalArrays:
    """Zero-copy array sharing inside one address space.

    The sequential and thread backends' implementation of the shared
    plane: the "descriptor" is the handle itself and ``resolve()`` hands
    back the very arrays that were placed. Nothing is copied, nothing is
    named, nothing can leak. Pickled into a process pool's initargs it
    is the *by-value* transport: the descriptor carries the arrays, one
    copy per worker — what a process backend without shared memory
    places with.
    """

    def __init__(self, tag: str, arrays: dict[str, np.ndarray]) -> None:
        self.tag = tag
        self._arrays: dict[str, np.ndarray] | None = dict(arrays)
        self.nbytes = int(sum(np.asarray(a).nbytes for a in arrays.values()))

    def descriptor(self) -> "LocalArrays":
        return self

    def resolve(self) -> dict[str, np.ndarray]:
        if self._arrays is None:
            raise ConfigurationError(f"shared arrays {self.tag!r} already closed")
        return self._arrays

    def release(self) -> None:
        """Nothing was attached, nothing to detach."""

    def close(self) -> None:
        self._arrays = None


class LocalBroadcast:
    """In-process broadcast channel: publish stores references.

    ``read(generation)`` verifies the caller asked for the generation
    that is actually current — the same staleness check the
    shared-memory channel performs through its slot header.
    """

    def __init__(self, tag: str, stats: IpcStats | None = None) -> None:
        self.tag = tag
        self._stats = stats
        self._generation = -1
        self._arrays: tuple[np.ndarray, ...] | None = None

    def descriptor(self) -> "LocalBroadcast":
        return self

    @property
    def generation(self) -> int:
        return self._generation

    def publish(self, arrays) -> int:
        self._arrays = tuple(arrays)
        self._generation += 1
        if self._stats is not None:
            # In-process: nothing is copied, the broadcast is free.
            self._stats.record_broadcast(0)
        return self._generation

    def read(self, generation: int) -> tuple[np.ndarray, ...]:
        if self._arrays is None:
            raise ConfigurationError(f"broadcast {self.tag!r} has never published")
        if generation != self._generation:
            raise ConfigurationError(
                f"broadcast {self.tag!r}: generation {generation} requested "
                f"but {self._generation} is current"
            )
        return self._arrays

    def close(self) -> None:
        self._arrays = None


class ValueBroadcast:
    """By-value broadcast for worker processes without shared memory.

    ``publish()`` returns the arrays themselves as the token, so they
    ride inside every task that carries it, and ``read(token)`` hands
    them back. With a pickled :class:`LocalArrays` for the placed side
    this is the plane's third transport — what ``--no-shm`` and
    platforms without POSIX shared memory run on, through the same
    operator code as the other two.
    """

    def __init__(self, tag: str, stats: IpcStats | None = None) -> None:
        self.tag = tag
        self._stats = stats

    def descriptor(self) -> "ValueBroadcast":
        return ValueBroadcast(self.tag)  # stateless: workers need no stats

    def publish(self, arrays) -> tuple[np.ndarray, ...]:
        if self._stats is not None:
            # No buffer is written: the bytes are billed as task pickles.
            self._stats.record_broadcast(0)
        return tuple(arrays)

    def read(self, token) -> tuple[np.ndarray, ...]:
        return token

    def close(self) -> None:
        pass


class LocalGather:
    """Gather channel that hands results back as they are.

    The mirror of the broadcast channels, for per-task *array results*:
    a task calls ``put`` for each of its slot results and returns what
    ``put`` returned; the caller calls ``take`` on a slot with that
    return value. Here ``put`` returns the arrays themselves — by
    reference on the in-process backends (nothing is copied), by value
    once the task's return value is pickled (a process backend without
    shared memory). :class:`ShmGather` is the third transport.
    """

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def descriptor(self) -> "LocalGather":
        return self

    def put(self, slot: int, arrays) -> tuple[np.ndarray, ...]:
        return tuple(arrays)

    def take(self, slot: int, returned) -> tuple[np.ndarray, ...]:
        return returned

    def close(self) -> None:
        pass


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


# -- shared-memory segments --------------------------------------------------------


@dataclass(frozen=True)
class _Field:
    """Layout of one array inside a segment (offsets are slot-relative)."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


def _layout(
    arrays: list[tuple[str, np.ndarray]], base: int = 0
) -> tuple[tuple[_Field, ...], int]:
    """Assign aligned offsets to each array; returns (fields, end offset)."""
    specs = []
    for key, array in arrays:
        array = np.asarray(array)
        specs.append((key, array.dtype, array.shape))
    return _layout_specs(specs, base)


def _layout_specs(specs, base: int = 0) -> tuple[tuple[_Field, ...], int]:
    """:func:`_layout` from ``(key, dtype, shape)`` alone — for segments
    whose arrays are written by workers, not copied in by the parent."""
    fields = []
    offset = base
    for key, dtype, shape in specs:
        dtype = np.dtype(dtype)
        shape = tuple(int(n) for n in shape)
        fields.append(_Field(key, dtype.str, shape, offset))
        offset = _aligned(offset + dtype.itemsize * math.prod(shape))
    return tuple(fields), offset


def _view(buf, spec: _Field, base: int = 0) -> np.ndarray:
    # ``frombuffer`` holds an export on the mapping for as long as the
    # view lives (``np.ndarray(buffer=...)`` does not): a segment closed
    # under a live view stays mapped instead of leaving it dangling.
    count = math.prod(spec.shape)
    return np.frombuffer(
        buf, dtype=spec.dtype, count=count, offset=base + spec.offset
    ).reshape(spec.shape)


#: Worker-side cache of attached segments, keyed by segment name. A
#: worker attaches each segment once per phase (an install detaches them
#: all, :func:`detach_all`); the *name* is unlinked by the parent.
_ATTACHED: dict[str, object] = {}


def _attach(name: str):
    segment = _ATTACHED.get(name)
    if segment is None:
        if _shared_memory is None:  # pragma: no cover - guarded by shm_available
            raise ConfigurationError("shared memory is unavailable on this platform")
        segment = _shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = segment
    return segment


def _close_mapping(shm) -> None:
    """Close this process's mapping, tolerating live exported views."""
    try:
        shm.close()
    except BufferError:
        # A numpy view over the buffer is still alive somewhere (a result
        # matrix the parent hands back, a worker's last block). Drop this
        # handle's references instead: the views' buffer chain then owns
        # the mapping, which is unmapped when the last of them dies — and
        # the handle's own ``__del__`` can no longer trip over them.
        shm._buf = shm._mmap = None
        if getattr(shm, "_fd", -1) >= 0:
            os.close(shm._fd)
            shm._fd = -1


def detach_all() -> None:
    """Drop every attachment this process holds (a pool worker between
    two phases: what the next phase reads, it attaches afresh)."""
    while _ATTACHED:
        _close_mapping(_ATTACHED.popitem()[1])


def _release_segment(shm) -> None:
    """Unlink + close, tolerating repeats and live exported views (the
    *name* is gone either way, which is what leak checks observe)."""
    try:
        shm.unlink()
    except FileNotFoundError:
        pass
    _close_mapping(shm)


@dataclass(frozen=True)
class ShmArraysDescriptor:
    """Picklable recipe for attaching to a placed-array segment."""

    segment: str
    fields: tuple[_Field, ...]
    nbytes: int

    def resolve(self) -> dict[str, np.ndarray]:
        """Attach (cached) and return zero-copy views, keyed like place()."""
        shm = _attach(self.segment)
        return {spec.key: _view(shm.buf, spec) for spec in self.fields}

    def release(self) -> None:
        """Drop this process's attachment (the name is the parent's to
        unlink). A view still alive keeps the mapping until it dies."""
        shm = _ATTACHED.pop(self.segment, None)
        if shm is not None:
            _close_mapping(shm)


class ShmArrays:
    """Parent-side owner of one segment holding named arrays.

    ``place`` semantics: the arrays are copied into the segment **once**
    at construction; every worker that resolves the descriptor reads the
    same physical pages. ``close()`` unlinks the name and is idempotent.
    """

    def __init__(
        self, tag: str, arrays: dict[str, np.ndarray] | None,
        stats: IpcStats | None = None, specs=None,
    ) -> None:
        if _shared_memory is None:
            raise ConfigurationError("shared memory is unavailable on this platform")
        self.tag = tag
        items = [(key, np.ascontiguousarray(a)) for key, a in (arrays or {}).items()]
        if specs is None:
            fields, total = _layout(items)
        else:
            # Allocated, not placed: zero-filled arrays that workers write.
            fields, total = _layout_specs(specs)
        self._shm = _shared_memory.SharedMemory(
            create=True, size=max(1, total), name=_segment_name()
        )
        for (key, array), spec in zip(items, fields):
            _view(self._shm.buf, spec)[...] = array
        self._descriptor = ShmArraysDescriptor(self._shm.name, fields, total)
        if stats is not None:
            stats.record_segment(total)

    @property
    def live(self) -> bool:
        """Whether the segment is still linked (workers can attach it)."""
        return self._shm is not None

    @property
    def nbytes(self) -> int:
        return self._descriptor.nbytes

    def descriptor(self) -> ShmArraysDescriptor:
        return self._descriptor

    def resolve(self) -> dict[str, np.ndarray]:
        """Parent-side views over the placed arrays."""
        if self._shm is None:
            raise ConfigurationError(f"shared arrays {self.tag!r} already closed")
        return {spec.key: _view(self._shm.buf, spec) for spec in self._descriptor.fields}

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is not None:
            _release_segment(shm)


@dataclass(frozen=True)
class ShmBroadcastDescriptor:
    """Picklable recipe for reading a double-buffered broadcast channel."""

    segment: str
    fields: tuple[_Field, ...]
    slot_bytes: int

    def read(self, generation: int) -> tuple[np.ndarray, ...]:
        """Views into generation's slot, after verifying its stamp."""
        shm = _attach(self.segment)
        base = (generation % 2) * self.slot_bytes
        stamp = int(np.ndarray((1,), dtype=np.int64, buffer=shm.buf, offset=base)[0])
        if stamp != generation:
            raise ConfigurationError(
                f"broadcast slot holds generation {stamp}, expected {generation}"
            )
        return tuple(_view(shm.buf, spec, base) for spec in self.fields)


class ShmBroadcast:
    """Double-buffered broadcast channel over one shared segment.

    ``publish(arrays)`` copies the iteration's arrays into slot
    ``generation % 2`` and stamps the slot header with the generation, so
    a task token carrying only the generation lets every worker find —
    and sanity-check — the right buffer. Two slots mean a publish never
    writes into the buffer a straggler from the previous, already-merged
    iteration might still be reading.
    """

    def __init__(
        self, tag: str, template, stats: IpcStats | None = None
    ) -> None:
        if _shared_memory is None:
            raise ConfigurationError("shared memory is unavailable on this platform")
        self.tag = tag
        self._stats = stats
        items = [(f"a{i}", np.asarray(a)) for i, a in enumerate(template)]
        fields, slot = _layout(items, base=_HEADER_BYTES)
        slot = _aligned(slot)
        self._payload_bytes = int(sum(a.nbytes for _, a in items))
        self._shm = _shared_memory.SharedMemory(
            create=True, size=max(1, 2 * slot), name=_segment_name()
        )
        self._descriptor = ShmBroadcastDescriptor(self._shm.name, fields, slot)
        self._generation = -1
        # Stamp both slots as "never published".
        for base in (0, slot):
            np.ndarray((1,), dtype=np.int64, buffer=self._shm.buf, offset=base)[0] = -1
        if stats is not None:
            stats.record_segment(2 * slot)

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def nbytes(self) -> int:
        return 2 * self._descriptor.slot_bytes

    def descriptor(self) -> ShmBroadcastDescriptor:
        return self._descriptor

    def publish(self, arrays) -> int:
        if self._shm is None:
            raise ConfigurationError(f"broadcast {self.tag!r} already closed")
        arrays = tuple(arrays)
        if len(arrays) != len(self._descriptor.fields):
            raise ConfigurationError(
                f"broadcast {self.tag!r} expects {len(self._descriptor.fields)} "
                f"arrays, got {len(arrays)}"
            )
        self._generation += 1
        base = (self._generation % 2) * self._descriptor.slot_bytes
        for array, spec in zip(arrays, self._descriptor.fields):
            array = np.asarray(array)
            if tuple(array.shape) != spec.shape or array.dtype.str != spec.dtype:
                raise ConfigurationError(
                    f"broadcast {self.tag!r} field {spec.key}: shape/dtype "
                    f"changed since the channel was opened"
                )
            _view(self._shm.buf, spec, base)[...] = array
        # Stamp last: a reader that raced the copy sees a stale stamp,
        # not a half-written payload passing for the new generation.
        np.ndarray((1,), dtype=np.int64, buffer=self._shm.buf, offset=base)[0] = (
            self._generation
        )
        if self._stats is not None:
            self._stats.record_broadcast(self._payload_bytes)
        return self._generation

    def read(self, generation: int) -> tuple[np.ndarray, ...]:
        if self._shm is None:
            raise ConfigurationError(f"broadcast {self.tag!r} already closed")
        base = (generation % 2) * self._descriptor.slot_bytes
        stamp = int(
            np.ndarray((1,), dtype=np.int64, buffer=self._shm.buf, offset=base)[0]
        )
        if stamp != generation:
            raise ConfigurationError(
                f"broadcast slot holds generation {stamp}, expected {generation}"
            )
        return tuple(
            _view(self._shm.buf, spec, base) for spec in self._descriptor.fields
        )

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is not None:
            _release_segment(shm)


def _slot_layout(slots) -> tuple[tuple[tuple[int, tuple[_Field, ...]], ...], int]:
    """Lay out gather slots back to back: each is a header of one int64
    length per field, then the fields at their capacities."""
    layout = []
    offset = 0
    for capacities in slots:
        header = offset
        specs = [
            (f"a{i}", dtype, (capacity,))
            for i, (dtype, capacity) in enumerate(capacities)
        ]
        fields, offset = _layout_specs(
            specs, base=header + _aligned(8 * len(specs))
        )
        layout.append((header, fields))
    return tuple(layout), offset


def _slot_lengths(buf, header: int, n_fields: int) -> np.ndarray:
    return np.ndarray((n_fields,), dtype=np.int64, buffer=buf, offset=header)


@dataclass(frozen=True)
class ShmGatherDescriptor:
    """Picklable recipe for writing results into a gather arena."""

    segment: str
    slots: tuple[tuple[int, tuple[_Field, ...]], ...]

    def put(self, slot: int, arrays) -> None:
        """Write one slot's arrays (each a prefix of its field) and their
        lengths; the task returns ``None`` in their place."""
        buf = _attach(self.segment).buf
        header, fields = self.slots[slot]
        lengths = _slot_lengths(buf, header, len(fields))
        for at, (array, spec) in enumerate(zip(arrays, fields)):
            array = np.asarray(array)
            if len(array) > spec.shape[0]:
                raise ConfigurationError(
                    f"gather slot {slot} field {at}: {len(array)} values "
                    f"exceed its capacity {spec.shape[0]}"
                )
            _view(buf, spec)[: len(array)] = array
            lengths[at] = len(array)
        return None


class ShmGather:
    """Parent-owned gather arena: one slot per result, bounded up front.

    Workers write their slot results straight into the segment
    (:meth:`ShmGatherDescriptor.put`) and the parent reads them back as
    views (:meth:`take`) — no result array crosses a pipe. A slot is
    rewritten whenever its task runs again (next iteration, retry,
    replay), so a caller reads every slot it needs before resubmitting
    the tasks that write it.
    """

    def __init__(self, tag: str, slots, stats: IpcStats | None = None) -> None:
        if _shared_memory is None:
            raise ConfigurationError("shared memory is unavailable on this platform")
        self.tag = tag
        layout, total = _slot_layout(slots)
        self._shm = _shared_memory.SharedMemory(
            create=True, size=max(1, total), name=_segment_name()
        )
        self._descriptor = ShmGatherDescriptor(self._shm.name, layout)
        if stats is not None:
            stats.record_segment(total)

    def descriptor(self) -> ShmGatherDescriptor:
        return self._descriptor

    def take(self, slot: int, returned) -> tuple[np.ndarray, ...]:
        if returned is not None:
            return returned
        if self._shm is None:
            raise ConfigurationError(f"gather {self.tag!r} already closed")
        buf = self._shm.buf
        header, fields = self._descriptor.slots[slot]
        lengths = _slot_lengths(buf, header, len(fields)).tolist()
        return tuple(
            _view(buf, spec)[:n] for spec, n in zip(fields, lengths)
        )

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is not None:
            _release_segment(shm)


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

    Generalizes the shm plane hook to file-backed resources: a tile spill
    directory leaked by a SIGTERM'd run is the disk-sided twin of a leaked
    ``/dev/shm`` segment, so both ride the same registry and handler.
    """
    _install_plane_cleanup()
    _LIVE_PLANES.add(resource)


def unregister_cleanup_resource(resource) -> None:
    _LIVE_PLANES.discard(resource)


def _install_plane_cleanup() -> None:
    """Arm atexit + SIGTERM cleanup, once, on first plane creation.

    A run killed by SIGTERM mid-pipeline used to leak its ``/dev/shm``
    segments — ``close()`` only runs on orderly unwinding, and SIGTERM's
    default disposition skips Python entirely. The handler unlinks every
    live segment and then re-delivers the signal with the previous
    disposition restored, so exit status and any outer handler behave
    exactly as before. Installed lazily so merely importing this module
    never hijacks a host application's signal handling; skipped silently
    off the main thread, where CPython forbids ``signal.signal``.
    """
    global _CLEANUP_INSTALLED
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


class ShmPlane:
    """Every segment one backend created, so close-time cleanup is total.

    Handles are also returned to the operators that placed them (for
    early, per-phase release); the plane's ``close()`` is the backstop
    that runs on ``backend.close()`` — including the ``BrokenProcessPool``
    path — and unlinking twice is safe. Creation also registers the plane
    for atexit/SIGTERM cleanup, so a run killed mid-flight cannot leak
    ``/dev/shm`` entries either.
    """

    def __init__(self, stats: IpcStats | None = None) -> None:
        self._stats = stats
        self._handles: list = []
        self.owner_pid = os.getpid()
        _install_plane_cleanup()
        _LIVE_PLANES.add(self)

    def place(self, tag: str, arrays: dict[str, np.ndarray]) -> ShmArrays:
        handle = ShmArrays(tag, arrays, stats=self._stats)
        self._handles.append(handle)
        return handle

    def open_broadcast(self, tag: str, template) -> ShmBroadcast:
        handle = ShmBroadcast(tag, template, stats=self._stats)
        self._handles.append(handle)
        return handle

    def open_gather(self, tag: str, slots) -> ShmGather:
        handle = ShmGather(tag, slots, stats=self._stats)
        self._handles.append(handle)
        return handle

    def allocate(self, tag: str, specs) -> ShmArrays:
        handle = ShmArrays(tag, None, stats=self._stats, specs=specs)
        self._handles.append(handle)
        return handle

    def close(self) -> None:
        handles, self._handles = self._handles, []
        for handle in handles:
            handle.close()
        _LIVE_PLANES.discard(self)
