"""Measured cost constants for the real-execution planner.

The virtual-time planner costs candidates against hand-tuned constants;
the real planner refuses to guess. A :class:`CalibrationStore` holds the
per-phase and per-host constants the :class:`~repro.plan.cost_model.RealCostModel`
multiplies out — per-document compute nanoseconds, task/result pickle
bytes per document, pickle throughput both ways, pool-spawn and
shm-setup fixed costs, per-task overhead — and two ways to obtain them:

* :meth:`CalibrationStore.probe` — a cheap sequential sample (~2% of the
  corpus, strided) that times the *actual kernels* the backends run
  (:func:`~repro.ops.kernels.count_chunk`,
  :func:`~repro.ops.kernels.transform_chunk`,
  :func:`~repro.ops.kernels._assign_block`) and pickles the actual
  payloads they would ship, so the constants are measured in the same
  units the run will spend them in.
* :meth:`CalibrationStore.observe_run` — feedback from a traced run
  (:meth:`~repro.exec.spans.RunTrace.phase_totals` for worker-side
  compute, :class:`~repro.exec.shm.IpcStats` snapshots for exact byte
  counts), blended into the store so repeated runs sharpen the model.

Stores persist as JSON (:meth:`save`/:meth:`load`); a committed fixture
makes CI planning deterministic across hosts.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.io.atomic import atomic_write_json

__all__ = ["PhaseConstants", "CalibrationStore", "DEFAULT_PROBE_FRACTION"]

#: Fraction of documents the sequential probe samples.
DEFAULT_PROBE_FRACTION = 0.02

#: Probe floor: fewer documents than this make the timings pure noise
#: (and leave the k-means probe without enough rows for 8 centroids).
_MIN_PROBE_DOCS = 16

#: Defaults for constants the probe does not measure (pool spawn is only
#: measured when ``measure_pool=True`` — it costs a real fork). Values
#: are deliberately conservative for a 1-CPU container; observe_run
#: replaces them with measurements.
_DEFAULT_POOL_SPAWN_S = 0.12
_DEFAULT_SHM_SETUP_S = 0.002
_DEFAULT_TASK_OVERHEAD_S = 2e-4

#: Exponential blending weight for observe_run updates (new measurement
#: gets this share; history keeps the rest).
_BLEND = 0.5


@dataclass
class PhaseConstants:
    """Per-phase cost constants, all *per document* (per document per
    assignment pass for ``kmeans``: the probe times one pass, and
    :meth:`CalibrationStore.observe_totals` divides a run's k-means time
    and bytes by documents × passes)."""

    compute_ns_per_doc: float = 0.0
    #: Bytes of task pickle shipped per document (chunk payload / docs).
    task_bytes_per_doc: float = 0.0
    #: Bytes of result pickle returned per document.
    result_bytes_per_doc: float = 0.0
    #: Task bytes per document when the phase's bulk state travels via
    #: the shm plane instead of the task pickle (kmeans block tokens).
    #: 0 = effectively free.
    shm_task_bytes_per_doc: float = 0.0


@dataclass
class CalibrationStore:
    """Fitted cost constants plus provenance, persisted as JSON."""

    phases: dict[str, PhaseConstants] = field(default_factory=dict)
    pickle_ns_per_byte: float = 0.5
    unpickle_ns_per_byte: float = 0.5
    pool_spawn_s_per_worker: float = _DEFAULT_POOL_SPAWN_S
    shm_setup_s: float = _DEFAULT_SHM_SETUP_S
    task_overhead_s: float = _DEFAULT_TASK_OVERHEAD_S
    #: Nanoseconds per byte moved through the tiled spill plane (binary
    #: tile write + mmap read-back, measured round trip by the probe).
    #: Prices one matrix pass of a tiled phase; the ~page-cache-speed
    #: default keeps fixture stores usable before any probe runs.
    tile_io_ns_per_byte: float = 0.35
    #: "probe", "observed", "fixture" — where the constants came from.
    source: str = "default"
    #: Documents that contributed to the constants so far.
    samples: int = 0
    host: dict = field(default_factory=dict)
    version: int = 1

    # -- the tiling test -----------------------------------------------------------

    def matrix_bytes(self, n_docs: int) -> int:
        """Estimated resident bytes of the score matrix for ``n_docs``
        (0 when no transform constants have been fitted yet)."""
        constants = self.phases.get("transform")
        if constants is None:
            return 0
        return int(n_docs * constants.result_bytes_per_doc)

    def must_tile(self, n_docs: int, memory_budget: int | None) -> bool:
        """Whether a run over ``n_docs`` has to go through the tiled data
        plane: a budget is set and the estimated matrix exceeds it."""
        return (
            memory_budget is not None
            and self.matrix_bytes(n_docs) > memory_budget
        )

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["phases"] = {
            phase: asdict(constants) for phase, constants in self.phases.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationStore":
        """Rebuild a store; keys this version no longer reads (retired
        constants such as ``dict_ns_per_op`` or ``merge_ops_per_doc``)
        are dropped at both levels, so older stores still load."""
        if not isinstance(payload, dict):
            raise ConfigurationError("calibration store must be a JSON object")
        phases = {
            phase: PhaseConstants(**_known(PhaseConstants, constants))
            for phase, constants in payload.get("phases", {}).items()
        }
        kwargs = _known(cls, payload)
        kwargs.pop("phases", None)
        return cls(phases=phases, **kwargs)

    def save(self, path: str) -> None:
        # Atomic replace: a crash mid-save must leave the previous store
        # intact, never a truncated JSON prefix.
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "CalibrationStore":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot load calibration store {path!r}: {exc}"
            ) from exc
        if not raw.strip():
            raise ConfigurationError(
                f"calibration store {path!r} is empty — the file was "
                f"truncated (interrupted write?); delete it to re-probe"
            )
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"calibration store {path!r} is not valid JSON "
                f"(truncated or corrupt — delete it to re-probe): {exc}"
            ) from exc
        return cls.from_dict(payload)

    @classmethod
    def ensure(cls, value, corpus) -> "CalibrationStore":
        """Coerce a store / path / ``None`` into a store: a store is used
        as is, anything else goes through :meth:`load_or_probe`."""
        if isinstance(value, cls):
            return value
        return cls.load_or_probe(value, corpus)

    @classmethod
    def load_or_probe(cls, path: str | None, corpus) -> "CalibrationStore":
        """Load ``path`` when it exists, else probe (and persist to it)."""
        if path is not None and os.path.exists(path):
            return cls.load(path)
        store = cls.probe(corpus)
        if path is not None:
            store.save(path)
        return store

    # -- fitting: sampled sequential probe -----------------------------------------

    @classmethod
    def probe(
        cls,
        corpus,
        tokenizer=None,
        min_df: int = 1,
        fraction: float = DEFAULT_PROBE_FRACTION,
        measure_pool: bool = False,
    ) -> "CalibrationStore":
        """Time the real kernels on a strided ~``fraction`` sample.

        Sequential and cheap by construction: one
        :func:`~repro.ops.kernels.count_chunk` call, one
        :func:`~repro.ops.kernels.transform_chunk` call, one k-means
        assignment pass, and pickle round trips of the payloads those
        calls would ship. ``measure_pool=True`` additionally forks a
        one-worker process pool to time its spawn (skipped by default —
        it costs what it measures).
        """
        from repro.ops import kernels
        from repro.ops.tfidf import TfIdfOperator
        from repro.ops.wordcount import WordCountResult
        from repro.sparse.blocks import TermBlock
        from repro.sparse.matrix import CsrMatrix, csr_row_views
        from repro.text.tokenizer import Tokenizer

        texts = [
            item if isinstance(item, str) else item.text for item in corpus
        ]
        if not texts:
            raise ConfigurationError("cannot probe an empty corpus")
        n = len(texts)
        want = max(_MIN_PROBE_DOCS, int(n * fraction))
        stride = max(1, n // want)
        sample = texts[::stride][:want]
        k = len(sample)
        tokenizer = tokenizer or Tokenizer()

        store = cls(source="probe", samples=k, host=_host())

        # Phase 1: word count. One chunk = the whole sample, exactly the
        # kernel a backend task runs.
        slot = kernels.wordcount_slot()
        kernels.init_wordcount_worker(tokenizer, slot)
        try:
            t0 = time.perf_counter()
            block = kernels.count_chunk(sample, slot)
            wc_s = time.perf_counter() - t0
        finally:
            kernels.release_wordcount_worker(slot)
        wc_task_bytes = len(pickle.dumps(sample)) / k
        store.phases["input+wc"] = PhaseConstants(
            compute_ns_per_doc=wc_s / k * 1e9,
            task_bytes_per_doc=wc_task_bytes,
            result_bytes_per_doc=len(pickle.dumps(block)) / k,
            # Raw texts ship as task pickles whether or not the shm plane
            # is up — shm carries no word-count state.
            shm_task_bytes_per_doc=wc_task_bytes,
        )

        # Phase 2a: transform — vocabulary and bound block through the
        # operator's own serial prefix, scoped to the probe.
        operator = TfIdfOperator(tokenizer=tokenizer, min_df=min_df)
        # A chunk block becomes a (term-sorted) corpus block in concat.
        wc = WordCountResult.from_block(TermBlock.concat([block]), [], 0)
        vocabulary, idf = operator.build_vocabulary(wc)
        bound = operator.bind(wc, vocabulary, idf)
        t0 = time.perf_counter()
        rows = kernels.transform_chunk(bound)
        tr_s = time.perf_counter() - t0
        tr_task_bytes = len(pickle.dumps(bound)) / k
        store.phases["transform"] = PhaseConstants(
            compute_ns_per_doc=tr_s / k * 1e9,
            task_bytes_per_doc=tr_task_bytes,
            result_bytes_per_doc=len(pickle.dumps(rows)) / k,
            # The per-document counts ride the task pickles even with
            # shm up.
            shm_task_bytes_per_doc=tr_task_bytes,
        )

        # Phase 3: one k-means assignment pass over the sample.
        indptr, indices, data = CsrMatrix.from_arrays(
            *rows, n_cols=len(vocabulary)
        ).as_arrays()
        doc_idx, doc_val = csr_row_views(indptr, indices, data)
        sq_norms = np.array([float(v @ v) for v in doc_val])
        n_clusters = min(8, k)
        centroids = np.zeros((n_clusters, len(vocabulary)), dtype=np.float64)
        for cluster in range(n_clusters):
            centroids[cluster, doc_idx[cluster]] = doc_val[cluster]
        centroid_sq_norms = np.einsum("ij,ij->i", centroids, centroids)
        t0 = time.perf_counter()
        km_out = kernels._assign_block(
            0, k, centroids, centroid_sq_norms, doc_idx, doc_val, sq_norms
        )
        km_s = time.perf_counter() - t0
        km_task = (0, k, centroids, centroid_sq_norms)
        store.phases["kmeans"] = PhaseConstants(
            compute_ns_per_doc=km_s / k * 1e9,
            task_bytes_per_doc=len(pickle.dumps(km_task)) / k,
            result_bytes_per_doc=len(pickle.dumps(km_out)) / k,
            shm_task_bytes_per_doc=0.0,  # block tokens are ~40 bytes/task
        )

        # Pickle throughput, measured on the probe's own biggest payload.
        blob_source = block
        blob = pickle.dumps(blob_source)
        reps = 3
        t0 = time.perf_counter()
        for _ in range(reps):
            pickle.dumps(blob_source)
        store.pickle_ns_per_byte = (
            (time.perf_counter() - t0) / (reps * len(blob)) * 1e9
        )
        t0 = time.perf_counter()
        for _ in range(reps):
            pickle.loads(blob)
        store.unpickle_ns_per_byte = (
            (time.perf_counter() - t0) / (reps * len(blob)) * 1e9
        )

        store.shm_setup_s = _probe_shm_setup()
        store.tile_io_ns_per_byte = _probe_tile_io(
            indptr, indices, data, sq_norms, len(vocabulary)
        )
        if measure_pool:
            store.pool_spawn_s_per_worker = _probe_pool_spawn()
        return store

    # -- fitting: feedback from traced runs ------------------------------------------

    def observe_run(self, result, n_docs: int) -> None:
        """Blend a finished run's measurements into the constants.

        ``result`` is a :class:`~repro.core.pipeline.RealRunResult`;
        worker-side compute comes from its trace (requires
        ``trace=True``), byte constants from its IPC snapshot, and the
        k-means pass count from its clustering. Phases absent from the
        run are left untouched.
        """
        totals = result.trace.phase_totals() if result.trace else {}
        ipc = result.ipc if isinstance(result.ipc, dict) else {}
        self.observe_totals(
            totals, ipc.get("phases", {}), n_docs,
            kmeans_passes=result.kmeans.n_iters,
        )

    def observe_totals(
        self, totals: dict, ipc_phases: dict, n_docs: int,
        kmeans_passes: int | None = None,
    ) -> bool:
        """Blend raw per-phase measurements into the constants; returns
        whether any measurement was blended into a constant.

        The record-level entry point shared by :meth:`observe_run` (live
        feedback from the run that just finished) and ledger replay
        (``repro analytics recalibrate`` over persisted history).
        ``totals`` maps phase → ``{"busy_s", "n_items"}`` (the shape of
        :meth:`~repro.exec.spans.RunTrace.phase_totals`); ``ipc_phases``
        maps phase → its IPC counter dict. Phases absent from either, or
        from the store, are left untouched.

        Busy seconds and bytes are divided by the documents the phase
        went through: ``n_docs``, times ``kmeans_passes`` for k-means.
        Span ``n_items`` counts the chunks a task was handed, not
        documents, so it only tells whether the phase ran. Without a
        pass count the k-means constants are left untouched. A call that
        blends nothing (an empty store, or only an unpriceable phase)
        leaves ``samples`` and ``source`` as they were.
        """
        if n_docs <= 0:
            return False
        units = {phase: n_docs for phase in self.phases}
        if "kmeans" in units:
            if kmeans_passes:
                units["kmeans"] = n_docs * kmeans_passes
            else:
                del units["kmeans"]
        blended = False
        for phase, t in totals.items():
            if t.get("n_items", 0) <= 0 or phase not in units:
                continue
            constants = self.phases[phase]
            constants.compute_ns_per_doc = _blend(
                constants.compute_ns_per_doc, t["busy_s"] / units[phase] * 1e9
            )
            blended = True
        for phase, counters in ipc_phases.items():
            if phase not in units:
                continue
            constants = self.phases[phase]
            task_bytes = counters.get("task_pickle_bytes", 0)
            result_bytes = counters.get("result_pickle_bytes", 0)
            if task_bytes:
                constants.task_bytes_per_doc = _blend(
                    constants.task_bytes_per_doc, task_bytes / units[phase]
                )
                blended = True
            if result_bytes:
                constants.result_bytes_per_doc = _blend(
                    constants.result_bytes_per_doc,
                    result_bytes / units[phase],
                )
                blended = True
        if not blended:
            return False
        self.samples += n_docs
        if self.source in ("default", "probe"):
            self.source = "observed"
        return True

    def describe(self) -> str:
        return f"{self.source} ({self.samples} docs sampled)"


def _known(schema, payload: dict) -> dict:
    """The entries of ``payload`` that name a field of dataclass ``schema``."""
    return {k: v for k, v in payload.items() if k in schema.__dataclass_fields__}


def _blend(old: float, new: float) -> float:
    if old <= 0:
        return new
    return (1.0 - _BLEND) * old + _BLEND * new


def _host() -> dict:
    import platform

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def _probe_tile_io(indptr, indices, data, sq_norms, n_cols) -> float:
    """Round-trip the probe matrix through one real spill tile.

    Measures write (atomic temp + replace) plus mmap read-back with CRC
    verification — the exact path a tiled run takes per matrix pass —
    and returns nanoseconds per payload byte (halved: the cost model
    charges write and read passes separately).
    """
    import tempfile

    from repro.tiles.format import open_tile, write_tile

    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    with tempfile.TemporaryDirectory(prefix="repro_probe_tile_") as root:
        path = os.path.join(root, "probe.rt")
        t0 = time.perf_counter()
        header = write_tile(path, 0, n_cols, indptr, indices, data, sq_norms)
        view = open_tile(path, verify=True)
        # Touch every page so the read is not deferred to first access.
        float(view.data.sum()) if len(view.data) else 0.0
        view.close()
        elapsed = time.perf_counter() - t0
        nbytes = max(1, header.nbytes)
    return max(0.05, elapsed / (2 * nbytes) * 1e9)


def _probe_shm_setup() -> float:
    """Time one small shared-segment place+close (0.0 when unavailable)."""
    from repro.exec.shm import Segment, shm_available

    if not shm_available():
        return 0.0
    t0 = time.perf_counter()
    Segment("calibration", arrays={"x": np.zeros(64)}, shared=True).close()
    return time.perf_counter() - t0


def _probe_pool_spawn() -> float:
    """Fork a one-worker pool, run a no-op, and bill the whole round trip."""
    from repro.exec.process import ProcessBackend

    t0 = time.perf_counter()
    backend = ProcessBackend(1)
    try:
        backend.map(_noop, [0])
    finally:
        backend.close()
    return time.perf_counter() - t0


def _noop(item):
    return item
