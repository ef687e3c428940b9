"""Phase-level result cache for ``run_pipeline``, with incremental recompute.

:class:`PipelineCache` wraps a :class:`~repro.cache.store.CacheStore` and
hands each run a :class:`RunCacheSession` fingerprinted against the
materialized corpus. The session fronts the three real phases:

* **Full-phase serve** — each phase's output is stored under a key from
  :mod:`repro.cache.keys` (corpus content × semantic config × code
  version). A warm run serves all three phases with zero operator
  recompute and bit-identical output.
* **Incremental recompute** — the word count additionally stores
  *per-shard* entries (contiguous document runs), and has one compute
  route: the shards with no entry (all of them on a cold run) are
  computed by one caller-supplied ``compute(docs, doc_ids)`` call, on
  whatever backend the run configured, and composed with the served
  shards by the document-frequency merge. The transform and k-means are
  cached whole: every transform row multiplies a corpus-wide idf, so
  almost any edit changes all of them, and k-means's blocking and merge
  order are part of the output contract.
* **Safety rails** — a run that quarantined documents no longer
  corresponds to the fingerprinted corpus, so the session disables
  itself for stores. A poisoned document is computed and billed once,
  under its corpus id, and the composed word count leaves it out. A
  corrupt entry is deleted and treated as a miss by the store layer.

Payloads are the phases' own columnar forms, each fact stored once: the
word count is its :class:`~repro.sparse.blocks.TermBlock` alone (paths
and input size are rebuilt from the run's documents; a byte-kernel
block pickles its packed term keys, not strings), the transform is a
CSR array triple plus the block's ``min_df`` mask and one ``float64``
idf array. A hit unpickles arrays only: the served vocabulary and idf
are a :class:`~repro.ops.tfidf.Vocabulary` over the served block and an
:class:`~repro.ops.tfidf.Idf` over the stored array, and a term string
is made only when the caller reads one.
A full-phase entry that does not fit (a missing field, a failed shape
check, a payload of an older schema) is deleted and counted as a miss.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, fields

import numpy as np

from repro.cache import keys as cache_keys
from repro.cache.store import CacheStore
from repro.errors import OperatorError, TileError
from repro.ops.kmeans import PHASE_KMEANS, KMeansResult
from repro.ops.tfidf import PHASE_TRANSFORM, Idf, TfIdfResult, Vocabulary
from repro.ops.wordcount import PHASE_INPUT_WC, WordCountResult
from repro.sparse.blocks import TermBlock
from repro.sparse.matrix import CsrMatrix

__all__ = [
    "PipelineCache",
    "RunCacheSession",
    "NullCacheSession",
    "PhaseCacheStats",
]

#: What serving a malformed full-phase entry raises: a missing field
#: (``KeyError``), a wrong type or a failed shape check (``TypeError``,
#: ``ValueError``), a matrix that fails validation (``OperatorError``),
#: a damaged tile (``TileError``). Anything else is a bug and propagates.
_DAMAGE = (KeyError, TypeError, ValueError, OperatorError, TileError)


@dataclass
class PhaseCacheStats:
    """Hit/miss and savings accounting for one phase of one run."""

    hits: int = 0
    misses: int = 0
    shard_hits: int = 0
    shard_misses: int = 0
    #: Bytes of stored payload served instead of recomputed.
    bytes_saved: int = 0
    #: Recorded compute seconds avoided, net of the time spent serving.
    seconds_saved: float = 0.0
    #: Wall seconds spent on lookup + deserialization + composition.
    serve_s: float = 0.0
    #: Entries written by this run (full + shard).
    stored: int = 0

    def add(self, other: "PhaseCacheStats") -> None:
        for spec in fields(self):
            name = spec.name
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


class PipelineCache:
    """A result cache shared across runs (one per on-disk store)."""

    def __init__(
        self,
        store: CacheStore | str,
        shard_docs: int = cache_keys.DEFAULT_SHARD_DOCS,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
    ) -> None:
        if isinstance(store, str):
            store = CacheStore(store, max_bytes=max_bytes,
                               max_age_s=max_age_s)
        self.store = store
        self.shard_docs = max(1, shard_docs)

    @classmethod
    def ensure(cls, value) -> "PipelineCache | None":
        """Coerce ``None`` / path / store / cache into a cache (or None)."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    def begin_run(self, docs, tfidf, kmeans) -> "RunCacheSession | None":
        """Fingerprint ``docs`` and open a session; ``None`` when empty.

        An empty corpus neither stores nor serves — there is nothing to
        key on and the uncached path's empty-input behavior (including
        its errors) must be preserved exactly.
        """
        docs = list(docs)
        if not docs:
            return None
        fingerprint = cache_keys.CorpusFingerprint.from_docs(
            docs, shard_docs=self.shard_docs
        )
        return RunCacheSession(self, fingerprint, docs, tfidf, kmeans)

    def flush(self) -> None:
        self.store.flush()


class NullCacheSession:
    """The session of a run without a cache: every phase just computes.

    Same surface as :class:`RunCacheSession`, so the pipeline driver has
    one code path whether or not a cache was given.
    """

    def __init__(self, docs) -> None:
        self.docs = docs

    def wordcount(self, compute):
        return compute(self.docs, None)

    def transform(self, tfidf_op, wc, compute, tiles=None):
        return compute()

    def kmeans_fit(self, compute):
        return compute()

    def snapshot(self) -> None:
        return None

    def finish(self) -> None:
        pass


class RunCacheSession:
    """One run's view of the cache: fixed corpus, fixed operator configs."""

    def __init__(self, cache: PipelineCache, fingerprint, docs, tfidf, kmeans):
        self.cache = cache
        self.store = cache.store
        self.fp = fingerprint
        self.docs = docs
        self._wc_cfg = cache_keys.wordcount_config(tfidf)
        self._tr_cfg = cache_keys.tfidf_config(tfidf)
        self._km_cfg = cache_keys.kmeans_config(kmeans)
        self.wc_key = cache_keys.phase_key(
            "wc", self._wc_cfg, fingerprint.corpus_digest
        )
        self.tr_key = cache_keys.phase_key(
            "tr", self._tr_cfg, fingerprint.corpus_digest
        )
        #: Tiled-transform manifest entry: same corpus × config, distinct
        #: kind so tiled and resident runs never serve each other's shape.
        self.tr_tiled_key = cache_keys.phase_key(
            "trt", self._tr_cfg, fingerprint.corpus_digest
        )
        # km chains the *untiled* transform key on purpose: tiled and
        # resident transforms are bit-identical, so one stored clustering
        # serves both.
        self.km_key = cache_keys.phase_key("km", self._km_cfg, self.tr_key)
        self.stats: dict[str, PhaseCacheStats] = {
            PHASE_INPUT_WC: PhaseCacheStats(),
            PHASE_TRANSFORM: PhaseCacheStats(),
            PHASE_KMEANS: PhaseCacheStats(),
        }
        #: Set when a phase output stopped corresponding to the
        #: fingerprinted corpus (quarantine dropped documents) — storing
        #: would poison the cache for every later run.
        self.disabled = False

    # -- phase 1: word count -----------------------------------------------------------

    def wordcount(self, compute) -> WordCountResult:
        """Serve phase 1 whole, or compose it from its shards.

        On a miss of the full entry, every shard with no stored entry
        (all of them on a cold run) is computed by one ``compute(docs,
        doc_ids)`` call: the word-count step over those documents, with
        their corpus ids, on the run's backend. The result is the
        shards' blocks concatenated in document order, the same df merge
        a backend run applies to its chunks; when nothing was served it
        is the computed result as it is. A document quarantined by that
        call is noted once, under its corpus id, and left out of the
        result; the run then stores nothing.
        """
        result = self._serve(PHASE_INPUT_WC, self.wc_key, self._serve_wordcount)
        if result is not None:
            return result
        stats = self.stats[PHASE_INPUT_WC]
        t0 = time.perf_counter()
        shard_keys = [
            cache_keys.shard_key("wc", self._wc_cfg, digest)
            for digest in self.fp.shard_digests
        ]
        payloads, n_hits, hit_seconds = self._get_shards(shard_keys, stats)
        blocks = [payload and payload["block"] for payload in payloads]
        missing = [at for at, block in enumerate(blocks) if block is None]
        stats.serve_s += time.perf_counter() - t0

        dropped: set[int] = set()
        compute_s = 0.0
        if missing:
            # With nothing served, the corpus goes as it came.
            docs, doc_ids = self.docs, None
            if n_hits:
                doc_ids = [
                    i for at in missing for i in range(*self.fp.shards[at])
                ]
                docs = [self.docs[i] for i in doc_ids]
            t1 = time.perf_counter()
            result = compute(docs, doc_ids)
            compute_s = time.perf_counter() - t1
            ids = range(len(docs)) if doc_ids is None else doc_ids
            # Each surviving row's corpus id, ascending.
            rows = ids if result.doc_ids is None else result.doc_ids
            if len(rows) != len(ids):
                # Quarantine dropped documents: the output no longer
                # corresponds to the fingerprinted corpus.
                dropped = set(ids).difference(rows)
                self.disabled = True
            per_doc_s = compute_s / len(docs)
            for at in missing:
                start, stop = self.fp.shards[at]
                blocks[at] = result.block[
                    bisect_left(rows, start):bisect_left(rows, stop)
                ]
                if not self.disabled:
                    seconds = per_doc_s * (stop - start)
                    self.store.put(
                        shard_keys[at],
                        {"block": blocks[at], "seconds": seconds},
                        seconds=seconds,
                    )
                    stats.stored += 1

        if n_hits:
            t2 = time.perf_counter()
            paths, input_bytes = self._paths_and_bytes()
            kept = None
            if dropped:
                kept = [i for i in range(self.fp.n_docs) if i not in dropped]
                paths = [paths[i] for i in kept]
            result = WordCountResult.from_block(
                TermBlock.concat(blocks), paths, input_bytes, kept
            )
            stats.serve_s += time.perf_counter() - t2
            stats.seconds_saved += hit_seconds
        if not self.disabled:
            # The next run of this corpus is one full-phase hit.
            self.store.put(
                self.wc_key, result.block, seconds=hit_seconds + compute_s
            )
            stats.stored += 1
        return result

    def _paths_and_bytes(self) -> tuple[list[str], int]:
        """The word count's ``paths`` and ``input_bytes`` for this run's
        documents, as the fingerprinting pass recorded them (a fresh
        list: each result owns its ``paths``)."""
        return list(self.fp.names), self.fp.input_bytes

    def _serve_wordcount(self, block) -> WordCountResult:
        if not isinstance(block, TermBlock) or len(block) != self.fp.n_docs:
            raise TypeError("not this corpus's word-count block")
        return WordCountResult.from_block(block, *self._paths_and_bytes())

    # -- phase 2: transform ------------------------------------------------------------

    def transform(self, tfidf_op, wc, compute, tiles=None) -> TfIdfResult:
        """Serve or compute the transform, cached whole.

        ``compute()`` runs the phase as the uncached pipeline would.
        Resident runs store the CSR arrays under ``tr_key``. A tiled run
        (``tiles`` is its :class:`~repro.tiles.store.TileStore`) stores
        one small manifest entry under ``tr_tiled_key`` plus one
        raw-bytes entry per tile, and is served one tile at a time into
        ``tiles``, so serving never materializes the matrix and the run's
        memory budget holds. There is no shard-incremental form: every
        score multiplies a corpus-wide idf, so almost any edit changes
        every row, and a changed corpus recomputes the phase.
        """
        if tiles is None:
            return self._serve_or_compute(
                PHASE_TRANSFORM, self.tr_key,
                lambda payload: self._serve_transform(payload, wc),
                compute, lambda result: result.matrix.n_rows,
                lambda result, _s: _transform_payload(tfidf_op, wc, result),
            )
        return self._serve_or_compute(
            PHASE_TRANSFORM, self.tr_tiled_key,
            lambda payload: self._serve_transform_tiled(payload, wc, tiles),
            compute, lambda result: result.matrix.n_rows,
            lambda result, compute_s: self._tiled_payload(
                tfidf_op, wc, result, tiles, compute_s
            ),
        )

    def _serve_transform(self, payload, wc) -> TfIdfResult:
        matrix = CsrMatrix.from_arrays(
            payload["indptr"], payload["indices"], payload["data"],
            payload["n_cols"],
        )
        if matrix.n_rows != self.fp.n_docs:
            raise ValueError("transform entry has the wrong row count")
        vocabulary, idf = _served_vocabulary(payload, wc)
        return TfIdfResult(
            matrix=matrix, vocabulary=vocabulary, idf=idf, wordcount=wc
        )

    def _tile_key(self, manifest_digest: str, name: str) -> str:
        return cache_keys.shard_key(
            "trtile", self._tr_cfg, manifest_digest, extra=name
        )

    def _serve_transform_tiled(self, payload, wc, store) -> TfIdfResult:
        """Adopt cached tile blobs into ``store``. Any damage deletes the
        whole family (a partial adoption must not survive to serve a
        later run) and re-raises: the caller counts a miss."""
        from repro.tiles.matrix import TiledCsrMatrix

        tile_keys: list[str] = []
        try:
            tile_keys = [
                key for key in payload["tile_keys"] if isinstance(key, str)
            ]
            vocabulary, idf = _served_vocabulary(payload, wc)
            store.reset()
            tile_bytes = 0
            for key in tile_keys:
                entry = self.store.get(key)
                if entry is None:
                    raise TileError(f"missing cached tile entry {key}")
                blob, _stored_s, stored_bytes = entry
                store.adopt_tile(blob)  # verifies the CRC before adopting
                tile_bytes += stored_bytes
            manifest = store.seal(payload["n_cols"])
            if manifest.digest() != payload["manifest_digest"]:
                raise TileError("cached tile manifest digest mismatch")
        except _DAMAGE:
            for key in tile_keys:
                self.store.delete(key)
            store.reset()
            raise
        self.stats[PHASE_TRANSFORM].bytes_saved += tile_bytes
        return TfIdfResult(
            matrix=TiledCsrMatrix(manifest, store=store),
            vocabulary=vocabulary,
            idf=idf,
            wordcount=wc,
        )

    def _tiled_payload(self, tfidf_op, wc, result, tiles, compute_s) -> dict:
        """Store each tile of ``result`` as its own entry and return the
        manifest entry that names them."""
        manifest = result.matrix.manifest
        digest = manifest.digest()
        tile_keys = []
        per_tile_s = compute_s / max(1, len(manifest.tiles))
        for meta in manifest.tiles:
            key = self._tile_key(digest, meta.name)
            # One tile's raw bytes at a time — the store path stays
            # inside the run's memory budget.
            self.store.put(key, tiles.tile_bytes(meta), seconds=per_tile_s)
            tile_keys.append(key)
            self.stats[PHASE_TRANSFORM].stored += 1
        return {
            **_vocabulary_payload(tfidf_op, wc, result),
            "n_cols": manifest.n_cols,
            "manifest_digest": digest,
            "tile_keys": tile_keys,
        }

    # -- phase 3: k-means ---------------------------------------------------------------

    def kmeans_fit(self, compute) -> KMeansResult:
        """Serve or compute the clustering (full phase only — blocking and
        merge order are part of the output contract, nothing to shard)."""
        return self._serve_or_compute(
            PHASE_KMEANS, self.km_key, self._serve_kmeans, compute,
            lambda result: len(result.assignments),
            lambda result, _s: _kmeans_payload(result),
        )

    def _serve_kmeans(self, payload) -> KMeansResult:
        assignments = list(payload["assignments"])
        if len(assignments) != self.fp.n_docs:
            raise ValueError("k-means entry has the wrong document count")
        return KMeansResult(
            assignments=assignments,
            centroids=np.frombuffer(
                payload["centroids"], dtype=np.dtype(payload["dtype"])
            ).reshape(payload["shape"]).copy(),
            n_iters=payload["n_iters"],
            inertia=payload["inertia"],
            converged=payload["converged"],
            inertia_history=list(payload["inertia_history"]),
        )

    # -- serving ------------------------------------------------------------------------

    def _get_shards(self, shard_keys, stats):
        """``(payloads, n_hits, stored_seconds)`` of the shard entries
        under ``shard_keys``; a missing entry's payload is ``None``."""
        payloads: list[dict | None] = []
        hit_seconds = 0.0
        for key in shard_keys:
            entry = self.store.get(key)
            if entry is None:
                payloads.append(None)
            else:
                payload, stored_s, stored_bytes = entry
                payloads.append(payload)
                stats.bytes_saved += stored_bytes
                hit_seconds += stored_s
        n_hits = len(payloads) - payloads.count(None)
        stats.shard_hits += n_hits
        stats.shard_misses += len(payloads) - n_hits
        return payloads, n_hits, hit_seconds

    def _serve(self, phase: str, key: str, serve):
        """``serve(payload)`` of the full-phase entry under ``key``, or
        ``None`` (counted as the phase's miss) when the entry is absent
        or ``serve`` rejects it — a rejected entry is deleted, so the
        recompute stores a fresh one."""
        stats = self.stats[phase]
        t0 = time.perf_counter()
        hit = self.store.get(key)
        if hit is not None:
            payload, stored_s, stored_bytes = hit
            try:
                result = serve(payload)
            except _DAMAGE:
                self.store.delete(key)
            else:
                serve_s = time.perf_counter() - t0
                stats.hits += 1
                stats.bytes_saved += stored_bytes
                stats.seconds_saved += max(0.0, stored_s - serve_s)
                stats.serve_s += serve_s
                return result
        stats.misses += 1
        return None

    def _serve_or_compute(self, phase, key, serve, compute, n_rows, entry):
        """The full-phase entry under ``key`` through ``serve``, or else
        ``compute()``'s result, stored under ``key`` as ``entry(result,
        compute_s)`` while its ``n_rows(result)`` still lines up with the
        fingerprinted corpus. A result that does not (quarantine dropped
        documents) stops every store for the rest of the run."""
        result = self._serve(phase, key, serve)
        if result is not None:
            return result
        t0 = time.perf_counter()
        result = compute()
        compute_s = time.perf_counter() - t0
        if n_rows(result) != self.fp.n_docs:
            self.disabled = True
        if not self.disabled:
            self.store.put(key, entry(result, compute_s), seconds=compute_s)
            self.stats[phase].stored += 1
        return result

    # -- accounting ---------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able accounting view (embedded in results and benchmarks)."""
        phases = {
            phase: stats.as_dict()
            for phase, stats in self.stats.items()
        }
        totals = PhaseCacheStats()
        for stats in self.stats.values():
            totals.add(stats)
        snapshot = totals.as_dict()
        snapshot["phases"] = phases
        snapshot["dir"] = self.store.root
        snapshot["disabled"] = self.disabled
        return snapshot

    def finish(self) -> None:
        """Persist the store index (atomic) at the end of the run."""
        self.store.flush()


def _vocabulary_payload(tfidf_op, wc, result) -> dict:
    """A result's vocabulary and idf as the word-count block's ``min_df``
    mask and one ``float64`` array (a real vocabulary is that mask's cut
    of the block's terms, see ``TfIdfOperator.build_vocabulary``)."""
    return {
        "kept": wc.block.df_counts >= tfidf_op.min_df,
        "idf": np.asarray(result.idf, dtype=np.float64),
    }


def _served_vocabulary(payload, wc) -> tuple[Vocabulary, Idf]:
    """The stored mask and idf array back as a vocabulary over the
    served block and an idf column, neither made yet; ``ValueError``
    when the mask does not fit this block or the matrix's columns."""
    kept, idf, n_cols = payload["kept"], payload["idf"], payload["n_cols"]
    if (
        not isinstance(kept, np.ndarray)
        or not isinstance(idf, np.ndarray)
        or kept.dtype != np.bool_
        or idf.dtype != np.float64
        or len(kept) != wc.block.n_terms
        or int(kept.sum()) != n_cols
        or idf.shape != (n_cols,)
    ):
        raise ValueError("stale vocabulary mask")
    return Vocabulary(wc.block, kept), Idf(idf)


def _transform_payload(tfidf_op, wc, result: TfIdfResult) -> dict:
    indptr, indices, data = result.matrix.as_arrays()
    return {
        "indptr": indptr,
        # Column ids fit 32 bits; the matrix widens them on ``as_arrays``.
        "indices": indices.astype(np.int32),
        "data": data,
        "n_cols": result.matrix.n_cols,
        **_vocabulary_payload(tfidf_op, wc, result),
    }


def _kmeans_payload(result: KMeansResult) -> dict:
    centroids = np.ascontiguousarray(result.centroids)
    return {
        "assignments": list(result.assignments),
        "centroids": centroids.tobytes(),
        "dtype": centroids.dtype.str,
        "shape": tuple(centroids.shape),
        "n_iters": result.n_iters,
        "inertia": result.inertia,
        "converged": result.converged,
        "inertia_history": list(result.inertia_history),
    }
