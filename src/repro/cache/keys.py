"""Deterministic cache keys: corpus content, operator config, code version.

Every operator on the real execution path is deterministic and proven
bit-identical across backends, shm modes, and worker counts — so a phase
result is fully determined by three things: *what went in* (the corpus
content), *how it was processed* (the operator's semantic configuration),
and *which code did the processing*. A cache key is a SHA-256 over
exactly those three, nothing else:

* **Corpus content** — one SHA-256 per shard of ``shard_docs``
  contiguous documents over the shard's lengths, names and texts (see
  :func:`_shard_digest`), folded in order with ``n_docs`` and
  ``shard_docs`` into one corpus digest. Document *order* is part of
  the key: row order is part of the output contract.
* **Operator config** — only knobs that change output *values*. The
  dictionary implementation, grain, backend, worker count, and shm mode
  are deliberately excluded: the equivalence suite proves they never
  change a byte of output, so including them would fragment the cache
  across configurations the planner is free to vary.
* **Code version** — a digest of the source bytes of every module the
  operators execute. Editing a kernel invalidates the whole cache;
  editing a doc string does too (cheap, safe, and zero-maintenance
  compared to hand-bumped format versions).

Incremental recompute keys on the same *shards*. A changed corpus
shares shard digests with its predecessor wherever shard-aligned runs of
documents survived, which is what lets the word count and transform
recompute only changed shards.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEFAULT_SHARD_DOCS",
    "CorpusFingerprint",
    "code_version",
    "config_fingerprint",
    "tfidf_config",
    "wordcount_config",
    "kmeans_config",
    "names_and_texts",
    "phase_key",
    "shard_key",
]

#: Bumped when payload *schemas* change shape (entries layout, matrix
#: serialization, ...) without any source edit that code_version() sees —
#: e.g. a store-format migration. Folded into every key.
CACHE_FORMAT_VERSION = 2

#: Documents per shard for incremental recompute. Small enough that a
#: single edited document invalidates little work, large enough that the
#: per-shard store/lookup overhead stays negligible.
DEFAULT_SHARD_DOCS = 32


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def names_and_texts(docs) -> tuple[list[str], list[str]]:
    """Each document's name and text, named as the word count names them:
    a plain string at position ``at`` is ``mem-{at}``."""
    names: list[str] = []
    texts: list[str] = []
    for at, item in enumerate(docs):
        if isinstance(item, str):
            names.append(f"mem-{at}")
            texts.append(item)
        else:
            names.append(item.name)
            texts.append(item.text)
    return names, texts


def _lengths(strings: list[str]) -> bytes:
    return np.fromiter(
        map(len, strings), dtype=np.int64, count=len(strings)
    ).tobytes()


def _shard_digest(names: list[str], texts: list[str]) -> str:
    """One SHA-256 over a shard: its name lengths and text lengths (in
    characters, one ``int64`` array each), the joined names' UTF-8 and
    the joined texts' UTF-8, each part prefixed with its byte length.
    The lengths make the encoding injective: ``["ab", "c"]`` and
    ``["a", "bc"]`` differ, and so does a boundary moved between a name
    and its text."""
    return _sha(
        _lengths(names),
        _lengths(texts),
        "".join(names).encode("utf-8"),
        "".join(texts).encode("utf-8"),
    )


@dataclass
class CorpusFingerprint:
    """Shard and whole-corpus content digests."""

    n_docs: int = 0
    shard_docs: int = DEFAULT_SHARD_DOCS
    #: ``(start, stop)`` document ranges, one per shard, covering
    #: ``range(n_docs)`` contiguously.
    shards: list[tuple[int, int]] = field(default_factory=list)
    shard_digests: list[str] = field(default_factory=list)
    corpus_digest: str = ""

    @classmethod
    def from_docs(cls, docs, shard_docs: int = DEFAULT_SHARD_DOCS):
        """Fingerprint a materialized document sequence.

        ``docs`` holds :class:`~repro.text.corpus.Document` objects or
        plain strings; naming mirrors the operators' path derivation so
        the fingerprint keys exactly what the word count will see.
        """
        names, texts = names_and_texts(docs)
        n = len(names)
        fp = cls(n_docs=n, shard_docs=max(1, shard_docs))
        for start in range(0, n, fp.shard_docs):
            stop = min(n, start + fp.shard_docs)
            fp.shards.append((start, stop))
            fp.shard_digests.append(
                _shard_digest(names[start:stop], texts[start:stop])
            )
        fp.corpus_digest = _sha(
            str(n).encode("ascii"),
            str(fp.shard_docs).encode("ascii"),
            *(d.encode("ascii") for d in fp.shard_digests),
        )
        return fp


# -- code version -----------------------------------------------------------------

#: Modules whose source participates in every key: everything that can
#: change an output byte of wc / transform / kmeans — the operator
#: modules and every ``text`` / ``sparse`` / ``tiles`` module they import,
#: directly or through one another (``tests/cache/test_keys.py`` walks
#: the imports, so a new helper module cannot be forgotten).
_VERSIONED_MODULES = (
    "repro.ops.kernels",
    "repro.ops.wordcount",
    "repro.ops.tfidf",
    "repro.ops.kmeans",
    "repro.text.tokenizer",
    "repro.text.normalize",
    "repro.text.stopwords",
    "repro.text.corpus",
    "repro.sparse.vector",
    "repro.sparse.matrix",
    "repro.sparse.blocks",
    "repro.tiles.format",
    "repro.tiles.matrix",
    "repro.tiles.store",
)

_code_version_cache: str | None = None


def code_version() -> str:
    """Digest of the operator modules' source bytes (memoized per process)."""
    global _code_version_cache
    if _code_version_cache is None:
        import importlib

        digest = hashlib.sha256()
        digest.update(str(CACHE_FORMAT_VERSION).encode("ascii"))
        for module_name in _VERSIONED_MODULES:
            module = importlib.import_module(module_name)
            path = module.__file__
            with open(path, "rb") as handle:
                digest.update(module_name.encode("ascii"))
                digest.update(handle.read())
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


# -- operator configuration --------------------------------------------------------


def config_fingerprint(config: dict) -> str:
    """Canonical-JSON digest of a semantic-config mapping."""
    return _sha(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


def _tokenizer_config(tokenizer) -> dict:
    return {
        "class": type(tokenizer).__qualname__,
        "drop_stopwords": tokenizer.drop_stopwords,
        "min_length": tokenizer.min_length,
        "max_length": tokenizer.max_length,
    }


def wordcount_config(tfidf) -> dict:
    """Knobs of a :class:`~repro.ops.tfidf.TfIdfOperator` that change
    phase-1 output values (dictionary kind & reserve excluded: views only)."""
    return {"op": "wordcount", "tokenizer": _tokenizer_config(tfidf.tokenizer)}


def tfidf_config(tfidf) -> dict:
    """Knobs that change transform output values."""
    return {
        "op": "tfidf",
        "tokenizer": _tokenizer_config(tfidf.tokenizer),
        "min_df": tfidf.min_df,
    }


def kmeans_config(kmeans) -> dict:
    """Knobs that change k-means output values. Blocking (``grain_docs``)
    is part of the merge-order contract, so it participates."""
    return {
        "op": "kmeans",
        "class": type(kmeans).__qualname__,
        "n_clusters": kmeans.n_clusters,
        "max_iters": kmeans.max_iters,
        "seed": kmeans.seed,
        "init": kmeans.init,
        "grain_docs": kmeans.grain_docs,
    }


# -- key derivation ---------------------------------------------------------------


def phase_key(kind: str, config: dict, content_digest: str) -> str:
    """Full-phase key: ``kind`` + code version + config + input digest."""
    return f"{kind}-" + _sha(
        code_version().encode("ascii"),
        config_fingerprint(config).encode("ascii"),
        content_digest.encode("ascii"),
    )


def shard_key(kind: str, config: dict, shard_digest: str, extra: str = "") -> str:
    """Per-shard key; ``extra`` tells apart entries of one shard digest
    (a tile's name within its manifest)."""
    return f"{kind}-shard-" + _sha(
        code_version().encode("ascii"),
        config_fingerprint(config).encode("ascii"),
        shard_digest.encode("ascii"),
        extra.encode("ascii"),
    )
