"""Deterministic phase-level result cache (ROADMAP item 3).

Every real-path operator is deterministic and bit-identical across
backends, shm modes, and worker counts — the preconditions that make
memoization *provably* safe (the read/write-set argument of the
workflow-optimization literature). This package exploits that:

* :mod:`repro.cache.keys` — content/config/code-version keying,
* :mod:`repro.cache.store` — crash-safe on-disk store with LRU eviction,
* :mod:`repro.cache.pipeline_cache` — the phase-level serve/compose/
  compute logic ``run_pipeline(cache=...)`` drives.

See ``docs/caching.md`` for the key-derivation and invalidation rules.
"""

from repro.cache.keys import (
    CACHE_FORMAT_VERSION,
    DEFAULT_SHARD_DOCS,
    CorpusFingerprint,
    code_version,
)
from repro.cache.pipeline_cache import (
    NullCacheSession,
    PhaseCacheStats,
    PipelineCache,
    RunCacheSession,
)
from repro.cache.store import CacheStore

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEFAULT_SHARD_DOCS",
    "CorpusFingerprint",
    "code_version",
    "CacheStore",
    "PipelineCache",
    "RunCacheSession",
    "NullCacheSession",
    "PhaseCacheStats",
]
