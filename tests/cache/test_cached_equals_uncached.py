"""Generated property: a cached run equals the uncached run, billed once.

A warm store meets a changed corpus: some shards edited (none to all)
and at most one document poisoned, on a backend that quarantines it.
The word count composes the served shards with the one computed map
over the missing ones, so the output, the quarantine report and the
quarantined count must equal the uncached run's, and the word count
may run no more tasks than the uncached run does.
"""

from __future__ import annotations

import functools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import PipelineCache
from repro.cache.keys import DEFAULT_SHARD_DOCS
from repro.core.pipeline import output_digest, run_pipeline
from repro.exec.inline import SequentialBackend
from repro.exec.resilience import ResilienceConfig, RetryPolicy
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text.corpus import Corpus
from repro.text.synth import MIX_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer

QUARANTINE = ResilienceConfig(
    retry=RetryPolicy(max_attempts=1), on_poison="quarantine"
)


class _PoisonTokenizer(Tokenizer):
    """Raises on any document containing the poison word."""

    def split(self, text):
        if "poisonpill" in text:
            raise ValueError("poisoned document")
        return super().split(text)


@functools.lru_cache(maxsize=None)
def _texts(seed: int) -> tuple[str, ...]:
    corpus = generate_corpus(MIX_PROFILE, scale=0.01, seed=seed)
    return tuple(document.text for document in corpus)


def _run(texts, cache=None):
    with SequentialBackend(QUARANTINE) as backend:
        return run_pipeline(
            Corpus.from_texts("drawn", list(texts)), backend=backend,
            cache=cache,
            tfidf=TfIdfOperator(tokenizer=_PoisonTokenizer()),
            kmeans=KMeansOperator(max_iters=2),
        )


def _wc_tasks(result) -> int:
    return result.ipc["phases"].get("input+wc", {}).get("tasks", 0)


@st.composite
def changes(draw):
    """``(seed, edited, poison)``: a Mix@0.01 corpus seed, one edited
    document in each of a drawn set of shards (none to all), and at
    most one poisoned document."""
    seed = draw(st.integers(0, 3))
    n = len(_texts(seed))
    shards = draw(st.sets(st.integers(0, (n - 1) // DEFAULT_SHARD_DOCS)))
    edited = sorted(
        draw(st.integers(start, min(n, start + DEFAULT_SHARD_DOCS) - 1))
        for start in (shard * DEFAULT_SHARD_DOCS for shard in shards)
    )
    poison = draw(st.none() | st.integers(0, n - 1))
    return seed, edited, poison


@settings(max_examples=15, deadline=None)
@given(changes())
# A poisoned document is itself the one edit: its shard is recomputed.
@example((3, [], 200))
def test_cached_run_equals_uncached_and_bills_once(tmp_path_factory, change):
    seed, edited, poison = change
    texts = _texts(seed)
    changed = list(texts)
    for at in edited:
        changed[at] += " amended"
    if poison is not None:
        changed[poison] = "poisonpill " + changed[poison]
    cache = PipelineCache(str(tmp_path_factory.mktemp("cache")))
    _run(texts, cache)
    cached, uncached = _run(changed, cache), _run(changed)
    assert output_digest(cached) == output_digest(uncached)
    assert (cached.quarantine is None) == (uncached.quarantine is None)
    if uncached.quarantine is not None:
        assert cached.quarantine.doc_ids == uncached.quarantine.doc_ids
    assert (
        cached.ipc["total"]["quarantined"]
        == uncached.ipc["total"]["quarantined"]
    )
    assert _wc_tasks(cached) <= _wc_tasks(uncached)
