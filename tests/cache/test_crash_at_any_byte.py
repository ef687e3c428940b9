"""Crash at any byte: a torn store file costs a recompute, never a crash.

A process killed mid-write leaves a prefix of a file. Each of the files a
warm run reads first — ``index.json``, the resident transform entry
``tr-*.pkl`` and the tiled transform's manifest ``trt-*.pkl`` — is cut at
every offset under :class:`~repro.cache.store.CacheStore` (the store
opens, the torn entry is a miss, every other entry is served), and at
Hypothesis-drawn offsets under a whole pipeline run (same output as an
uncached run, and the store is healed: the next run has 3 hits).
"""

from __future__ import annotations

import glob
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheStore, PipelineCache
from repro.core.pipeline import output_digest, run_pipeline
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text import MIX_PROFILE, generate_corpus
from repro.text.corpus import Document

#: Bytes: small enough that the scale-0.002 transform spills to tiles.
BUDGET = 50_000

#: The store-level sweep's corpus: a few short documents keep every file
#: small enough to cut at each of its offsets.
_TINY = [
    Document(doc_id=at, name=f"doc-{at}", text=text)
    for at, text in enumerate([
        "alpha beta gamma delta", "beta gamma epsilon", "gamma delta zeta",
        "alpha epsilon eta theta", "theta iota kappa alpha",
    ])
]


def _run(docs, cache=None, budget=None, kmeans=None):
    result = run_pipeline(
        docs,
        tfidf=TfIdfOperator(),
        kmeans=kmeans or KMeansOperator(max_iters=3),
        cache=cache,
        memory_budget=budget,
    )
    digest = output_digest(result)
    close = getattr(result.tfidf.matrix, "close", None)
    if close is not None:
        close()
    return result, digest


def _filled(root, docs, budget, kmeans=None) -> None:
    """A store holding a resident and a tiled cold run of ``docs``."""
    cache = PipelineCache(root)
    _run(docs, cache, kmeans=kmeans)
    _run(docs, cache, budget=budget, kmeans=kmeans)


def _target(root: str, name: str) -> str:
    if name == "index.json":
        return os.path.join(root, name)
    (path,) = glob.glob(os.path.join(root, "objects", f"{name}-[0-9a-f]*.pkl"))
    return path


_TARGETS = ["index.json", "tr", "trt"]


@pytest.mark.parametrize("name", _TARGETS)
def test_store_opens_and_serves_the_rest_at_every_offset(tmp_path, name):
    root = str(tmp_path / "cache")
    _filled(root, _TINY, budget=1_000, kmeans=KMeansOperator(2, max_iters=3))
    path = _target(root, name)
    keys = list(CacheStore(root)._index)
    torn_key = None if name == "index.json" else os.path.basename(path)[:-4]
    with open(path, "rb") as handle:
        whole = handle.read()
    objects = {
        key: open(os.path.join(root, "objects", key + ".pkl"), "rb").read()
        for key in keys
    }
    for offset in range(len(whole)):
        with open(path, "wb") as handle:
            handle.write(whole[:offset])
        store = CacheStore(root)
        for key in keys:
            served = store.get(key)
            if key == torn_key:
                assert served is None, offset
                assert key not in store
            else:
                assert served is not None, (key, offset)
        # Put back what the miss deleted, for the next offset.
        for key, blob in objects.items():
            with open(os.path.join(root, "objects", key + ".pkl"), "wb") as fh:
                fh.write(blob)
        with open(path, "wb") as handle:
            handle.write(whole)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(MIX_PROFILE, scale=0.002, seed=11)


@pytest.fixture(scope="module")
def filled(corpus, tmp_path_factory):
    """``(template store dir, uncached digest)``."""
    root = str(tmp_path_factory.mktemp("filled") / "cache")
    _filled(root, corpus, BUDGET)
    return root, _run(corpus)[1]


@pytest.mark.parametrize("name", _TARGETS)
@settings(max_examples=4)
@given(data=st.data())
def test_a_torn_file_costs_a_recompute_and_heals(corpus, filled, name, data):
    template, uncached = filled
    budget = BUDGET if name == "trt" else None
    with tempfile.TemporaryDirectory() as scratch:
        root = os.path.join(scratch, "cache")
        shutil.copytree(template, root)
        path = _target(root, name)
        size = os.path.getsize(path)
        offset = data.draw(st.integers(0, size - 1), label="offset")
        os.truncate(path, offset)

        cache = PipelineCache(CacheStore(root))
        served, digest = _run(corpus, cache, budget=budget)
        assert digest == uncached
        expected = (3, 0) if name == "index.json" else (2, 1)
        assert (served.cache["hits"], served.cache["misses"]) == expected
        healed, digest = _run(corpus, PipelineCache(root), budget=budget)
        assert digest == uncached
        assert healed.cache["hits"] == 3
