"""Key derivation: content, config and code-version sensitivity."""

from __future__ import annotations

import ast
import importlib.util

import pytest

from repro.cache.keys import (
    _VERSIONED_MODULES,
    DEFAULT_SHARD_DOCS,
    CorpusFingerprint,
    code_version,
    kmeans_config,
    phase_key,
    shard_key,
    tfidf_config,
    wordcount_config,
)
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.text.corpus import Document
from repro.text.tokenizer import Tokenizer


def _doc(at: int, text: str) -> Document:
    return Document(doc_id=at, name=f"doc-{at:06d}", text=text)


class TestCorpusFingerprint:
    def test_deterministic(self):
        docs = [_doc(i, f"text {i}") for i in range(5)]
        a = CorpusFingerprint.from_docs(docs)
        b = CorpusFingerprint.from_docs(docs)
        assert a.corpus_digest == b.corpus_digest
        assert a.shard_digests == b.shard_digests

    def test_text_change_changes_digest(self):
        docs = [_doc(i, f"text {i}") for i in range(5)]
        changed = list(docs)
        changed[2] = _doc(2, "different text")
        assert (
            CorpusFingerprint.from_docs(docs).corpus_digest
            != CorpusFingerprint.from_docs(changed).corpus_digest
        )

    def test_name_change_changes_digest(self):
        docs = [_doc(i, "same text") for i in range(3)]
        renamed = list(docs)
        renamed[0] = Document(doc_id=0, name="other-name", text="same text")
        assert (
            CorpusFingerprint.from_docs(docs).corpus_digest
            != CorpusFingerprint.from_docs(renamed).corpus_digest
        )

    def test_order_is_part_of_the_key(self):
        docs = [_doc(i, f"text {i}") for i in range(4)]
        assert (
            CorpusFingerprint.from_docs(docs).corpus_digest
            != CorpusFingerprint.from_docs(list(reversed(docs))).corpus_digest
        )

    def test_plain_strings_key_on_position(self):
        fp = CorpusFingerprint.from_docs(["alpha", "beta"])
        swapped = CorpusFingerprint.from_docs(["beta", "alpha"])
        assert fp.corpus_digest != swapped.corpus_digest

    def test_shards_cover_the_corpus_contiguously(self):
        docs = [_doc(i, f"t{i}") for i in range(2 * DEFAULT_SHARD_DOCS + 5)]
        fp = CorpusFingerprint.from_docs(docs)
        assert fp.shards[0] == (0, DEFAULT_SHARD_DOCS)
        assert fp.shards[-1][1] == len(docs)
        covered = [
            at for start, stop in fp.shards for at in range(start, stop)
        ]
        assert covered == list(range(len(docs)))
        assert len(fp.shard_digests) == len(fp.shards)

    def test_tail_edit_preserves_earlier_shard_digests(self):
        docs = [_doc(i, f"t{i}") for i in range(2 * DEFAULT_SHARD_DOCS)]
        edited = list(docs)
        edited[-1] = _doc(len(docs) - 1, "edited tail")
        a = CorpusFingerprint.from_docs(docs)
        b = CorpusFingerprint.from_docs(edited)
        assert a.shard_digests[0] == b.shard_digests[0]
        assert a.shard_digests[1] != b.shard_digests[1]

    def test_append_adds_shards_without_touching_old_ones(self):
        docs = [_doc(i, f"t{i}") for i in range(2 * DEFAULT_SHARD_DOCS)]
        extended = docs + [_doc(len(docs) + i, f"new{i}") for i in range(3)]
        a = CorpusFingerprint.from_docs(docs)
        b = CorpusFingerprint.from_docs(extended)
        assert b.shard_digests[:2] == a.shard_digests
        assert len(b.shard_digests) == 3


class TestConfigKeys:
    def test_semantic_knob_changes_key(self):
        fp = CorpusFingerprint.from_docs(["a b c"])
        plain = tfidf_config(TfIdfOperator())
        filtered = tfidf_config(TfIdfOperator(min_df=2))
        assert phase_key("tr", plain, fp.corpus_digest) != phase_key(
            "tr", filtered, fp.corpus_digest
        )

    def test_tokenizer_knobs_participate(self):
        with_stop = wordcount_config(
            TfIdfOperator(tokenizer=Tokenizer(drop_stopwords=True))
        )
        without = wordcount_config(TfIdfOperator())
        assert with_stop != without

    def test_dict_kind_is_deliberately_excluded(self):
        # The equivalence suite proves dictionary implementations never
        # change output bytes, so they must not fragment the cache.
        assert wordcount_config(
            TfIdfOperator(wc_dict_kind="map")
        ) == wordcount_config(TfIdfOperator(wc_dict_kind="unordered_map"))

    def test_kmeans_seed_and_clusters_participate(self):
        base = kmeans_config(KMeansOperator())
        assert kmeans_config(KMeansOperator(seed=1)) != base
        assert kmeans_config(KMeansOperator(n_clusters=3)) != base

    def test_code_version_stable_within_process(self):
        assert code_version() == code_version()

    def test_every_data_plane_module_the_operators_import_is_versioned(self):
        # An edit to a helper the kernels lean on (the folding table, the
        # stop list, a block routine) changes output bytes; if its module
        # is not in the code version a warm store serves the old ones.
        reached = _repro_import_closure(
            f"repro.ops.{name}"
            for name in ("kernels", "wordcount", "tfidf", "kmeans")
        )
        data_plane = {
            name for name in reached
            if name.startswith(("repro.text.", "repro.sparse.", "repro.tiles."))
        }
        assert {"repro.text.normalize", "repro.text.stopwords"} <= data_plane
        assert data_plane <= set(_VERSIONED_MODULES), sorted(
            data_plane - set(_VERSIONED_MODULES)
        )

    def test_phase_and_shard_keys_are_filename_safe(self):
        fp = CorpusFingerprint.from_docs(["a", "b"])
        cfg = wordcount_config(TfIdfOperator())
        for key in (
            phase_key("wc", cfg, fp.corpus_digest),
            shard_key("wc", cfg, fp.shard_digests[0]),
        ):
            assert "/" not in key and not key.startswith(".")

    def test_shard_extra_context_participates(self):
        fp = CorpusFingerprint.from_docs(["a"])
        cfg = tfidf_config(TfIdfOperator())
        assert shard_key("tr", cfg, fp.shard_digests[0], extra="x") != shard_key(
            "tr", cfg, fp.shard_digests[0], extra="y"
        )


def _repro_imports(module_name: str) -> set[str]:
    """Modules of this package that ``module_name``'s source imports by
    name, at module level or inside a function (packages excluded: a
    package ``__init__`` only re-exports)."""
    spec = importlib.util.find_spec(module_name)
    with open(spec.origin, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    named: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{module_name}: relative import"
            named.add(node.module)
            # ``from repro.tiles import format`` names a submodule.
            named.update(f"{node.module}.{alias.name}" for alias in node.names)
    found: set[str] = set()
    for name in named:
        if not name.startswith("repro."):
            continue
        try:
            spec = importlib.util.find_spec(name)
        except ModuleNotFoundError:  # ``module.attribute``, not a module
            continue
        if spec is not None and spec.submodule_search_locations is None:
            found.add(name)
    return found


def _repro_import_closure(roots) -> set[str]:
    reached: set[str] = set()
    frontier = list(roots)
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(_repro_imports(name))
    return reached
