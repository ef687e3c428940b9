"""Columnar word-count → transform: blocks instead of per-document lists.

A real run counts each chunk into one :class:`TermBlock`, merges the
chunks into one block for the corpus, and scores row ranges of it with a
vectorised kernel. These tests pin that path byte for byte to the
simulator's ``count_document``/``transform_document`` dictionary
reference (``repro.sim.operators`` on one core), check the block algebra the
cache, the tile plane and quarantine bisection lean on, and hold the
outputs of every execution mode — and of the reference — to digests
recorded from the commit before the blocks landed.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import RealRunResult, output_digest, run_pipeline
from repro.errors import OperatorError
from repro.exec.process import make_backend
from repro.exec.resilience import bisect_chunk
from repro.exec.shm import shm_available
from repro.io import MemStorage, store_corpus
from repro.ops import kernels
from repro.ops.kmeans import KMeansOperator
from repro.ops.tfidf import TfIdfOperator
from repro.plan import CalibrationStore, PhasePlan, RealPlan
from repro.sim import MachineSpec, SimConfig, SimScheduler
from repro.sim.operators import run_kmeans, run_tfidf, run_wordcount
from repro.sparse.blocks import TermBlock
from repro.text.synth import MIX_PROFILE, NSF_ABSTRACTS_PROFILE, generate_corpus
from repro.text.tokenizer import Tokenizer


#: The committed CI calibration store, so planned runs here are
#: deterministic (no probe).
CI_CALIBRATION = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "calibration_ci.json"
)


class _SplitTokenizer(Tokenizer):
    """Whitespace split without folding, so non-ASCII terms survive; the
    filter (``keeps``: length bounds, stop words) still applies."""

    def split(self, text: str) -> list[str]:
        return text.split()


#: A small vocabulary so documents share terms (min_df has something to
#: prune and something to keep): ASCII, non-ASCII, stop words, one over
#: the default ``max_length``.
WORDS = [
    "a", "b", "the", "of", "cat", "dog", "zz", "élan", "naïve", "日本", "ß",
    "x" * 70,
]

documents = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
    max_size=14,
)

#: Either tokenizer under every filter setting: the kernel asks
#: ``keeps`` once per distinct term of a chunk, the reference once per
#: token. ``max_length`` below and above the longest word; a
#: ``min_length`` above it keeps nothing at all.
tokenizers = st.builds(
    lambda kind, **options: kind(**options),
    st.sampled_from([Tokenizer, _SplitTokenizer]),
    drop_stopwords=st.booleans(),
    min_length=st.integers(1, 3),
    max_length=st.sampled_from([2, 5, 64, 80]),
)


def _rows(result):
    return [(row.indices, row.values) for row in result.matrix.iter_rows()]


def _one_core() -> SimScheduler:
    return SimScheduler(MachineSpec(cores=1, name="reference"))


def _stored(texts) -> MemStorage:
    """``texts`` under zero-padded names, so name order is input order."""
    storage = MemStorage()
    for at, text in enumerate(texts):
        storage.write(f"in/{at:05d}", text)
    return storage


def simulated_wordcount(step, texts, config=SimConfig()):
    """The dictionary reference of a word count: ``run_wordcount`` on one
    simulated core over ``texts``."""
    storage = _stored(texts)
    wc, _ = run_wordcount(
        step, _one_core(), storage, list(storage.list("in/")), workers=1,
        config=config,
    )
    return wc


def simulated_tfidf(operator, texts, config=SimConfig()):
    """The dictionary reference of the TF/IDF operator, likewise."""
    return run_tfidf(
        operator, _one_core(), _stored(texts), "in/", workers=1, config=config
    )


def row_dicts(wc) -> list[dict[str, int]]:
    """Per-document counts of a word count, real or simulated."""
    if wc.block is None:
        return [tf.to_dict() for tf in wc.doc_tfs]
    return [dict(wc.block.row_items(row)) for row in range(len(wc.block))]


def df_dict(wc) -> dict[str, int]:
    """Document frequencies of a word count, real or simulated."""
    if wc.block is None:
        return wc.df.to_dict()
    return dict(zip(wc.block.terms, wc.block.df_counts.tolist()))


class TestByteEqualityWithInline:
    @settings(max_examples=120, deadline=None)
    @given(texts=documents, grain=st.integers(1, 6), tokenizer=tokenizers)
    def test_count_matches_count_document(self, texts, grain, tokenizer):
        step = TfIdfOperator(tokenizer=tokenizer).wordcount
        reference = simulated_wordcount(step, texts)
        backend = make_backend("sequential", 1)
        ours = step.run(texts, backend=backend, grain=grain)
        assert row_dicts(ours) == row_dicts(reference)
        assert df_dict(ours) == df_dict(reference)
        assert ours.doc_token_counts == reference.doc_token_counts
        assert ours.total_tokens == reference.total_tokens
        block = ours.block
        assert block.terms == sorted(df_dict(reference))
        for row in range(len(block)):
            ids = block.ids[block.indptr[row]:block.indptr[row + 1]]
            assert (np.diff(ids.astype(np.int64)) > 0).all()

    @settings(max_examples=120, deadline=None)
    @given(
        texts=documents,
        wc_grain=st.integers(1, 6),
        tr_grain=st.integers(1, 6),
        min_df=st.integers(1, 3),
        tokenizer=tokenizers,
    )
    def test_transform_matches_transform_document(
        self, texts, wc_grain, tr_grain, min_df, tokenizer
    ):
        # Covers empty documents, chunks of only-empty documents,
        # single-term rows, rows pruned to empty by min_df or emptied by
        # the tokenizer's filter, non-ASCII terms and tokens over
        # max_length — whatever Hypothesis draws.
        operator = TfIdfOperator(tokenizer=tokenizer, min_df=min_df)
        backend = make_backend("sequential", 1)
        wc = operator.wordcount.run(texts, backend=backend, grain=wc_grain)
        ours = operator.transform_wordcount(wc, backend=backend, grain=tr_grain)
        if not texts:
            # The reference refuses an empty corpus; the real path
            # returns an empty result.
            with pytest.raises(OperatorError, match="no input documents"):
                simulated_tfidf(operator, texts)
            assert (ours.vocabulary, ours.idf, _rows(ours)) == ([], [], [])
            return
        reference = simulated_tfidf(operator, texts)
        assert ours.vocabulary == reference.vocabulary
        assert ours.idf == reference.idf
        assert _rows(ours) == _rows(reference)

    def test_no_documents_at_all(self):
        kernels.init_wordcount_worker(Tokenizer())
        block = kernels.count_chunk([])
        assert (len(block), block.terms, len(block.ids)) == (0, [], 0)
        empty = np.empty(0)
        indptr, indices, data = kernels.transform_chunk(
            block.bound(empty.astype(np.int32), empty)
        )
        assert indptr.tolist() == [0] and len(indices) == len(data) == 0

    def test_filter_is_applied_per_term_and_masks_every_occurrence(self):
        tokenizer = Tokenizer(drop_stopwords=True, min_length=2, max_length=5)
        kernels.init_wordcount_worker(tokenizer)
        texts = ["The a of, the!", "cat the Cat elephants zz", "", "x"]
        block = kernels.count_chunk(texts)
        # Document 0 loses every token: an empty row, zero tokens counted.
        assert block.token_counts.tolist() == [0, 3, 0, 0]
        assert block.indptr.tolist() == [0, 0, 2, 2, 2]
        assert block.terms == ["cat", "zz"]  # first-seen order, kept only
        assert (block.ids.tolist(), block.counts.tolist()) == ([0, 1], [2, 1])
        step = TfIdfOperator(tokenizer=tokenizer).wordcount
        reference = simulated_wordcount(step, texts)
        assert block.token_counts.tolist() == reference.doc_token_counts
        # One document, and the same document in a chunk of its own.
        alone = kernels.count_chunk(texts[1:2])
        assert _same_block(alone, block[1:2])

    def test_chunk_blocks_list_terms_as_first_seen(self):
        kernels.init_wordcount_worker(Tokenizer())
        block = kernels.count_chunk(["pear fig", "apple fig pear pear"])
        assert block.terms == ["pear", "fig", "apple"]
        assert [block.row_items(row) for row in range(2)] == [
            [("pear", 1), ("fig", 1)],
            [("pear", 2), ("fig", 1), ("apple", 1)],
        ]
        merged = TermBlock.concat([block])
        assert merged.terms == ["apple", "fig", "pear"]
        assert [merged.row_items(row) for row in range(2)] == [
            [("fig", 1), ("pear", 1)],
            [("apple", 1), ("fig", 1), ("pear", 2)],
        ]

    def test_term_kept_in_one_chunk_and_absent_from_the_next(self):
        step = TfIdfOperator().wordcount
        texts = ["zebra cat", "cat", "cat zebra zebra"]
        wc = step.run(texts, backend=make_backend("sequential", 1), grain=1)
        assert wc.block.terms == ["cat", "zebra"]
        assert row_dicts(wc) == [
            {"zebra": 1, "cat": 1}, {"cat": 1}, {"cat": 1, "zebra": 2},
        ]
        assert df_dict(wc) == {"cat": 3, "zebra": 2}

    def test_zero_norm_rows_are_left_alone(self):
        # A term in every document has idf 0: its rows score all-zero
        # and must come back as they are, not as NaN.
        operator = TfIdfOperator()
        backend = make_backend("sequential", 1)
        ours = operator.fit_transform(["same same", "same"], backend=backend)
        reference = simulated_tfidf(operator, ["same same", "same"])
        assert _rows(ours) == _rows(reference)
        assert _rows(ours) == [([0], [0.0]), ([0], [0.0])]

    def test_term_missing_from_vocabulary_is_named(self):
        # The block is the one source of truth of a backend result, so a
        # vocabulary short of a term can only be handed to ``bind`` from
        # outside the pipeline — and is refused.
        operator = TfIdfOperator()
        backend = make_backend("sequential", 1)
        wc = operator.wordcount.run(["cat dog", "dog emu"], backend=backend)
        vocabulary, idf = operator.build_vocabulary(wc)
        assert vocabulary == ["cat", "dog", "emu"]
        with pytest.raises(OperatorError, match="'emu' missing from vocabulary"):
            operator.bind(wc, vocabulary[:2], idf[:2])
        pruning = TfIdfOperator(min_df=2)
        bound = pruning.bind(wc, *pruning.build_vocabulary(wc))
        assert bound.gmap.tolist() == [-1, 0, -1]

    def test_real_result_df_is_block_columns(self):
        step = TfIdfOperator().wordcount
        wc = step.run(["cat dog", "dog emu"], backend=make_backend("sequential", 1))
        assert not hasattr(wc, "df") and not hasattr(wc, "doc_tfs")
        assert wc.block.n_terms == 3
        assert df_dict(wc) == {"cat": 1, "dog": 2, "emu": 1}

    def test_real_result_rows_are_block_rows(self):
        step = TfIdfOperator().wordcount
        wc = step.run(["b a a", "", "c"], backend=make_backend("sequential", 1))
        assert wc.n_docs == len(wc.block) == 3
        assert wc.block.row_items(0) == [("a", 2), ("b", 1)]
        assert row_dicts(wc) == [{"a": 2, "b": 1}, {}, {"c": 1}]
        assert [wc.block.row_items(row) for row in (1, 2)] == [[], [("c", 1)]]


# -- block algebra -------------------------------------------------------------------

term_counts = st.lists(
    st.dictionaries(st.sampled_from(WORDS), st.integers(1, 300), max_size=6),
    max_size=10,
)


def _count(tokens) -> dict[str, int]:
    tf: dict[str, int] = {}
    for token in tokens:
        tf[token] = tf.get(token, 0) + 1
    return tf


def _same_block(a: TermBlock, b: TermBlock) -> bool:
    return (
        a.terms == b.terms
        and a.indptr.tolist() == b.indptr.tolist()
        and a.ids.tolist() == b.ids.tolist()
        and a.counts.tolist() == b.counts.tolist()
        and a.token_counts.tolist() == b.token_counts.tolist()
    )


class TestSliceConcatLaws:
    @settings(max_examples=80, deadline=None)
    @given(tfs=term_counts, data=st.data())
    def test_concat_of_a_split_is_the_block(self, tfs, data):
        block = TermBlock.from_counts(tfs, [sum(tf.values()) for tf in tfs])
        k = data.draw(st.integers(0, len(tfs)))
        assert _same_block(TermBlock.concat([block[:k], block[k:]]), block)
        assert _same_block(TermBlock.concat([block]), block)

    @settings(max_examples=120, deadline=None)
    @given(texts=documents, tokenizer=tokenizers, data=st.data())
    def test_concat_laws_hold_for_chunk_blocks(self, texts, tokenizer, data):
        # Chunk blocks as the kernel emits them (first-seen term order),
        # alone and mixed with term-sorted ones: however the documents
        # are cut, concat yields the one term-sorted corpus block.
        kernels.init_wordcount_worker(tokenizer)
        tfs = [_count(tokenizer.tokens(text)) for text in texts]
        whole = TermBlock.from_counts(tfs, [sum(tf.values()) for tf in tfs])
        i = data.draw(st.integers(0, len(texts)))
        j = data.draw(st.integers(i, len(texts)))
        a, b, c = (
            kernels.count_chunk(part)
            for part in (texts[:i], texts[i:j], texts[j:])
        )
        for block in (a, b, c):
            assert len(set(block.terms)) == len(block.terms)
            assert all(map(tokenizer.keeps, block.terms))
            for row in range(len(block)):
                ids = block.ids[block.indptr[row]:block.indptr[row + 1]]
                assert (np.diff(ids.astype(np.int64)) > 0).all()
        assert _same_block(TermBlock.concat([a, b, c]), whole)
        assert _same_block(
            TermBlock.concat([TermBlock.concat([a, b]), c]), whole
        )
        assert _same_block(
            TermBlock.concat([a, TermBlock.concat([b, c])]), whole
        )
        assert _same_block(
            TermBlock.concat([kernels.count_chunk(texts)]), whole
        )
        # Many small blocks, as quarantine bisection produces them.
        assert _same_block(
            TermBlock.concat(kernels.count_chunk([text]) for text in texts),
            whole,
        )

    @settings(max_examples=80, deadline=None)
    @given(tfs=term_counts, data=st.data())
    def test_slice_is_a_recount(self, tfs, data):
        block = TermBlock.from_counts(tfs, [0] * len(tfs))
        a = data.draw(st.integers(0, len(tfs)))
        b = data.draw(st.integers(a, len(tfs)))
        piece = block[a:b]
        assert _same_block(piece, TermBlock.from_counts(tfs[a:b], [0] * (b - a)))
        recount: dict[str, int] = {}
        for tf in tfs[a:b]:
            for term in tf:
                recount[term] = recount.get(term, 0) + 1
        assert dict(zip(piece.terms, piece.df_counts.tolist())) == recount
        assert [dict(piece.row_items(i)) for i in range(len(piece))] == tfs[a:b]

    @settings(max_examples=60, deadline=None)
    @given(tfs=term_counts, data=st.data())
    def test_bound_columns_follow_a_slice(self, tfs, data):
        block = TermBlock.from_counts(tfs, [0] * len(tfs))
        n_terms = len(block.terms)
        pruned = data.draw(st.sets(st.integers(0, max(0, n_terms - 1))))
        keep = np.array([at not in pruned for at in range(n_terms)], dtype=bool)
        gmap = np.where(keep, np.cumsum(keep) - 1, -1).astype(np.int32)
        weights = np.where(keep, 0.25 + np.arange(n_terms), 0.0)
        bound = block.bound(gmap, weights)
        a = data.draw(st.integers(0, len(tfs)))
        b = data.draw(st.integers(a, len(tfs)))
        indptr, indices, values = kernels.transform_chunk(bound)
        p_indptr, p_indices, p_values = kernels.transform_chunk(bound[a:b])
        lo, hi = indptr[a], indptr[b]
        assert p_indptr.tolist() == (indptr[a:b + 1] - lo).tolist()
        assert p_indices.tolist() == indices[lo:hi].tolist()
        assert p_values.tolist() == values[lo:hi].tolist()

    def test_narrow_dtypes_widen_when_needed(self):
        wide = {f"t{at:05d}": 1 for at in range(300)}
        block = TermBlock.from_counts([wide, {"t00000": 70000}], [300, 70000])
        assert block.ids.dtype == np.uint16 and block.counts.dtype == np.uint32
        small = block[:1]
        assert small.counts.dtype == np.uint32  # counts keep their width
        assert TermBlock.concat([small, block[1:]]).counts.tolist() == (
            block.counts.tolist()
        )

    def test_bisection_cuts_inside_a_block(self):
        # What quarantine mode does with a poisoned transform task: the
        # block is split by document until the bad one stands alone.
        tfs = [{"a": 1}, {"b": 2}, {"poison": 1}, {"a": 3}, {"c": 1}]
        block = TermBlock.from_counts(tfs, [0] * len(tfs))

        def run_chunk(chunk):
            for item in chunk:
                if "poison" in item.terms:
                    raise ValueError("poisoned")
            return [dict(item.row_items(i)) for item in chunk
                    for i in range(len(item))]

        quarantined = []
        survivors = bisect_chunk(
            [block], run_chunk,
            lambda index, start, units, exc: quarantined.append(
                (index, start, units)
            ),
            item_index=7, bisect_items=True,
        )
        assert quarantined == [(7, 2, 1)]
        assert survivors == [{"a": 1}, {"b": 2}, {"a": 3}, {"c": 1}]


# -- byte kernel = string kernel ---------------------------------------------------


class _StringKernel(Tokenizer):
    """Splits exactly as the base tokenizer, but overrides ``split``: the
    oracle that forces ``count_chunk`` onto its string kernel."""

    def split(self, text: str) -> list[str]:
        return super().split(text)


class _AskedKeeps(Tokenizer):
    """The base split with an overridden ``keeps``: the byte kernel asks
    it once per distinct term instead of filtering on arrays."""

    def keeps(self, term: str) -> bool:
        return super().keeps(term)


#: Fragments laid end to end, so words merge across them: apostrophes
#: leading, trailing, doubled and alone; 2-, 3- and 4-byte UTF-8 and lone
#: surrogates; CRLF, tabs and control bytes; stop words (one only after
#: its apostrophe goes, one of exactly 8 bytes, two longer); an 8-byte
#: word that is the packed prefix of two longer ones.
FRAGMENTS = [
    "'", "''", "'tis", "ours'", "do''nt", "don't", "\r\n", "\t", " ", "\x00",
    "\x07", "\x7f", "-", ".", "é", "ß", "日本", "😀", "\ud800", "\udfff",
    "The", "of", "yourself", "ourselves", "THEMSELVES", "Cat", "cat",
    "overflow", "overflowed", "overflowing",
]

#: Words of 1, 2, 7, 8, 9, 16, 17 bytes and longer than every
#: ``max_length`` drawn (keys are exact up to 8; longer terms are tails).
sized_words = st.sampled_from([1, 2, 7, 8, 9, 16, 17, 81]).flatmap(
    lambda size: st.text(alphabet="abyzAZ09", min_size=size, max_size=size)
)

byte_corpora = st.lists(
    st.lists(
        st.one_of(st.sampled_from(FRAGMENTS), sized_words), max_size=14
    ).map("".join),
    max_size=8,
)

filters = st.fixed_dictionaries({
    "drop_stopwords": st.booleans(),
    "min_length": st.integers(1, 9),
    "max_length": st.sampled_from([5, 8, 9, 64, 80]),
})


def _chunk(tokenizer, texts) -> TermBlock:
    slot = kernels.wordcount_slot()
    kernels.init_wordcount_worker(tokenizer, slot)
    try:
        return kernels.count_chunk(texts, slot)
    finally:
        kernels.release_wordcount_worker(slot)


class TestByteKernelIsTheStringKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        texts=byte_corpora, options=filters,
        kind=st.sampled_from([Tokenizer, _AskedKeeps]), data=st.data(),
    )
    def test_blocks_are_identical(self, texts, options, kind, data):
        ours, oracle = kind(**options), _StringKernel(**options)
        by_bytes, by_strings = _chunk(ours, texts), _chunk(oracle, texts)
        assert by_bytes.packed is not None and by_strings.packed is None
        assert _same_block(by_bytes, by_strings)
        assert _same_block(
            TermBlock.concat([by_bytes]), TermBlock.concat([by_strings])
        )
        # Cut anywhere: numeric merge, string merge and a mix of both.
        cut = data.draw(st.integers(0, len(texts)))
        head, tail = texts[:cut], texts[cut:]
        whole = TermBlock.concat([by_strings])
        assert _same_block(
            TermBlock.concat([_chunk(ours, head), _chunk(ours, tail)]), whole
        )
        assert _same_block(
            TermBlock.concat([_chunk(oracle, head), _chunk(ours, tail)]), whole
        )

    def test_long_terms_splice_in_after_their_prefix(self):
        # An 8-byte term is a packed key equal to its longer neighbours'
        # prefix; the merge must order it first, then them as strings.
        texts = ["overflowing Overflow", "overflowed overflox", "overflov"]
        chunks = [_chunk(Tokenizer(), [text]) for text in texts]
        merged = TermBlock.concat(chunks)
        assert merged.terms == [
            "overflov", "overflow", "overflowed", "overflowing", "overflox",
        ]
        assert _same_block(
            merged, TermBlock.concat([_chunk(_StringKernel(), texts)])
        )

    def test_a_chunk_block_pickles_its_keys_not_its_strings(self):
        texts = ["Pear fig'S apple", "extraordinarily long words, pear"]
        block = _chunk(Tokenizer(), texts)
        before = pickle.dumps(block)
        assert block.terms == [
            "pear", "figs", "apple", "extraordinarily", "long", "words",
        ]
        assert pickle.dumps(block) == before
        again = pickle.loads(before)
        assert again.packed is not None and _same_block(again, block)


# -- whole pipeline: IPC bill, parent digests -----------------------------------------


def _operators():
    return TfIdfOperator(), KMeansOperator(max_iters=5)


def _fixed(corpus, name, workers, shm=None, **options):
    backend = make_backend(name, workers, shm=shm) if name else None
    tfidf, kmeans = _operators()
    try:
        return run_pipeline(
            corpus, backend=backend, tfidf=tfidf, kmeans=kmeans, **options
        )
    finally:
        if backend is not None:
            backend.close()


def _mixed_tier_plan(n_docs: int, memory_budget: int | None = None) -> RealPlan:
    """A verbatim plan that changes backend at every phase boundary: wc
    on processes-2 → transform on threads-2 → kmeans sequential. Tiled
    when given a budget (a verbatim plan is executed as written, so the
    budget has to be written into it)."""
    tiled = memory_budget is not None
    return RealPlan(
        phases={
            "input+wc": PhasePlan("input+wc", "processes", 2, False),
            "transform": PhasePlan("transform", "threads", 2, tiled=tiled),
            "kmeans": PhasePlan("kmeans", "sequential", tiled=tiled),
        },
        calibration="test",
        n_docs=n_docs,
        memory_budget=memory_budget,
    )


def _mixed_tier(corpus):
    tfidf, kmeans = _operators()
    return run_pipeline(
        corpus, plan=_mixed_tier_plan(len(corpus)), tfidf=tfidf, kmeans=kmeans
    )


def _auto_cached(corpus, cache):
    tfidf, kmeans = _operators()
    return run_pipeline(
        corpus, plan="auto", calibration=CalibrationStore.load(CI_CALIBRATION),
        tfidf=tfidf, kmeans=kmeans, cache=cache, observe=False,
    )


def _digest(result) -> str:
    """Rows, assignments and centroid bytes, plus vocabulary and idf."""
    h = hashlib.sha256(output_digest(result).encode())
    h.update("\0".join(result.tfidf.vocabulary).encode())
    h.update(struct.pack(f"<{len(result.tfidf.idf)}d", *result.tfidf.idf))
    close = getattr(result.tfidf.matrix, "close", None)
    if close is not None:
        close()
    return h.hexdigest()


@pytest.fixture(scope="module")
def mix():
    return generate_corpus(MIX_PROFILE, scale=0.01, seed=7)


@pytest.fixture(scope="module")
def nsf():
    return generate_corpus(NSF_ABSTRACTS_PROFILE, scale=0.005, seed=7)


#: Recorded at the parent commit (0aaf07e) by running exactly the
#: configurations of ``TestParentDigests`` there: every backend mode
#: hashed to the first value, the backend-free path of that time — the
#: one-core simulator reference, whose k-means groups its accumulation
#: differently — to the second.
PARENT_DIGESTS = {
    "mix": (
        "f771de021176d7d4b7719b5e8b91aa8704f8bd1f5731757d2f71ea5ad8109a37",
        "f8834d28f3ba7f4a19c1b96f011311f669ca6d531437d2a9b579759dbb1d635b",
    ),
    "nsf": (
        "623cb805e0561acf09e3723d9d9815982b46a3a7c4df5e131c0392eb3da81e0a",
        "b949cd1485cf755f9b7b5168cd4a1afcffe8ff7becf422bdd63d8529619132bb",
    ),
}

#: Transform-phase / word-count-phase IPC of ``processes-2`` on Mix@0.01
#: at the parent commit, bytes: ``task_pickle_bytes``, ``result_pickle_bytes``.
PARENT_TRANSFORM_IPC = (973_558, 1_005_207)
PARENT_WORDCOUNT_IPC = (673_432, 1_415_005)


class TestParentDigests:
    @pytest.mark.parametrize("name", ["mix", "nsf"])
    def test_every_mode_reproduces_the_parent_bytes(
        self, name, mix, nsf, tmp_path
    ):
        corpus = {"mix": mix, "nsf": nsf}[name]
        backend_digest = PARENT_DIGESTS[name][0]
        modes = {
            "no backend": lambda: _fixed(corpus, None, 1),
            "sequential": lambda: _fixed(corpus, "sequential", 1),
            "threads": lambda: _fixed(corpus, "threads", 2),
            "processes pickled": lambda: _fixed(corpus, "processes", 2, shm=False),
            "mixed-tier plan": lambda: _mixed_tier(corpus),
            "tiled": lambda: _fixed(
                corpus, "sequential", 1, memory_budget=64 * 1024
            ),
        }
        if shm_available():
            modes["processes shm"] = lambda: _fixed(
                corpus, "processes", 2, shm=True
            )
        for mode, run in modes.items():
            assert _digest(run()) == backend_digest, mode
        cache = str(tmp_path / "cache")
        _fixed(corpus, "sequential", 1, cache=cache)
        warm = _fixed(corpus, "sequential", 1, cache=cache)
        assert warm.cache["hits"] == 3 and warm.cache["misses"] == 0
        assert _digest(warm) == backend_digest, "cached warm"
        planned_cache = str(tmp_path / "planned-cache")
        assert _digest(_auto_cached(corpus, planned_cache)) == backend_digest
        served = _auto_cached(corpus, planned_cache)
        assert served.cache["hits"] == 3 and served.cache["misses"] == 0
        assert _digest(served) == backend_digest, "auto plan, cached warm"


class TestSimulatorReference:
    @pytest.mark.parametrize("name", ["mix", "nsf"])
    def test_one_core_reference_reproduces_the_parent_bytes(
        self, name, mix, nsf
    ):
        # The dictionary loops the backend-free path ran at the parent,
        # called by their name: one core, the corpus from memory.
        corpus = {"mix": mix, "nsf": nsf}[name]
        storage = MemStorage()
        store_corpus(storage, corpus)
        tfidf, kmeans = _operators()
        scores = run_tfidf(tfidf, _one_core(), storage, "", workers=1)
        clusters = run_kmeans(kmeans, _one_core(), scores.matrix, workers=1)
        reference = RealRunResult(tfidf=scores, kmeans=clusters)
        assert _digest(reference) == PARENT_DIGESTS[name][1]


class TestIpcBill:
    def test_processes_2_bytes_against_the_parent_commit(self, mix):
        """Measured on this change: word count 673,432 + 636,403 (result
        pickles 45 % of the parent's), transform 861,190 + 1,007,709
        (94 % of the parent's 1,978,765). The issue asked for the
        transform total under 50 %; a float64 score and an int32 column
        id per non-zero are 12 bytes either way, so the result side
        cannot shrink and the target is not met — see CHANGES.md."""
        result = _fixed(mix, "processes", 2, shm=False)
        phases = result.ipc["phases"]
        transform = (
            phases["transform"]["task_pickle_bytes"]
            + phases["transform"]["result_pickle_bytes"]
        )
        wordcount = (
            phases["input+wc"]["task_pickle_bytes"]
            + phases["input+wc"]["result_pickle_bytes"]
        )
        assert transform < sum(PARENT_TRANSFORM_IPC)
        assert phases["input+wc"]["result_pickle_bytes"] < (
            PARENT_WORDCOUNT_IPC[1] // 2
        )
        assert transform + wordcount < 0.8 * (
            sum(PARENT_TRANSFORM_IPC) + sum(PARENT_WORDCOUNT_IPC)
        )
