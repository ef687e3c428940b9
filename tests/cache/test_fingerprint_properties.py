"""Generated properties of the shard-grain corpus fingerprint.

A shard digest hashes its documents' lengths, names and texts as one
byte stream; the lengths are what make that stream injective. Each
property below edits a drawn corpus in a way a length-free encoding
would miss (or a plain edit) and asserts the shard holding the edit
gets a new digest, while shards before it keep theirs.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.keys import CorpusFingerprint
from repro.text.corpus import Document

# Multi-byte characters keep character and byte lengths apart; lone
# surrogates are excluded because no decoded document can hold one.
_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)


@st.composite
def corpora(draw, min_docs=1):
    """``(docs, shard_docs)``: a small corpus and a shard width that
    usually splits it into several shards."""
    n = draw(st.integers(min_docs, 12))
    docs = [
        Document(doc_id=at, name=draw(_TEXT), text=draw(_TEXT))
        for at in range(n)
    ]
    return docs, draw(st.integers(1, 5))


def _shard_of(fp: CorpusFingerprint, at: int) -> str:
    return fp.shard_digests[at // fp.shard_docs]


def _replaced(docs, at, name=None, text=None):
    edited = list(docs)
    doc = docs[at]
    edited[at] = Document(
        doc_id=doc.doc_id,
        name=doc.name if name is None else name,
        text=doc.text if text is None else text,
    )
    return edited


def _assert_shard_changes(docs, edited, shard_docs, at):
    before = CorpusFingerprint.from_docs(docs, shard_docs=shard_docs)
    after = CorpusFingerprint.from_docs(edited, shard_docs=shard_docs)
    assert _shard_of(before, at) != _shard_of(after, at)
    assert before.corpus_digest != after.corpus_digest
    first = at // shard_docs
    assert before.shard_digests[:first] == after.shard_digests[:first]


class TestShardDigest:
    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.data())
    def test_one_character_edit_changes_the_shard(self, drawn, data):
        docs, shard_docs = drawn
        at = data.draw(st.integers(0, len(docs) - 1))
        text = docs[at].text
        pos = data.draw(st.integers(0, len(text)))
        char = data.draw(st.characters(blacklist_categories=("Cs",)))
        # Replace the character at ``pos`` (or append past the end).
        edited_text = text[:pos] + char + text[pos + 1:]
        assume(edited_text != text)
        _assert_shard_changes(
            docs, _replaced(docs, at, text=edited_text), shard_docs, at
        )

    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.data())
    def test_rename_changes_the_shard(self, drawn, data):
        docs, shard_docs = drawn
        at = data.draw(st.integers(0, len(docs) - 1))
        name = data.draw(_TEXT)
        assume(name != docs[at].name)
        _assert_shard_changes(
            docs, _replaced(docs, at, name=name), shard_docs, at
        )

    @settings(max_examples=100, deadline=None)
    @given(corpora(min_docs=2), st.data())
    def test_text_boundary_moved_between_neighbours(self, drawn, data):
        # The joined texts are unchanged; only the split point moves.
        docs, shard_docs = drawn
        at = data.draw(st.integers(0, len(docs) - 2))
        joined = docs[at].text + docs[at + 1].text
        cut = data.draw(st.integers(0, len(joined)))
        assume(cut != len(docs[at].text))
        edited = _replaced(docs, at, text=joined[:cut])
        edited = _replaced(edited, at + 1, text=joined[cut:])
        _assert_shard_changes(docs, edited, shard_docs, at)

    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.data())
    def test_name_text_boundary_moved(self, drawn, data):
        # ``name + text`` is unchanged; only where the name ends moves.
        docs, shard_docs = drawn
        at = data.draw(st.integers(0, len(docs) - 1))
        joined = docs[at].name + docs[at].text
        cut = data.draw(st.integers(0, len(joined)))
        assume(cut != len(docs[at].name))
        edited = _replaced(docs, at, name=joined[:cut], text=joined[cut:])
        _assert_shard_changes(docs, edited, shard_docs, at)

    @settings(max_examples=100, deadline=None)
    @given(corpora(min_docs=2), st.data())
    def test_tail_edit_keeps_the_earlier_shards(self, drawn, data):
        docs, shard_docs = drawn
        tail = docs[-1].text + data.draw(_TEXT.filter(bool))
        _assert_shard_changes(
            docs, _replaced(docs, len(docs) - 1, text=tail), shard_docs,
            len(docs) - 1,
        )


class TestCorpusDigest:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_TEXT, min_size=1, max_size=40), st.integers(1, 40))
    def test_plain_strings_fingerprint_as_positional_documents(
        self, texts, shard_docs
    ):
        named = [
            Document(doc_id=at, name=f"mem-{at}", text=text)
            for at, text in enumerate(texts)
        ]
        plain = CorpusFingerprint.from_docs(texts, shard_docs=shard_docs)
        docs = CorpusFingerprint.from_docs(named, shard_docs=shard_docs)
        assert plain == docs

    def test_shard_width_is_part_of_the_corpus_digest(self):
        docs = [Document(doc_id=at, name=f"d{at}", text="x") for at in range(4)]
        assert (
            CorpusFingerprint.from_docs(docs, shard_docs=2).corpus_digest
            != CorpusFingerprint.from_docs(docs, shard_docs=4).corpus_digest
        )
