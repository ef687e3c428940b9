"""Synthetic corpus generation matched to the paper's data sets.

The paper evaluates on two corpora (Table 1):

=============  =========  ========  ==============
Input          Documents  Bytes     Distinct words
=============  =========  ========  ==============
Mix            23 432     62.8 MB   184 743
NSF Abstracts  101 483    310.9 MB  267 914
=============  =========  ========  ==============

Neither corpus is redistributable, so this module generates statistical
stand-ins: documents of Zipf-distributed pseudo-words whose vocabulary
grows by Heaps' law, calibrated so that a full-scale generation matches the
Table 1 row. The experiments only depend on those aggregate statistics —
document count (loop trip counts), tokens and bytes per document (CPU and
I/O work) and vocabulary size (dictionary sizes) — not on what the words
mean.

Every document is generated independently and deterministically from
``(seed, profile, doc index)``, so corpora are reproducible at any scale
and generation order is irrelevant.

Off by default, a profile can also carry *latent topics*
(:func:`with_topics`): each document draws one of ``n_topics``, part of
its recurring tokens move onto that topic's words, and some repeat a
topical word the document already used (a burst). The corpus statistics
stay close to the profile's, but documents now share topic words, so a
clustering has structure to find.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.text.corpus import Corpus

__all__ = [
    "CorpusProfile",
    "MIX_PROFILE",
    "NSF_ABSTRACTS_PROFILE",
    "generate_corpus",
    "generate_document_text",
    "synth_word",
    "heaps_vocabulary",
    "with_topics",
]

# -- deterministic word table -----------------------------------------------------

_RAW_COMMON_WORDS = (
    "the of and to in is for that with are on as by this be from at an it "
    "or was which data can has have not will each between used using these "
    "we all its also may than such into other more research study results "
    "new two one system model analysis based high information time process "
    "different systems develop provide under work over method project first "
    "where both through during program development important number use "
    "studies university science found effects large problem theory methods "
    "general group processes role applications design field order techniques "
    "specific structure function approach properties present level provide "
    "chemical materials energy surface species cell cells molecular students "
    "support national award grant investigate understanding determine related "
    "include particular experiments measurements models dynamics control "
    "performance behavior response activity production growth temperature "
    "conditions interactions mechanisms environmental physical experimental "
    "computer software algorithms network networks parallel distributed "
    "memory processor database query queries storage cluster workload"
).split()

_SYLLABLE_CONSONANTS = "bcdfghjklmnprstvwz"
_SYLLABLE_VOWELS = "aeiou"
_SYLLABLE_BASE = len(_SYLLABLE_CONSONANTS) * len(_SYLLABLE_VOWELS)  # 90


def _is_syllabic(word: str) -> bool:
    """True when ``word`` is a sequence of consonant+vowel syllables.

    Such words could collide with generated pseudo-words, so they are
    filtered out of the common-word table to keep rank→word injective.
    """
    if len(word) % 2 or not word:
        return False
    return all(
        word[i] in _SYLLABLE_CONSONANTS and word[i + 1] in _SYLLABLE_VOWELS
        for i in range(0, len(word), 2)
    )


# Deduplicate (the raw table is hand-written) and drop syllabic-shaped words.
_COMMON_WORDS = tuple(
    dict.fromkeys(word for word in _RAW_COMMON_WORDS if not _is_syllabic(word))
)


@functools.cache
def synth_word(rank: int) -> str:
    """Deterministic, injective mapping from frequency rank to a word.

    Memoised: a corpus draws one rank per token but only a few distinct
    ranks per hundred tokens (the uncached function is ``__wrapped__``).

    Low ranks map to real common English words (short, like natural
    frequent words); higher ranks map to pronounceable syllabic
    pseudo-words whose length grows with the rank, mimicking the
    rank/length correlation of natural vocabularies.
    """
    if rank < 0:
        raise ConfigurationError(f"word rank must be >= 0, got {rank}")
    if rank < len(_COMMON_WORDS):
        return _COMMON_WORDS[rank]
    residue = rank - len(_COMMON_WORDS)
    syllables = []
    while True:
        digit = residue % _SYLLABLE_BASE
        syllables.append(
            _SYLLABLE_CONSONANTS[digit % len(_SYLLABLE_CONSONANTS)]
            + _SYLLABLE_VOWELS[digit // len(_SYLLABLE_CONSONANTS)]
        )
        residue //= _SYLLABLE_BASE
        if residue == 0:
            break
        residue -= 1  # bijective numeration: no leading-zero collisions
    if len(syllables) < 2:
        syllables.append("x" + _SYLLABLE_VOWELS[rank % len(_SYLLABLE_VOWELS)])
    return "".join(reversed(syllables))


def heaps_vocabulary(k: float, beta: float, n_tokens: float) -> float:
    """Heaps'-law vocabulary estimate: ``V(N) = k * N**beta``."""
    if n_tokens <= 0:
        return 0.0
    return k * n_tokens**beta


# -- profiles ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusProfile:
    """Statistical description of a corpus for the generator.

    ``paper_*`` fields record the Table 1 row this profile models so that
    benchmarks can report measured-vs-paper numbers; the generator itself
    only consumes the other fields.
    """

    name: str
    #: Number of documents at full scale.
    n_docs: int
    #: Mean tokens per document (document lengths are lognormal around it).
    mean_doc_tokens: int
    #: Heaps' law coefficient, calibrated against the paper vocabulary.
    heaps_k: float
    #: Heaps' law exponent.
    heaps_beta: float
    #: Lognormal sigma of document lengths.
    doc_length_sigma: float = 0.35
    #: Tokens per generated sentence (adds the period/capital bytes).
    sentence_len: int = 13
    #: Paper's Table 1 row, for reporting.
    paper_documents: int = 0
    paper_bytes: int = 0
    paper_distinct_words: int = 0
    #: Latent topics; 0 (the default) generates without any.
    n_topics: int = 0

    def __post_init__(self) -> None:
        if self.n_docs < 1:
            raise ConfigurationError("profile needs at least one document")
        if self.n_topics < 0:
            raise ConfigurationError("n_topics must be >= 0")
        if self.mean_doc_tokens < 1:
            raise ConfigurationError("mean_doc_tokens must be >= 1")
        if not 0 < self.heaps_beta < 1:
            raise ConfigurationError("heaps_beta must lie in (0, 1)")

    @property
    def total_tokens(self) -> int:
        """Nominal token count of the full-scale corpus."""
        return self.n_docs * self.mean_doc_tokens

    def expected_vocabulary(self, n_tokens: float | None = None) -> int:
        """Heaps estimate of distinct words after ``n_tokens`` tokens."""
        if n_tokens is None:
            n_tokens = self.total_tokens
        return int(round(heaps_vocabulary(self.heaps_k, self.heaps_beta, n_tokens)))

    def scaled(self, scale: float) -> "CorpusProfile":
        """Profile with the document count scaled down (or up) by ``scale``.

        Per-document statistics and the Heaps curve are unchanged, so a
        scaled corpus is a faithful prefix-sized sample of the full one.
        """
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        return replace(
            self,
            name=self.name if scale == 1.0 else f"{self.name}@{scale:g}",
            n_docs=max(1, int(round(self.n_docs * scale))),
        )


def _calibrated_profile(
    name: str,
    documents: int,
    paper_bytes: int,
    distinct_words: int,
    beta: float = 0.53,
    bytes_per_token: float = 5.6,
) -> CorpusProfile:
    """Build a profile whose full-scale generation matches a Table 1 row."""
    mean_doc_tokens = max(1, int(round(paper_bytes / documents / bytes_per_token)))
    total_tokens = documents * mean_doc_tokens
    heaps_k = distinct_words / total_tokens**beta
    return CorpusProfile(
        name=name,
        n_docs=documents,
        mean_doc_tokens=mean_doc_tokens,
        heaps_k=heaps_k,
        heaps_beta=beta,
        paper_documents=documents,
        paper_bytes=paper_bytes,
        paper_distinct_words=distinct_words,
    )


#: Table 1, row "Mix": 23 432 documents, 62.8 MB, 184 743 distinct words.
MIX_PROFILE = _calibrated_profile(
    "mix", documents=23_432, paper_bytes=65_853_849, distinct_words=184_743
)

#: Table 1, row "NSF Abstracts": 101 483 documents, 310.9 MB, 267 914 words.
NSF_ABSTRACTS_PROFILE = _calibrated_profile(
    "nsf-abstracts",
    documents=101_483,
    paper_bytes=325_998_182,
    distinct_words=267_914,
)


#: Under topics, the share of a document's recurring tokens that repeat
#: a topical word it already used (the burst), and the share moved onto
#: its topic's words (the ranks past the common words congruent to the
#: topic modulo ``n_topics``). The rest follow the profile's Zipf law.
_BURST = 0.2
_TOPIC_SHARE = 0.5


def with_topics(profile: CorpusProfile, n_topics: int = 8) -> CorpusProfile:
    """``profile`` with ``n_topics`` latent topics (its name says so, and
    so its documents draw from their own random streams)."""
    return replace(profile, name=f"{profile.name}-topics{n_topics}",
                   n_topics=n_topics)


# -- generation ---------------------------------------------------------------------


def _doc_rng(profile: CorpusProfile, seed: int, index: int) -> random.Random:
    return random.Random(f"{profile.name}/{seed}/{index}")


def generate_document_text(
    profile: CorpusProfile, index: int, seed: int = 0
) -> str:
    """Generate the text of document ``index`` of the profile's corpus.

    The document samples existing vocabulary log-uniformly over ranks
    (a Zipf(≈1) frequency profile) and introduces the expected number of
    brand-new words for its position in the corpus-wide token stream, per
    the profile's Heaps curve.
    """
    rng = _doc_rng(profile, seed, index)
    length = max(8, int(round(profile.mean_doc_tokens * rng.lognormvariate(
        0.0, profile.doc_length_sigma
    ))))

    # Position of this document in the nominal global token stream.
    start = index * profile.mean_doc_tokens
    vocab_before = max(1.0, heaps_vocabulary(
        profile.heaps_k, profile.heaps_beta, max(1, start)
    ))
    expected_new = heaps_vocabulary(
        profile.heaps_k, profile.heaps_beta, start + length
    ) - heaps_vocabulary(profile.heaps_k, profile.heaps_beta, max(1, start))
    n_new = int(expected_new)
    if rng.random() < expected_new - n_new:
        n_new += 1
    n_new = min(n_new, length)

    tokens: list[str] = []
    n_topics = profile.n_topics
    # Draws past the default stream's happen only with topics on, so a
    # profile without them generates exactly what it always did.
    topic = rng.randrange(n_topics) if n_topics else None
    topical: list[int] = []
    for _ in range(length - n_new):
        # Log-uniform rank over the vocabulary seen so far = Zipf-like.
        rank = max(0, int(vocab_before ** rng.random()) - 1)
        if topic is not None:
            draw = rng.random()
            if topical and draw < _BURST:
                rank = rng.choice(topical)
            elif draw < _BURST + _TOPIC_SHARE and rank >= len(_COMMON_WORDS):
                # The topic's word in this run of n_topics ranks: topics
                # re-weight the Zipf ranks, each owning every n_topics-th.
                rank -= (rank - len(_COMMON_WORDS)) % n_topics - topic
                topical.append(rank)
        tokens.append(synth_word(rank))
    first_new_rank = int(vocab_before)
    new_tokens = [synth_word(first_new_rank + j) for j in range(n_new)]
    for token in new_tokens:
        tokens.insert(rng.randrange(len(tokens) + 1), token)

    # Assemble sentences: capitalised first word, period at the end.
    sentences = []
    for at in range(0, len(tokens), profile.sentence_len):
        sentence = tokens[at : at + profile.sentence_len]
        sentence[0] = sentence[0].capitalize()
        sentences.append(" ".join(sentence) + ".")
    return " ".join(sentences)


def generate_corpus(
    profile: CorpusProfile, scale: float = 1.0, seed: int = 0
) -> Corpus:
    """Generate a corpus for ``profile`` at the given scale.

    ``scale`` multiplies the document count only; per-document statistics
    stay at full-scale values so measured per-document costs extrapolate
    linearly. Benchmarks typically run at ``scale`` between 0.005 and 0.05.
    """
    scaled_profile = profile.scaled(scale)
    corpus = Corpus(name=scaled_profile.name)
    for index in range(scaled_profile.n_docs):
        corpus.add(
            f"{scaled_profile.name}-{index:06d}.txt",
            generate_document_text(scaled_profile, index, seed=seed),
        )
    return corpus
