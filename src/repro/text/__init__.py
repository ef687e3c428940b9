"""Text substrate: tokenization, corpora and synthetic data generation.

The corpus generator (:mod:`repro.text.synth`) and the corpus analysis
(:mod:`repro.text.analysis`) are served on first use (PEP 562): an
engine module that imports the tokenizer or the corpus type does not
load them.
"""

from importlib import import_module

from repro.text.corpus import Corpus, CorpusStats, Document
from repro.text.normalize import fold_text, is_word_char
from repro.text.stopwords import ENGLISH_STOPWORDS, is_stopword
from repro.text.tokenizer import TokenizedDocument, Tokenizer

#: Lazily served name -> the module that defines it.
_LAZY = {
    **dict.fromkeys(
        ("CorpusProfile", "MIX_PROFILE", "NSF_ABSTRACTS_PROFILE",
         "generate_corpus", "generate_document_text", "heaps_vocabulary",
         "synth_word", "with_topics"),
        "repro.text.synth",
    ),
    **dict.fromkeys(
        ("HeapsFit", "fit_heaps", "vocabulary_growth", "zipf_profile",
         "profile_from_corpus"),
        "repro.text.analysis",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


__all__ = [
    "Corpus",
    "CorpusStats",
    "Document",
    "Tokenizer",
    "TokenizedDocument",
    "fold_text",
    "is_word_char",
    "ENGLISH_STOPWORDS",
    "is_stopword",
    *_LAZY,
]
