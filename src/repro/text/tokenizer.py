"""Document tokenizer with work metering.

Tokenization is half of the TF/IDF operator's phase 1 ("data input,
tokenization and hash table operations", §3.2). The tokenizer therefore
reports how many bytes and tokens it processed, which the operator converts
into simulated CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.text.normalize import fold_text
from repro.text.stopwords import is_stopword

__all__ = ["Tokenizer", "TokenizedDocument"]


@dataclass
class TokenizedDocument:
    """Token stream of one document plus the work needed to produce it."""

    tokens: list[str]
    bytes_processed: int

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)


class Tokenizer:
    """Splits raw text into folded word tokens.

    Parameters
    ----------
    drop_stopwords:
        Remove common English words from the stream.
    min_length / max_length:
        Discard tokens outside these length bounds. ``max_length`` guards
        against pathological unbroken runs (base64 blobs, URLs).
    """

    def __init__(
        self,
        drop_stopwords: bool = False,
        min_length: int = 1,
        max_length: int = 64,
    ) -> None:
        self.drop_stopwords = drop_stopwords
        self.min_length = min_length
        self.max_length = max_length

    def split(self, text: str) -> list[str]:
        """Fold ``text`` and split it into words, unfiltered."""
        return fold_text(text).split()

    def keeps(self, term: str) -> bool:
        """Whether a word survives the length and stop-word filter.

        A pure function of the word, so a caller may ask once per
        distinct term instead of once per token (the chunk kernel does).
        """
        return self.min_length <= len(term) <= self.max_length and not (
            self.drop_stopwords and is_stopword(term)
        )

    def tokenize(self, text: str) -> TokenizedDocument:
        """Tokenize ``text``, reporting bytes processed for cost accounting.

        Defined by :meth:`split` and :meth:`keeps`, which is what a
        subclass overrides to customise tokenization.
        """
        keeps = self.keeps
        tokens = [token for token in self.split(text) if keeps(token)]
        return TokenizedDocument(tokens=tokens, bytes_processed=len(text))

    def tokens(self, text: str) -> list[str]:
        """Convenience: tokenize and return only the token list."""
        return self.tokenize(text).tokens
