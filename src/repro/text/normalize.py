"""Character-level normalization used by the tokenizer.

Keeps the pipeline honest about what a "word" is: case-folded runs of
ASCII letters and digits (:func:`is_word_char`, the one rule), apostrophes
deleted, everything else acting as a separator. The translation table is
built once at import time; per-call work is a single ``str.translate``
pass, which is the cheapest full scan CPython offers and maps naturally
onto the simulator's bytes-processed cost metric.

:data:`FOLD_BYTES` spells the same rule over UTF-8 bytes for the chunk
kernel's ``bytes.translate``. It is derived from :func:`is_word_char`,
not written out: a word byte maps to its lowercase form, every other byte
to 0. Every byte of a non-ASCII character is >= 0x80, hence a separator,
and a run of separators splits like the one space ``fold_text`` leaves.
"""

from __future__ import annotations

__all__ = ["FOLD_BYTES", "fold_text", "is_word_char"]

_TABLE = {}
for code in range(256):
    char = chr(code)
    if char.isalnum():
        _TABLE[code] = char.lower()
    elif char == "'":
        # Keep intra-word apostrophes out: don't -> dont, matching common
        # analytics tokenizers.
        _TABLE[code] = None
    else:
        _TABLE[code] = " "


def fold_text(text: str) -> str:
    """Lowercase ``text`` and replace every non-alphanumeric with a space.

    Non-Latin-1 characters are treated as separators so that downstream
    token streams contain only predictable ASCII-ish words.
    """
    return text.translate(_TABLE) if text.isascii() else _fold_slow(text)


def _fold_slow(text: str) -> str:
    chars = []
    for char in text:
        if char.isascii() and char.isalnum():
            chars.append(char.lower())
        elif char == "'":
            continue
        else:
            chars.append(" ")
    return "".join(chars)


def is_word_char(char: str) -> bool:
    """True when the character survives folding as part of a word."""
    return char.isascii() and char.isalnum()


#: :func:`is_word_char` as a ``bytes.translate`` table: word bytes to
#: lowercase, separators to 0. Pass ``b"'"`` as the bytes to delete.
FOLD_BYTES = bytes(
    ord(chr(code).lower()) if is_word_char(chr(code)) else 0
    for code in range(256)
)
