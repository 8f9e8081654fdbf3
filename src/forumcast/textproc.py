"""Tokenization, stopword/dictionary filtering, and corpus word counts.

Segmentation rule: a token is a maximal run of Unicode word characters,
optionally joined by single interior hyphens ("e-mail" stays one token).
Tokens are lowercased; punctuation is discarded. Tokens consisting solely of
digits are kept by ``tokenize`` and dropped by ``TokenFilter`` unless
``keep_digits`` is set.

Stopword and dictionary files are plain UTF-8, one word per line, read
lowercased; blank lines and ``#`` comment lines are skipped. Default
stopword lists for English and Italian ship with the package.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial
from importlib import resources
from typing import Iterable

from . import _stemmer
from .errors import DataError
from .tables import open_input

_TOKEN_RE = re.compile(r"\w+(?:-\w+)*", re.UNICODE)

# The ASCII characters that are neither word characters nor whitespace
# become spaces, so that ``str.split`` separates words where the regex would.
_ASCII_BREAKS = str.maketrans({
    char: " " for char in map(chr, range(128))
    if not (_TOKEN_RE.match(char) or char.isspace())
})


@dataclass
class Vocabulary:
    """Corpus-level word occurrence counts over filtered streams."""

    counts: dict[str, int] = field(default_factory=dict)
    total: int = 0

    @cached_property
    def surprisal(self) -> dict[str, float]:
        """``token_surprisal`` by word, built on first use (the counts must
        not change after that); a word not counted gets its value when it is
        first looked up."""
        return defaultdict(
            partial(_surprisal, 0, self.total),
            ((word, _surprisal(count, self.total)) for word, count in self.counts.items()),
        )


def tokenize(body: str) -> list[str]:
    """Split ``body`` into lowercase word tokens, in order of appearance.

    ``_TOKEN_RE`` defines a token. An ASCII text without a hyphen needs no
    regex: once its punctuation is spaced out, its whitespace-separated
    pieces are its tokens. Any other text goes through the regex alone, as
    ``str.translate`` leaves its ASCII fast path on a non-ASCII text.
    """
    text = body.lower()
    if text.isascii() and "-" not in text:
        return text.translate(_ASCII_BREAKS).split()
    return _TOKEN_RE.findall(text)


def filter_tokens(
    tokens: Iterable[str],
    stop: frozenset[str] = frozenset(),
    dictionary: set[str] | frozenset[str] | None = None,
) -> list[str]:
    """Drop stopwords and (when a dictionary is given) out-of-dictionary tokens.

    Survivors keep their relative order and become adjacent where tokens were
    removed; downstream co-occurrence distances are measured on this
    compacted stream.
    """
    if dictionary is None:
        return [t for t in tokens if t not in stop]
    return [t for t in tokens if t not in stop and t in dictionary]


class TokenFilter(dict):
    """Raw token -> stream token, or "" for a token the stream drops.

    A token is dropped if it is a stopword, if a dictionary is given and
    lacks it, or, unless ``keep_digits``, if it is all digits; a kept token
    is stemmed when a stemming language is given, and interned, so each
    stream token is one string object however often it occurs. Each
    distinct token is worked out once, on first lookup, so the digit rule
    costs one ``isdecimal`` call per distinct token. (``isdecimal`` is true
    exactly for the non-empty strings of Unicode Nd characters, the ones
    the regex ``\\d+`` matches in full.)
    """

    def __init__(
        self,
        stop: frozenset[str],
        dictionary: set[str] | frozenset[str] | None = None,
        stem_language: str | None = None,
        keep_digits: bool = False,
    ) -> None:
        super().__init__()
        self._stopwords = stop
        self._dictionary = dictionary
        self._stem = _stemmer.stemmer_for(stem_language) if stem_language else None
        self._keep_digits = keep_digits

    def __missing__(self, token: str) -> str:
        kept = ""
        if not (
            token in self._stopwords
            or (self._dictionary is not None and token not in self._dictionary)
            or (not self._keep_digits and token.isdecimal())
        ):
            kept = sys.intern(self._stem(token) if self._stem else token)
        self[token] = kept
        return kept

    def stream(self, tokens: Iterable[str]) -> list[str]:
        """The stream of ``tokens``: each kept token's stream token, in order."""
        return list(filter(None, map(self.__getitem__, tokens)))


def build_vocabulary(streams: Iterable[Iterable[str]]) -> Vocabulary:
    """Exact token multiplicities over all given streams."""
    counts: Counter[str] = Counter()
    for stream in streams:
        counts.update(stream)
    return Vocabulary(counts=dict(counts), total=sum(counts.values()))


def token_surprisal(word: str, vocab: Vocabulary) -> float:
    """-log2 relative corpus frequency; unseen words scored as count 1."""
    return _surprisal(vocab.counts.get(word, 0), vocab.total)


def _surprisal(count: int, total: int) -> float:
    if total <= 0:
        raise ValueError("vocabulary is empty")
    return -math.log2(max(count, 1) / total)


def load_wordlist(path: str) -> frozenset[str]:
    """Read a one-word-per-line UTF-8 file (stopwords or dictionary): each
    word is lowercased, and blank lines and ``#`` comment lines are skipped."""
    with open_input(path, "word list") as handle:
        return frozenset(
            word for word in (line.strip().lower() for line in handle)
            if word and not word.startswith("#")
        )


def load_stopwords(language: str = "english", path: str | None = None) -> frozenset[str]:
    """Stopwords from ``path``, or the bundled list for ``language``; an
    empty list is a DataError."""
    if path is None:
        path = str(resources.files("forumcast.data").joinpath(f"stopwords_{language}.txt"))
    words = load_wordlist(path)
    if not words:
        raise DataError(f"empty stopword list for language '{language}'")
    return words
