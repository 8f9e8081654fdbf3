"""Tokenization, stopword/dictionary filtering, and corpus word counts.

Segmentation rule: a token is a maximal run of Unicode word characters,
optionally joined by single interior hyphens ("e-mail" stays one token).
Tokens are lowercased; punctuation is discarded; tokens consisting solely of
digits are dropped unless ``keep_digits`` is set.

Stopword and dictionary files are plain UTF-8, one lowercase word per line.
Default stopword lists for English and Italian ship with the package.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Iterable

from . import _stemmer
from .config import BUNDLED_LANGUAGES  # config checks the language; importable from here too
from .errors import DataError
from .tables import open_input

_TOKEN_RE = re.compile(r"\w+(?:-\w+)*", re.UNICODE)


@dataclass(frozen=True)
class StopwordList:
    words: frozenset[str]
    language: str

    def __post_init__(self) -> None:
        if not self.words:
            raise DataError(f"empty stopword list for language '{self.language}'")


@dataclass
class Vocabulary:
    """Corpus-level word occurrence counts over filtered streams."""

    counts: dict[str, int] = field(default_factory=dict)
    total: int = 0

    @cached_property
    def surprisal(self) -> dict[str, float]:
        """``token_surprisal`` of every counted word, computed on first use
        (the counts must not change after that)."""
        return {word: token_surprisal(word, self) for word in self.counts}


def tokenize(body: str, keep_digits: bool = False) -> list[str]:
    """Split ``body`` into lowercase word tokens, in order of appearance."""
    tokens = _TOKEN_RE.findall(body.lower())
    if keep_digits:
        return tokens
    # isdecimal() is true exactly for the non-empty strings of Unicode Nd
    # characters, the ones the regex \d+ matches in full.
    return [t for t in tokens if not t.isdecimal()]


def filter_tokens(
    tokens: Iterable[str],
    stop: StopwordList | None = None,
    dictionary: set[str] | frozenset[str] | None = None,
) -> list[str]:
    """Drop stopwords and (when a dictionary is given) out-of-dictionary tokens.

    Survivors keep their relative order and become adjacent where tokens were
    removed; downstream co-occurrence distances are measured on this
    compacted stream.
    """
    stopwords = stop.words if stop is not None else frozenset()
    if dictionary is None:
        return [t for t in tokens if t not in stopwords]
    return [t for t in tokens if t not in stopwords and t in dictionary]


def stem_tokens(tokens: Iterable[str], language: str) -> list[str]:
    """Replace each token by its stem. Optional stage, off by default."""
    stemmer = _stemmer.stemmer_for(language)
    return [stemmer(t) for t in tokens]


def build_vocabulary(streams: Iterable[Iterable[str]]) -> Vocabulary:
    """Exact token multiplicities over all given streams."""
    counts: Counter[str] = Counter()
    for stream in streams:
        counts.update(stream)
    return Vocabulary(counts=dict(counts), total=sum(counts.values()))


def token_surprisal(word: str, vocab: Vocabulary) -> float:
    """-log2 relative corpus frequency; unseen words scored as count 1."""
    if vocab.total <= 0:
        raise ValueError("vocabulary is empty")
    count = vocab.counts.get(word, 0)
    return -math.log2(max(count, 1) / vocab.total)


def load_wordlist(path: str) -> set[str]:
    """Read a one-word-per-line UTF-8 file (stopwords or dictionary)."""
    with open_input(path, "word list") as handle:
        return {line.strip().lower() for line in handle if line.strip()}


def load_stopwords(language: str = "english", path: str | None = None) -> StopwordList:
    """Stopword list from ``path``, or the bundled list for ``language``."""
    if path is not None:
        return StopwordList(words=frozenset(load_wordlist(path)), language=language)
    if language not in BUNDLED_LANGUAGES:
        raise DataError(
            f"no bundled stopword list for '{language}'"
            f" (bundled: {', '.join(BUNDLED_LANGUAGES)}); supply a file"
        )
    data = resources.files("forumcast.data").joinpath(f"stopwords_{language}.txt")
    words = {line.strip() for line in data.read_text(encoding="utf-8").splitlines() if line.strip()}
    return StopwordList(words=frozenset(words), language=language)
