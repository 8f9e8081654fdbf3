"""Sentiment, emotionality, and complexity measures.

Message sentiment is a float in [0,1] with 0.5 neutral. The default scorer
averages lexicon polarities over the message's tokens (from ``tokenize``,
before stopword filtering; all-digit tokens never count); a precomputed scorer
accepts per-message scores from any external classifier. Weekly sentiment is
the mean of message scores, emotionality their population standard deviation,
and complexity the mean surprisal of the week's tokens against a reference
vocabulary.

Windows with nothing to score yield ``None`` (missing), never zero.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from .corpus import Message
from .errors import DataError, MissingScoreError
from .tables import InputTable, open_input
from .textproc import Vocabulary
from .textproc import tokenize  # noqa: F401  (bench/tracing.py wraps it by this name)


class SentimentScorer(Protocol):
    def score(self, msg: Message, tokens: Sequence[str]) -> float: ...


class LexiconScorer:
    """Mean token polarity p, mapped into [0,1] via (p+1)/2; ``lexicon``'s
    polarities are in [-1, 1], as ``load_lexicon`` checks.

    All-digit words are left out of the lexicon, so the all-digit tokens
    that ``tokenize`` keeps never count.
    """

    def __init__(self, lexicon: Mapping[str, float]) -> None:
        self._lexicon = {word: p for word, p in lexicon.items() if not word.isdecimal()}

    def score(self, msg: Message, tokens: Sequence[str]) -> float:
        polarities = [p for p in map(self._lexicon.get, tokens) if p is not None]
        if not polarities:
            return 0.5
        mean_polarity = sum(polarities) / len(polarities)
        return (mean_polarity + 1.0) / 2.0


class PrecomputedScorer:
    """Looks up externally computed scores in [0, 1], as ``load_precomputed``
    checks; total over the corpus it serves."""

    def __init__(self, scores: Mapping[str, float]) -> None:
        self._scores = dict(scores)

    def score(self, msg: Message, tokens: Sequence[str]) -> float:
        if msg.id not in self._scores:
            raise MissingScoreError(f"no precomputed sentiment for message id {msg.id!r}")
        return self._scores[msg.id]


def score_message(msg: Message, tokens: Sequence[str], scorer: SentimentScorer) -> float:
    """``msg``'s score in [0, 1]; ``tokens`` is ``tokenize(msg.body)``."""
    return scorer.score(msg, tokens)


def window_sentiment(scores: Sequence[float]) -> float | None:
    """Mean message score for the window; None when nothing was scored."""
    if not scores:
        return None
    # statistics.fmean computes exactly this; importing statistics would
    # load fractions and decimal with it.
    return math.fsum(scores) / len(scores)


def emotionality(scores: Sequence[float]) -> float | None:
    """Population standard deviation of the window's message scores."""
    if not scores:
        return None
    if len(scores) == 1:
        return 0.0
    return _pstdev(scores)


def _pstdev(values: Sequence[float]) -> float:
    """``statistics.pstdev`` of finite floats, as Python 3.11 computes it:
    the exact population variance, then its correctly rounded square root.

    Every finite float is an integer over a power of two, so over their
    largest denominator 2**e the values are integers x_i, and the variance
    is (n sum x_i^2 - (sum x_i)^2) / (n 2**e)^2, exactly, in integers.
    """
    ratios = [v.as_integer_ratio() for v in values]
    shift = max(den for _, den in ratios).bit_length() - 1
    scaled = [num << (shift - den.bit_length() + 1) for num, den in ratios]
    total = sum(scaled)
    n = len(scaled)
    return _sqrt_of_fraction(n * sum(x * x for x in scaled) - total * total, (n << shift) ** 2)


def _sqrt_of_fraction(num: int, den: int) -> float:
    """sqrt(num / den) for 0 <= num / den < 2**108, correctly rounded.

    The integer square root of num * 4**k / den, with k large enough to
    give it two bits beyond a float's 53, is rounded to odd; rounding that
    once more to the nearest float has no double-rounding error (Boldo &
    Melquiond, "When double rounding is odd", 2005).
    """
    k = (den.bit_length() - num.bit_length() + 110) // 2
    scaled = num << 2 * k
    root = math.isqrt(scaled // den)
    return (root | (root * root * den != scaled)) / (1 << k)


def complexity(streams: Iterable[Sequence[str]], vocab: Vocabulary) -> float | None:
    """Mean -log2 relative corpus frequency of the window's tokens.

    Tokens unseen in the reference vocabulary score as count 1. A counted
    word's surprisal comes from the vocabulary's table, computed once.
    """
    bits = list(map(vocab.surprisal.__getitem__, chain.from_iterable(streams)))
    if not bits:
        return None
    # Added one by one from 0.0, in token order; the builtin sum adds with
    # compensation from Python 3.12 on, which could move the last bit.
    return functools.reduce(operator.add, bits, 0.0) / len(bits)


def _scores(path: str, what: str, columns: tuple[str, str], low: float, high: float,
            fold: Callable[[str], str]) -> dict[str, float]:
    """CSV ``key,value`` table as a dict; each key is stripped, then folded by
    ``fold``, and each value lies in [``low``, ``high``]."""
    key_name, value_name = columns
    scores: dict[str, float] = {}
    with open_input(path, what) as handle:
        table = InputTable(handle, path, columns)
        for row in table:
            key = fold(row[key_name].strip())
            if not key:
                raise table.error(f"empty {key_name}")
            value = table.number(row[value_name], value_name, low, high)
            if key in scores:
                raise table.error(f"duplicate {key_name} {key!r}")
            scores[key] = value
    return scores


def load_lexicon(path: str) -> dict[str, float]:
    """CSV word,polarity with polarity in [-1, 1]; words are lowercased."""
    lexicon = _scores(path, "lexicon", ("word", "polarity"), -1.0, 1.0, str.lower)
    if not lexicon:
        raise DataError(f"{path}: empty lexicon")
    return lexicon


def load_precomputed(path: str) -> dict[str, float]:
    """CSV message_id,score with score in [0, 1]."""
    return _scores(path, "precomputed sentiment file", ("message_id", "score"), 0.0, 1.0, str)
