"""Suffix stemmers used by the optional stemming stage.

English uses the classic Porter algorithm (1980), implemented from the
published rule tables. Italian uses a light suffix stripper that removes
plural/gender inflections and the most common verb endings; it is cruder
than a full snowball stemmer but adequate for conflating inflected forms
before co-occurrence counting.
"""

from __future__ import annotations

from typing import Callable

from .config import BUNDLED_LANGUAGES
from .errors import ConfigError

_VOWELS = set("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # number of VC sequences in the c/v run-length form [C](VC)^m[V]
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x, or y
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_if(word: str, suffix: str, replacement: str, min_measure: int) -> str | None:
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure - 1:
        return stem + replacement
    return word


def porter_stem(word: str) -> str:
    """Porter (1980) stemmer for lowercase English words."""
    if len(word) <= 2:
        return word

    # step 1a: plurals
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # step 1b: -ed / -ing
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            word = word[:-1]
    else:
        cleaned = None
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            cleaned = word[:-2]
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            cleaned = word[:-3]
        if cleaned is not None:
            word = cleaned
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # step 1c: y -> i after a vowel
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # step 2 (m > 0)
    step2 = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    )
    for suffix, repl in step2:
        if word.endswith(suffix):
            out = _replace_if(word, suffix, repl, 1)
            if out is not None:
                word = out
            break

    # step 3 (m > 0)
    step3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    )
    for suffix, repl in step3:
        if word.endswith(suffix):
            out = _replace_if(word, suffix, repl, 1)
            if out is not None:
                word = out
            break

    # step 4 (m > 1)
    step4 = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )
    for suffix in step4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) > 1:
                word = stem
            break
    else:
        if word.endswith("ion"):
            stem = word[:-3]
            if stem and stem[-1] in "st" and _measure(stem) > 1:
                word = stem

    # step 5a: drop trailing e
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # step 5b: -ll -> -l when m > 1
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word


_ITALIAN_VERB_SUFFIXES = (
    "erebbero", "irebbero", "eranno", "iranno", "erebbe", "irebbe",
    "assero", "essero", "issero", "avamo", "evamo", "ivamo", "eremo",
    "iremo", "avano", "evano", "ivano", "avate", "evate", "ivate",
    "ando", "endo", "iamo", "arono", "erono", "irono", "ava", "eva",
    "iva", "are", "ere", "ire", "ato", "uto", "ito", "ano", "ono",
)

_ITALIAN_NOUN_SUFFIXES = (
    "amente", "mente", "zione", "zioni", "atore", "atori", "abile",
    "ibile", "abili", "ibili", "ista", "iste", "isti", "anza", "enza",
    "ichi", "iche",
)


def italian_stem(word: str) -> str:
    """Light Italian stemmer: strips common derivational and verb suffixes,
    then final vowel inflections. Keeps stems of length >= 3."""
    for suffix in _ITALIAN_NOUN_SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            word = word[: len(word) - len(suffix)]
            break
    else:
        for suffix in _ITALIAN_VERB_SUFFIXES:
            if word.endswith(suffix) and len(word) - len(suffix) >= 3:
                word = word[: len(word) - len(suffix)]
                break
    while len(word) > 3 and word[-1] in "aeiouàèéìòù":
        word = word[:-1]
    return word


def stemmer_for(language: str) -> Callable[[str], str]:
    if language == "english":
        return porter_stem
    if language == "italian":
        return italian_stem
    raise ConfigError(
        f"no stemmer for language '{language}' (have: {', '.join(BUNDLED_LANGUAGES)})"
    )
