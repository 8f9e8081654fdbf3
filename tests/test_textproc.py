from __future__ import annotations

import math
import re
import string
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from forumcast import _stemmer
from forumcast._stemmer import italian_stem, porter_stem
from forumcast.config import BUNDLED_LANGUAGES
from forumcast.errors import ConfigError, DataError
from forumcast.textproc import (
    _TOKEN_RE,
    TokenFilter,
    build_vocabulary,
    filter_tokens,
    load_stopwords,
    load_wordlist,
    token_surprisal,
    tokenize,
)


# A stopword no token can be, so that a filter drops only what its other
# rules drop.
NO_STOPWORDS = frozenset({"-"})


class TestTokenize:
    def test_hyphenated_words_stay_whole(self):
        assert tokenize("E-mail, e-mail!") == ["e-mail", "e-mail"]

    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Hello, DOLLY... (yes)") == ["hello", "dolly", "yes"]

    def test_pure_digits_dropped_by_default(self):
        # tokenize keeps them; the token filter is the one place that drops them
        tokens = tokenize("q3 2019 saw 12 wins")
        assert tokens == ["q3", "2019", "saw", "12", "wins"]
        assert TokenFilter(NO_STOPWORDS).stream(tokens) == ["q3", "saw", "wins"]

    def test_keep_digits_flag(self):
        kept = TokenFilter(NO_STOPWORDS, keep_digits=True).stream(tokenize("2019 wins"))
        assert kept == ["2019", "wins"]

    @given(st.text(st.one_of(
        st.characters(),
        st.characters(whitelist_categories=("Nd", "Nl", "No")),
        st.sampled_from(" -_"),
    )))
    def test_digit_rule_is_the_regex_rule(self, text):
        # A token is dropped when \d+ matches all of it.
        every = tokenize(text)
        assert TokenFilter(NO_STOPWORDS).stream(every) == [
            t for t in every if not re.fullmatch(r"\d+", t)
        ]

    @given(st.one_of(
        st.text(alphabet=(
            string.punctuation  # with "-" and "_"
            + string.digits + "²½٣"  # ² and ½ are numeric but not decimal; ٣ is an Arabic-Indic 3
            + "aZé"
            + "«—’\u0307İß"  # non-ASCII punctuation, a combining dot, letters that lowercase oddly
            + "\x1c\x1d\x1e\x1f\x85\xa0 \t\n"  # separators str.split splits on
        ), max_size=40),
        # Mostly ASCII texts without a hyphen: the path that needs no regex.
        st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
    ))
    @example("İstanbul ist-ok a_b ½ ²3 ٣٣ «x»")
    @example("plain words 42 and more")
    @example("\u212a_9 x\x1cy")  # the Kelvin sign lowercases to an ASCII "k"
    def test_matches_the_regex_definition(self, text):
        tokens = tokenize(text)
        assert tokens == _TOKEN_RE.findall(text.lower())
        for keep_digits in (False, True):
            expected = [t for t in tokens if keep_digits or not t.isdecimal()]
            assert TokenFilter(NO_STOPWORDS, keep_digits=keep_digits).stream(tokens) == expected

    def test_accented_words_survive(self):
        assert tokenize("città è bella") == ["città", "è", "bella"]

    def test_empty_body(self):
        assert tokenize("") == []

    @given(st.text(max_size=200))
    def test_tokens_are_lowercase_and_nonempty(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()


class TestFiltering:
    def test_stopwords_removed_and_stream_compacted(self):
        stop = frozenset({"the", "a"})
        assert filter_tokens(["the", "cat", "a", "mat"], stop) == ["cat", "mat"]

    def test_dictionary_keeps_only_known_words(self):
        stop = frozenset({"the"})
        kept = filter_tokens(["the", "cat", "zzyzx"], stop, dictionary={"cat", "mat"})
        assert kept == ["cat"]

    def test_no_stopword_list_passes_everything(self):
        assert filter_tokens(["a", "b"]) == ["a", "b"]

    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "the"]), max_size=30))
    def test_filter_preserves_relative_order(self, tokens):
        stop = frozenset({"the"})
        out = filter_tokens(tokens, stop)
        assert out == [t for t in tokens if t != "the"]


_FILTER_WORDS = [
    "the", "and", "il", "che", "running", "ponies", "caresses", "azioni",
    "parlavano", "velocemente", "relational", "2019", "42", "٣", "q3", "e-mail",
]


def _per_token_stream(tokens, stop, dictionary, language, keep_digits):
    """What the filter does, one token at a time."""
    if not keep_digits:
        tokens = [t for t in tokens if not t.isdecimal()]
    tokens = filter_tokens(tokens, stop, dictionary)
    return list(map(_stemmer.stemmer_for(language), tokens)) if language else tokens


class TestTokenFilter:
    @given(
        st.lists(st.lists(st.sampled_from(_FILTER_WORDS), max_size=12), max_size=5),
        st.sampled_from([None, "english", "italian"]),
        st.booleans(),
        st.booleans(),
    )
    def test_streams_equal_per_token_filtering(self, messages, language, use_dictionary,
                                               keep_digits):
        stop = frozenset({"the", "and", "il", "che", "42"})
        dictionary = frozenset(_FILTER_WORDS[2::2] + ["2019", "q3"]) if use_dictionary else None
        token_filter = TokenFilter(stop, dictionary, language, keep_digits)
        for tokens in messages:
            stream = token_filter.stream(tokens)
            assert stream == _per_token_stream(tokens, stop, dictionary, language, keep_digits)
            # a fresh string of each token's value, so only interning can make it equal
            # the object the stream holds
            assert all(kept is sys.intern("".join(list(kept))) for kept in stream)

    def test_each_distinct_token_is_stemmed_once(self, monkeypatch):
        stemmed = []
        stemmer_for = _stemmer.stemmer_for

        def counting(language):
            stem = stemmer_for(language)
            return lambda token: stemmed.append(token) or stem(token)

        monkeypatch.setattr(_stemmer, "stemmer_for", counting)
        stop = frozenset({"the"})
        token_filter = TokenFilter(stop, stem_language="english")
        assert token_filter.stream(["running", "the", "ponies", "running"]) == ["run", "poni", "run"]
        assert token_filter.stream(["ponies", "the", "running"]) == ["poni", "run"]
        assert stemmed == ["running", "ponies"]


class TestStopwordLists:
    def test_bundled_english(self):
        stop = load_stopwords("english")
        assert "the" in stop and "and" in stop
        assert all(w == w.lower() for w in stop)

    def test_bundled_italian(self):
        stop = load_stopwords("italian")
        assert "il" in stop and "che" in stop

    def test_unknown_language_needs_file(self):
        # config.validate refuses such a language; called directly, the
        # loader finds no bundled file
        with pytest.raises(DataError, match="stopwords_klingon.txt"):
            load_stopwords("klingon")

    def test_custom_file_overrides(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# my list\nfoo\nBAR\n\n  # indented comment\n")
        stop = load_stopwords("english", str(path))
        assert stop == frozenset({"foo", "bar"})

    def test_comment_line_in_a_dictionary_is_not_a_word(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("#words\nwidget\n# launch\n")
        assert load_wordlist(str(path)) == {"widget"}

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"\xef\xbb\xbfthe\nand\n")
        assert load_wordlist(str(path)) == {"the", "and"}
        stop = load_stopwords("english", str(path))
        assert filter_tokens(["the", "cat", "and"], stop) == ["cat"]

    def test_empty_file_is_data_error(self, tmp_path):
        path = tmp_path / "stop.txt"
        for text in ("\n  \n", "# comment only\n\n#\n"):
            path.write_text(text)
            with pytest.raises(DataError, match="empty stopword list for language 'italian'"):
                load_stopwords("italian", str(path))

    def test_wordlist_missing_file(self):
        with pytest.raises(DataError):
            load_wordlist("/nonexistent/words.txt")


class TestStemming:
    def test_porter_classic_cases(self):
        cases = {
            "caresses": "caress",
            "ponies": "poni",
            "running": "run",
            "hopping": "hop",
            "relational": "relat",
            "conditional": "condit",
            "happy": "happi",
            "agreement": "agreement",
        }
        for word, stem in cases.items():
            assert porter_stem(word) == stem, word

    def test_porter_leaves_short_words(self):
        assert porter_stem("is") == "is"

    def test_italian_strips_inflections(self):
        assert italian_stem("azioni") == "azion"
        assert italian_stem("parlavano") == "parl"
        assert italian_stem("velocemente") == "veloc"
        assert italian_stem("velocissimamente") != "velocissimamente"

    def test_token_filter_stemmer_dispatch(self):
        stop = frozenset({"the"})
        assert TokenFilter(stop, stem_language="english").stream(["running", "ponies"]) == [
            "run", "poni"
        ]
        with pytest.raises(ConfigError, match=r"'latin' \(have: english, italian\)$"):
            TokenFilter(stop, stem_language="latin")

    @pytest.mark.parametrize("language", BUNDLED_LANGUAGES)
    def test_every_bundled_language_has_a_stemmer(self, language):
        assert callable(_stemmer.stemmer_for(language))


class TestVocabulary:
    def test_counts_accumulate_across_streams(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]])
        assert vocab.counts == {"a": 1, "b": 2, "c": 1}
        assert vocab.total == 4

    def test_surprisal_uniform(self):
        vocab = build_vocabulary([["a", "b", "c", "d"]])
        assert math.isclose(token_surprisal("a", vocab), 2.0, abs_tol=1e-12)

    def test_surprisal_out_of_vocabulary_counts_as_one(self):
        vocab = build_vocabulary([["a"] * 7, ["b"]])
        assert token_surprisal("zzz", vocab) == token_surprisal("b", vocab)

    def test_surprisal_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            token_surprisal("a", build_vocabulary([]))
