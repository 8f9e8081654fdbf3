from __future__ import annotations

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forumcast._stemmer import italian_stem, porter_stem
from forumcast.errors import ConfigError, DataError
from forumcast.textproc import (
    StopwordList,
    build_vocabulary,
    filter_tokens,
    load_stopwords,
    load_wordlist,
    stem_tokens,
    token_surprisal,
    tokenize,
)


class TestTokenize:
    def test_hyphenated_words_stay_whole(self):
        assert tokenize("E-mail, e-mail!") == ["e-mail", "e-mail"]

    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("Hello, DOLLY... (yes)") == ["hello", "dolly", "yes"]

    def test_pure_digits_dropped_by_default(self):
        assert tokenize("q3 2019 saw 12 wins") == ["q3", "saw", "wins"]

    def test_keep_digits_flag(self):
        assert tokenize("2019 wins", keep_digits=True) == ["2019", "wins"]

    @given(st.text(st.one_of(
        st.characters(),
        st.characters(whitelist_categories=("Nd", "Nl", "No")),
        st.sampled_from(" -_"),
    )))
    def test_digit_rule_is_the_regex_rule(self, text):
        # A token is dropped when \d+ matches all of it.
        every = tokenize(text, keep_digits=True)
        assert tokenize(text) == [t for t in every if not re.fullmatch(r"\d+", t)]

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
        stop = StopwordList(words=frozenset({"the", "a"}), language="english")
        assert filter_tokens(["the", "cat", "a", "mat"], stop) == ["cat", "mat"]

    def test_dictionary_keeps_only_known_words(self):
        stop = StopwordList(words=frozenset({"the"}), language="english")
        kept = filter_tokens(["the", "cat", "zzyzx"], stop, dictionary={"cat", "mat"})
        assert kept == ["cat"]

    def test_no_stopword_list_passes_everything(self):
        assert filter_tokens(["a", "b"]) == ["a", "b"]

    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "the"]), max_size=30))
    def test_filter_preserves_relative_order(self, tokens):
        stop = StopwordList(words=frozenset({"the"}), language="english")
        out = filter_tokens(tokens, stop)
        assert out == [t for t in tokens if t != "the"]


class TestStopwordLists:
    def test_bundled_english(self):
        stop = load_stopwords("english")
        assert "the" in stop.words and "and" in stop.words
        assert all(w == w.lower() for w in stop.words)

    def test_bundled_italian(self):
        stop = load_stopwords("italian")
        assert "il" in stop.words and "che" in stop.words

    def test_unknown_language_needs_file(self):
        with pytest.raises(DataError):
            load_stopwords("klingon")

    def test_custom_file_overrides(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("foo\nBAR\n\n")
        stop = load_stopwords("english", str(path))
        assert stop.words == frozenset({"foo", "bar"})

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_bytes(b"\xef\xbb\xbfthe\nand\n")
        assert load_wordlist(str(path)) == {"the", "and"}
        stop = load_stopwords("english", str(path))
        assert filter_tokens(["the", "cat", "and"], stop) == ["cat"]

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

    def test_stem_tokens_dispatch(self):
        assert stem_tokens(["running", "ponies"], "english") == ["run", "poni"]
        with pytest.raises(ConfigError):
            stem_tokens(["x"], "latin")


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
