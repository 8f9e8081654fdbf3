from __future__ import annotations

import math
import re
import statistics
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forumcast.errors import DataError, MissingScoreError
from forumcast.semantics import (
    LexiconScorer,
    PrecomputedScorer,
    complexity,
    emotionality,
    load_lexicon,
    load_precomputed,
    score_message,
    window_sentiment,
)
from forumcast.textproc import (
    TokenFilter,
    build_vocabulary,
    token_surprisal,
    tokenize,
)

from conftest import make_message

scores_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0),
    min_size=1,
    max_size=20,
)


class TestMessageScoring:
    def test_no_lexicon_match_is_neutral(self):
        msg = make_message("m", "u", body="completely unknown words")
        assert score_message(msg, tokenize(msg.body), LexiconScorer({"gain": 1.0})) == 0.5

    def test_all_positive_tokens_hit_ceiling(self):
        msg = make_message("m", "u", body="gain gain gain")
        assert score_message(msg, tokenize(msg.body), LexiconScorer({"gain": 1.0})) == 1.0

    def test_opposite_polarities_cancel(self):
        msg = make_message("m", "u", body="gain loss")
        scorer = LexiconScorer({"gain": 1.0, "loss": -1.0})
        assert score_message(msg, tokenize(msg.body), scorer) == 0.5

    def test_matching_is_token_based(self):
        msg = make_message("m", "u", body="Gains? GAIN!")
        scorer = LexiconScorer({"gain": 0.5})
        # "gains" is a different token; only "gain" matches
        assert score_message(msg, tokenize(msg.body), scorer) == 0.75

    def test_all_digit_tokens_never_count(self):
        msg = make_message("m", "u", body="gain 42 ٤٢")
        scorer = LexiconScorer({"gain": 1.0, "42": -1.0, "٤٢": -1.0})
        tokens = tokenize(msg.body)
        assert tokens == ["gain", "42", "٤٢"]
        assert score_message(msg, tokens, scorer) == 1.0
        stop = frozenset({"the"})
        for keep_digits in (False, True):
            stream = TokenFilter(stop, keep_digits=keep_digits).stream(tokens)
            assert score_message(msg, stream, scorer) == 1.0

    def test_precomputed_lookup(self):
        msg = make_message("m7", "u")
        scorer = PrecomputedScorer({"m7": 0.25})
        assert score_message(msg, tokenize(msg.body), scorer) == 0.25

    def test_precomputed_missing_id_named(self):
        scorer = PrecomputedScorer({"other": 0.5})
        with pytest.raises(MissingScoreError, match="m9"):
            score_message(make_message("m9", "u"), [], scorer)


class TestWindowAggregates:
    def test_sentiment_mean(self):
        vals = [0.2, 0.4, 0.9]
        assert window_sentiment(vals) == pytest.approx(0.5)

    def test_empty_window_is_missing(self):
        assert window_sentiment([]) is None
        assert emotionality([]) is None
        assert complexity([], build_vocabulary([["a"]])) is None

    def test_emotionality_population_stddev(self):
        assert emotionality([0.0, 1.0]) == pytest.approx(0.5)
        assert emotionality([0.5]) == 0.0
        constant = [0.7] * 4
        assert emotionality(constant) == 0.0

    @given(scores_strategy)
    def test_population_variance_identity(self, scores):
        emo = emotionality(scores)
        mean = window_sentiment(scores)
        mean_sq = statistics.fmean(s * s for s in scores)
        assert emo is not None and mean is not None
        assert emo * emo + mean * mean == pytest.approx(mean_sq, rel=1e-12, abs=1e-12)

    @given(st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0]),
        ),
        min_size=1,
        max_size=60,
    ))
    def test_sentiment_is_fmean_bitwise(self, values):
        assert window_sentiment(values) == statistics.fmean(values)

    # Python 3.10's pstdev rounds twice: a float square root of a rounded
    # variance. From 3.11 on it rounds the exact root once, as emotionality does.
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="pstdev rounds twice before 3.11")
    @given(st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.7, 1.0]),
            st.floats(min_value=0.0, max_value=1e-300),
        ),
        min_size=1,
        max_size=30,
    ))
    def test_emotionality_is_pstdev_bitwise(self, values):
        emo = emotionality(values)
        assert emo == statistics.pstdev(values)
        assert math.copysign(1.0, emo) == 1.0

    @given(scores_strategy, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, scores, rnd):
        shuffled = list(scores)
        rnd.shuffle(shuffled)
        assert window_sentiment(scores) == pytest.approx(window_sentiment(shuffled))
        assert emotionality(scores) == pytest.approx(emotionality(shuffled))


class TestComplexity:
    def test_single_repeated_word_is_zero(self):
        vocab = build_vocabulary([["echo"] * 9])
        assert complexity([["echo", "echo"]], vocab) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_vocabulary_log2_k(self):
        for k in (2, 4, 16):
            vocab = build_vocabulary([[f"w{i}" for i in range(k)]])
            value = complexity([[f"w{0}", f"w{1}"]], vocab)
            assert value == pytest.approx(math.log2(k), abs=1e-12)

    def test_unknown_tokens_score_as_count_one(self):
        vocab = build_vocabulary([["common"] * 7, ["rare"]])
        known_rare = complexity([["rare"]], vocab)
        unknown = complexity([["neverseen"]], vocab)
        assert known_rare == pytest.approx(unknown)

    def test_matches_per_token_mean_exactly(self):
        vocab = build_vocabulary([["alpha"] * 4, ["beta", "gamma", "beta"], ["gamma", "gamma"]])
        window = [["unseen", "gamma"], [], ["neverseen"]]
        total = 0.0
        for token in (t for stream in window for t in stream):
            total += token_surprisal(token, vocab)
        assert complexity(window, vocab) == total / 3
        assert complexity(window, vocab) == total / 3  # from the table built by the first call

    @given(
        st.lists(st.lists(st.sampled_from("abcdef"), max_size=9), max_size=4),
        st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=9), max_size=4),
    )
    def test_matches_the_per_token_loop_bit_for_bit(self, counted, window):
        # The window may hold words the vocabulary never counted ("g", "h",
        # and any letter missing from ``counted``), and the vocabulary may be
        # empty.
        vocab = build_vocabulary(counted)
        tokens = [token for stream in window for token in stream]
        if tokens and vocab.total == 0:
            with pytest.raises(ValueError):
                complexity(window, vocab)
            return
        total = 0.0
        for token in tokens:
            total += token_surprisal(token, vocab)
        expected = total / len(tokens) if tokens else None
        value = complexity(window, vocab)
        assert (value is None) == (expected is None)
        if tokens:
            assert value.hex() == expected.hex()

    def test_rarer_replacement_increases_complexity(self):
        vocab = build_vocabulary([["common"] * 10, ["rare"] * 2])
        low = complexity([["common", "common"]], vocab)
        high = complexity([["common", "rare"]], vocab)
        assert high > low


class TestLexiconFiles:
    def test_load_lexicon(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("word,polarity\ngain,0.8\nloss,-0.8\n")
        assert load_lexicon(str(path)) == {"gain": 0.8, "loss": -0.8}

    def test_lexicon_validation(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("term,polarity\nx,0.1\n")
        with pytest.raises(DataError):
            load_lexicon(str(bad_header))

        out_of_range = tmp_path / "b.csv"
        out_of_range.write_text("word,polarity\nx,2.0\n")
        with pytest.raises(DataError, match="outside"):
            load_lexicon(str(out_of_range))

        duplicate = tmp_path / "c.csv"
        duplicate.write_text("word,polarity\nx,0.5\nx,0.6\n")
        with pytest.raises(DataError, match="duplicate"):
            load_lexicon(str(duplicate))

    def test_load_precomputed(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("message_id,score\nm1,0.5\nm2,1.0\n")
        assert load_precomputed(str(path)) == {"m1": 0.5, "m2": 1.0}

    def test_precomputed_score_range(self, tmp_path):
        path = tmp_path / "scores.csv"
        for value, reason in (("1.2", "outside [0, 1]"), ("-0.1", "outside [0, 1]"),
                              ("nan", "is not finite")):
            path.write_text(f"message_id,score\nm0,0.5\nm1,{value}\n")
            with pytest.raises(DataError, match=re.escape(f"{path}:3: score '{value}' {reason}")):
                load_precomputed(str(path))
