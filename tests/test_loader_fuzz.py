"""Fuzz the input loaders: whatever bytes a file holds, a loader returns its
rows (with rejection rows, where it keeps them) or raises a DataError, never
another exception."""
from __future__ import annotations

import json
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forumcast.corpus import load_market_series, load_messages
from forumcast.econometrics import CORPUS_FEATURE_COLUMNS
from forumcast.errors import DataError
from forumcast.pipeline import read_features_csv
from forumcast.semantics import load_lexicon, load_precomputed

HORIZON = datetime(2020, 1, 6, tzinfo=timezone.utc)

fuzz = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Cells near the edges of what each loader parses: numbers out of range,
# non-finite values, timestamps at the ends of datetime's range, an integer
# too long for int(), quotes, separators and stray whitespace.
_EDGE_CELLS = [
    "", " ", "0", "-1", "1.5", "-0.0", "1e308", "1e309", "nan", "inf", "-inf", "1_000",
    "١٢", "1" * 4301, "2020-01-06", "2020-01-06T00:00:00Z", "2020-01-06t00:00:00z",
    "0001-01-01T00:00:00+23:59", "9999-12-31T23:59:59-23:59", "2020-02-30", "week", "value",
    '"', '""', ",", "\\", "\x00", "\ud800",
]
cells = st.one_of(
    st.sampled_from(_EDGE_CELLS),
    st.text(max_size=10),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.floats().map(repr),
)


def csv_rows(header: list[str]) -> st.SearchStrategy[str]:
    """CSV text: ``header`` reordered, or a header drawn from its names and
    stray cells, then up to eight rows of zero to six cells."""
    head = st.one_of(
        st.permutations(header),
        st.lists(st.one_of(st.sampled_from(header), cells), max_size=len(header) + 1),
    )
    body = st.lists(st.lists(cells, min_size=0, max_size=6), max_size=8)
    return st.builds(
        lambda h, rows: "\n".join(",".join(row) for row in [list(h), *rows]) + "\n", head, body
    )


def file_bytes(text: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    """``text`` in UTF-8 (a lone surrogate as the three bytes of its code
    point, which no UTF-8 decoder accepts), sometimes spliced with raw bytes
    that need not be UTF-8, or raw bytes alone."""
    encoded = text.map(lambda t: t.encode("utf-8", "surrogatepass"))
    return st.one_of(
        encoded,
        st.tuples(encoded, st.binary(max_size=8), st.integers(min_value=0, max_value=200)).map(
            lambda parts: parts[0][: parts[2]] + parts[1] + parts[0][parts[2]:]
        ),
        st.binary(max_size=64),
    )


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), cells),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
message_fields = st.sampled_from(["id", "author_id", "parent_id", "timestamp", "body"])
json_lines = st.one_of(
    st.dictionaries(st.one_of(message_fields, st.text(max_size=4)), json_values, max_size=6).map(
        json.dumps
    ),
    json_values.map(json.dumps),
    cells,
    st.sampled_from(["{", "[" * 3000 + "]" * 3000, "1" * 4301, '{"id": 1' + "0" * 4400 + "}"]),
)
jsonl_text = st.lists(json_lines, max_size=8).map(lambda lines: "\n".join(lines) + "\n")


def loaded(tmp_path, data: bytes, load, *args):
    """``load`` on a file holding ``data``; None when it raised a DataError."""
    path = tmp_path / "input"
    path.write_bytes(data)
    try:
        return load(str(path), *args)
    except DataError:
        return None


class TestLoadersRaiseOnlyDataErrors:
    @fuzz
    @given(data=file_bytes(jsonl_text))
    def test_messages_jsonl(self, tmp_path, data):
        loaded(tmp_path, data, load_messages, "jsonl")

    @fuzz
    @given(data=file_bytes(csv_rows(["id", "author_id", "parent_id", "timestamp", "body"])))
    def test_messages_csv(self, tmp_path, data):
        loaded(tmp_path, data, load_messages, "csv")

    @pytest.mark.parametrize("key", ["week", "date"])
    @fuzz
    @given(data=st.data())
    def test_market_series(self, tmp_path, key, data):
        raw = data.draw(file_bytes(csv_rows([key, "value"])))
        series = loaded(tmp_path, raw, load_market_series, HORIZON)
        if series is not None:
            assert list(series) == sorted(series)

    @fuzz
    @given(data=file_bytes(csv_rows(["word", "polarity"])))
    def test_lexicon(self, tmp_path, data):
        lexicon = loaded(tmp_path, data, load_lexicon)
        if lexicon is not None:
            assert all(-1.0 <= p <= 1.0 for p in lexicon.values())

    @fuzz
    @given(data=file_bytes(csv_rows(["message_id", "score"])))
    def test_precomputed(self, tmp_path, data):
        scores = loaded(tmp_path, data, load_precomputed)
        if scores is not None:
            assert all(0.0 <= s <= 1.0 for s in scores.values())

    @fuzz
    @given(data=file_bytes(csv_rows(["week", *CORPUS_FEATURE_COLUMNS])))
    def test_features_csv(self, tmp_path, data):
        columns = loaded(tmp_path, data, read_features_csv)
        if columns is not None:
            assert set(columns) == set(CORPUS_FEATURE_COLUMNS)
