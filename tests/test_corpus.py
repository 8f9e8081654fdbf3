from __future__ import annotations

import math
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forumcast.corpus import (
    RejectedRow,
    load_market_series,
    load_messages,
    parse_timestamp,
    partition_weeks,
    window_index,
    write_rejections,
)
from forumcast.econometrics import CORPUS_FEATURE_COLUMNS, build_panel
from forumcast.errors import DataError

from conftest import EPOCH, make_message


class TestParseTimestamp:
    def test_zulu_suffix(self):
        ts = parse_timestamp("2020-01-06T00:00:00Z")
        assert ts == datetime(2020, 1, 6, tzinfo=timezone.utc)

    def test_explicit_offset_normalized_to_utc(self):
        ts = parse_timestamp("2020-01-06T01:30:00+02:00")
        assert ts == datetime(2020, 1, 5, 23, 30, tzinfo=timezone.utc)
        assert ts.utcoffset() == timedelta(0)

    def test_naive_becomes_utc(self):
        ts = parse_timestamp("2020-01-06T00:00:00")
        assert ts.tzinfo == timezone.utc

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("last tuesday")

    @pytest.mark.parametrize("raw", ["9999-12-31T23:00:00-05:00", "0001-01-01T00:30:00+01:00"])
    def test_outside_utc_range_is_value_error(self, raw):
        with pytest.raises(ValueError, match="out of range"):
            parse_timestamp(raw)


class TestLoadMessages:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z", "body": "hi"}\n'
            "\n"
            '{"id": "b", "author_id": "u2", "timestamp": "2020-01-06T01:00:00Z",'
            ' "body": "yo", "parent_id": "a"}\n'
        )
        messages, rejections = load_messages(str(path), "jsonl")
        assert [m.id for m in messages] == ["a", "b"]
        assert messages[1].parent_id == "a"
        assert rejections == []

    def test_jsonl_rejects_carry_line_numbers(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            "not json\n"
            '{"id": "a", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z", "body": "x"}\n'
            '{"author_id": "u1", "timestamp": "2020-01-06T00:00:00Z", "body": "no id"}\n'
            '{"id": "a", "author_id": "u9", "timestamp": "2020-01-06T00:00:00Z", "body": "dup"}\n'
            '{"id": "c", "author_id": "u1", "timestamp": "whenever", "body": "bad ts"}\n'
        )
        messages, rejections = load_messages(str(path), "jsonl")
        assert [m.id for m in messages] == ["a"]
        assert [r.line for r in rejections] == [1, 3, 4, 5]
        assert "missing required field 'id'" in rejections[1].reason
        assert "duplicate message id 'a'" in rejections[2].reason
        assert "timestamp" in rejections[3].reason

    def test_timestamp_outside_utc_range_is_rejected_row(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z", "body": "x"}\n'
            '{"id": "b", "author_id": "u1", "timestamp": "9999-12-31T23:00:00-05:00",'
            ' "body": "y"}\n'
        )
        messages, rejections = load_messages(str(path), "jsonl")
        assert [m.id for m in messages] == ["a"]
        assert [r.line for r in rejections] == [2]
        assert rejections[0].reason.startswith("unparseable timestamp")

    def test_lone_surrogate_is_rejected_row(self, tmp_path):
        # \ud800 alone cannot be written as UTF-8; a surrogate pair can.
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "a", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z", "body": "x"}\n'
            '{"id": "x\\ud800", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z"}\n'
            '{"id": "b", "author_id": "u\\udfff", "timestamp": "2020-01-06T00:00:00Z"}\n'
            '{"id": "c", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z",'
            ' "parent_id": "a\\udc00"}\n'
            '{"id": "d", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z",'
            ' "body": "smile \\ud83d\\ude00 and \\ud83d"}\n'
            '{"id": "e", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z",'
            ' "body": "smile \\ud83d\\ude00"}\n'
        )
        messages, rejections = load_messages(str(path), "jsonl")
        assert [m.id for m in messages] == ["a", "e"]
        assert messages[1].body == "smile \U0001f600"
        assert [(r.line, r.reason.split("'")[1]) for r in rejections] == [
            (2, "id"), (3, "author_id"), (4, "parent_id"), (5, "body")
        ]
        out = tmp_path / "rejections.csv"
        write_rejections(str(out), rejections)
        assert "lone surrogate" in out.read_text(encoding="utf-8")

    def test_csv_with_a_surrogate_is_refused_whole(self, tmp_path):
        # A CSV file cannot carry a lone surrogate: its bytes are not UTF-8.
        path = tmp_path / "m.csv"
        path.write_bytes(
            "id,author_id,timestamp,body\nx\ud800,u1,2020-01-06T00:00:00Z,hi\n".encode(
                "utf-8", "surrogatepass"
            )
        )
        with pytest.raises(DataError, match="cannot read messages file"):
            load_messages(str(path), "csv")

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,who,timestamp,body\n")
        with pytest.raises(DataError):
            load_messages(str(path), "csv")

    def test_csv_parses_and_empty_parent_is_none(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "id,author_id,timestamp,body,parent_id\n"
            "a,u1,2020-01-06T00:00:00Z,hello,\n"
            "b,u2,2020-01-06T01:00:00Z,reply,a\n"
        )
        messages, rejections = load_messages(str(path), "csv")
        assert messages[0].parent_id is None
        assert messages[1].parent_id == "a"
        assert rejections == []

    def test_csv_row_of_wrong_width_is_rejected(self, tmp_path):
        # An unquoted comma in a body gives the row a cell too many; a row
        # without its last cell has one too few. Neither loads cut short.
        path = tmp_path / "m.csv"
        path.write_text(
            "id,author_id,timestamp,body,parent_id\n"
            "a,u1,2020-01-06T00:00:00Z,hello,\n"
            "b,u2,2020-01-06T01:00:00Z,hello, world and more,a\n"
            "\n"
            "c,u3,2020-01-06T02:00:00Z,short\n"
            "d,u4,2020-01-06T03:00:00Z,\"quoted, comma\",a\n"
        )
        messages, rejections = load_messages(str(path), "csv")
        assert [(m.id, m.body) for m in messages] == [("a", "hello"), ("d", "quoted, comma")]
        assert rejections == [
            RejectedRow(3, "row has 6 cells, header has 5"),
            RejectedRow(5, "row has 4 cells, header has 5"),
        ]

    def test_csv_header_names_are_stripped_and_lowercased(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(" ID ,Author_Id,TIMESTAMP,Body\na,u1,2020-01-06T00:00:00Z,hi\n")
        messages, rejections = load_messages(str(path), "csv")
        assert [(m.id, m.author_id, m.body) for m in messages] == [("a", "u1", "hi")]
        assert rejections == []

    def test_jsonl_byte_order_mark_is_skipped(self, tmp_path):
        # The first line starts after the mark: its message is kept, not
        # rejected as undecodable JSON.
        path = tmp_path / "m.jsonl"
        path.write_bytes(
            b"\xef\xbb\xbf"
            b'{"id": "a", "author_id": "u1", "timestamp": "2020-01-06T00:00:00Z", "body": "hi"}\n'
            b"not json\n"
        )
        messages, rejections = load_messages(str(path), "jsonl")
        assert [m.id for m in messages] == ["a"]
        assert [r.line for r in rejections] == [2]

    def test_csv_byte_order_mark_is_skipped(self, tmp_path):
        # The header's first column is "id", not "\ufeffid".
        path = tmp_path / "m.csv"
        path.write_bytes(
            b"\xef\xbb\xbfid,author_id,timestamp,body,parent_id\n"
            b"a,u1,2020-01-06T00:00:00Z,hello,\n"
        )
        messages, rejections = load_messages(str(path), "csv")
        assert [m.id for m in messages] == ["a"]
        assert rejections == []

    def test_rejection_report_written(self, tmp_path):
        out = tmp_path / "rej.csv"
        from forumcast.corpus import RejectedRow

        write_rejections(str(out), [RejectedRow(3, "bad timestamp")])
        assert out.read_text().splitlines() == ["line,reason", "3,bad timestamp"]


class TestWindows:
    def test_boundaries_half_open(self):
        start = make_message("start", "u1", week=0)
        end = make_message("end", "u1", week=1)
        assert start.timestamp == EPOCH
        assert end.timestamp == EPOCH + timedelta(days=7)
        corpus = partition_weeks([end, start], EPOCH, 2)
        assert [m.id for m in corpus.messages_by_window[0]] == ["start"]
        assert [m.id for m in corpus.messages_by_window[1]] == ["end"]
        assert corpus.dropped == []
        # a message at the horizon's end falls outside it
        assert [m.id for m in partition_weeks([end, start], EPOCH, 1).dropped] == ["end"]

    def test_window_index_floors(self):
        assert window_index(EPOCH + timedelta(days=13, hours=23), EPOCH) == 1
        assert window_index(EPOCH - timedelta(seconds=1), EPOCH) == -1

    def test_late_week_boundary_is_exact(self):
        # From week 16385 on, a float quotient of the two timedeltas rounds
        # an instant 1 microsecond before a week's end up to the next week.
        for week in (16385, 40000):
            end = EPOCH + (week + 1) * timedelta(days=7)
            last = make_message("last", "u1")._replace(timestamp=end - timedelta(microseconds=1))
            first = make_message("first", "u1")._replace(timestamp=end)
            assert window_index(last.timestamp, EPOCH) == week
            corpus = partition_weeks([first, last], EPOCH, week + 2)
            assert [m.id for m in corpus.messages_by_window[week]] == ["last"]
            assert [m.id for m in corpus.messages_by_window[week + 1]] == ["first"]

    def test_partition_assigns_and_drops(self):
        inside = make_message("a", "u1", week=0)
        later = make_message("b", "u1", week=3)
        outside = make_message("c", "u1", week=9)
        corpus = partition_weeks([outside, later, inside], EPOCH, 4)
        assert [m.id for m in corpus.messages_by_window[0]] == ["a"]
        assert [m.id for m in corpus.messages_by_window[3]] == ["b"]
        assert [m.id for m in corpus.dropped] == ["c"]
        assert corpus.week_count == 4

    @given(st.permutations(list(range(8))))
    def test_partition_is_order_independent(self, order):
        base = [make_message(f"m{i}", "u1", week=i % 3, offset_hours=i) for i in range(8)]
        shuffled = [base[i] for i in order]
        a = partition_weeks(base, EPOCH, 3)
        b = partition_weeks(shuffled, EPOCH, 3)
        assert a.messages_by_window == b.messages_by_window


def _features(weeks: int) -> dict[str, list[float]]:
    return {name: [1.0] * weeks for name in CORPUS_FEATURE_COLUMNS}


class TestMarketSeries:
    def test_gaps_become_nan(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("week,value\n2,3.0\n0,1.0\n")
        series = load_market_series(str(path), EPOCH)
        assert series == {0: 1.0, 2: 3.0} and list(series) == [0, 2]
        dense = build_panel(_features(4), series, {0: 1.0})["price"].values
        assert dense[0] == 1.0 and dense[2] == 3.0
        assert math.isnan(dense[1]) and math.isnan(dense[3])

    def test_out_of_grid_rejected(self):
        with pytest.raises(DataError, match=re.escape("price: week 5 outside the 0..2 grid")):
            build_panel(_features(3), {5: 1.0}, {0: 1.0})
        with pytest.raises(DataError, match=re.escape("control: week -1 outside the 0..2 grid")):
            build_panel(_features(3), {0: 1.0}, {-1: 1.0})

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        for cell in ("inf", "-inf", "nan"):
            path.write_text(f"week,value\n0,1.0\n1,{cell}\n")
            with pytest.raises(DataError, match=re.escape(f"{path}:3: value '{cell}' is not finite")):
                load_market_series(str(path), EPOCH)

    def test_load_week_value(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("week,value\n0,10.5\n1,11.0\n")
        assert load_market_series(str(path), EPOCH) == {0: 10.5, 1: 11.0}

    def test_load_date_value_needs_horizon(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,value\n2020-01-13,42.0\n")
        assert load_market_series(str(path), EPOCH) == {1: 42.0}

    def test_date_before_a_late_week_end_stays_in_its_week(self, tmp_path):
        end = EPOCH + 16386 * timedelta(days=7)
        path = tmp_path / "p.csv"
        path.write_text(
            f"date,value\n{(end - timedelta(microseconds=1)).isoformat()},1.0\n"
            f"{end.isoformat()},2.0\n"
        )
        assert load_market_series(str(path), EPOCH) == {16385: 1.0, 16386: 2.0}

    def test_date_outside_utc_range_names_file_and_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,value\n2020-01-13,42.0\n9999-12-31T23:00:00-05:00,1.0\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3: bad week key")):
            load_market_series(str(path), EPOCH)

    @pytest.mark.parametrize("text", ["weeks,value\n", "weeks,value\n0,1.0\n", "value\n"])
    def test_header_without_week_or_date_is_refused(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: header .* lacks week or date$"):
            load_market_series(str(path), EPOCH)

    def test_columns_are_found_by_name(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("Value, Week ,source\n1.5,2,exchange\n")
        assert load_market_series(str(path), EPOCH) == {2: 1.5}

    def test_duplicate_week_named_in_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("week,value\n0,1.0\n0,2.0\n")
        with pytest.raises(DataError, match="week 0"):
            load_market_series(str(path), EPOCH)
