from __future__ import annotations

import errno
import hashlib
import math
import os
import re

import numpy as np
import pytest

from forumcast.corpus import load_market_series, load_messages
from forumcast.errors import DataError, OutputError
from forumcast.pipeline import FEATURE_CSV_COLUMNS, read_features_csv
from forumcast.semantics import load_lexicon, load_precomputed
from forumcast.tables import format_cell, open_input, replacing, sha256, write_csv, write_json
from forumcast.textproc import load_wordlist

from conftest import EPOCH

# The market loader on a fixed grid, listed under its own name.
LOAD_MARKET_SERIES = pytest.param(
    lambda path: load_market_series(path, EPOCH), id="load_market_series"
)


class TestFormatCell:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, ""),
            (math.nan, ""),
            (np.float64("nan"), ""),
            (True, "1"),
            (False, "0"),
            (0.1, "0.1"),
            (1e-300, "1e-300"),
            (math.inf, "inf"),
            (np.float64(0.25), "0.25"),
            (3, "3"),
            ("abc", "abc"),
        ],
    )
    def test_spelling(self, value, expected):
        assert format_cell(value) == expected

    def test_float_round_trips(self):
        value = 0.1 + 0.2
        assert float(format_cell(value)) == value


class TestWriters:
    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("a", "b"), [("x,y", 1), ("é", "")])
        assert path.read_bytes() == 'a,b\r\n"x,y",1\r\né,\r\n'.encode("utf-8")

    def test_failed_write_keeps_earlier_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("a",), [(1,), (2,)])
        earlier = path.read_bytes()

        def rows():
            yield (3,)
            raise RuntimeError("crash midway")

        with pytest.raises(RuntimeError, match="crash midway"):
            write_csv(str(path), ("a",), rows())
        assert path.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_json_failure_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.json"
        with pytest.raises(TypeError):
            write_json(str(path), {"a": object()})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fails", ["write", "replace"])
    def test_os_error_is_output_error_and_keeps_earlier_file(self, tmp_path, monkeypatch,
                                                              fails):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("a",), [(1,)])
        earlier = path.read_bytes()

        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with pytest.raises(OutputError, match=re.escape(str(path)) + ".*No space left"):
            if fails == "write":
                with replacing(str(path)) as handle:
                    handle.write("x")
                    full()
            else:
                monkeypatch.setattr(os, "replace", full)
                write_csv(str(path), ("a",), [(2,)])
        assert path.read_bytes() == earlier
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_missing_directory_is_output_error(self, tmp_path):
        path = tmp_path / "absent" / "t.json"
        with pytest.raises(OutputError, match=re.escape(str(path))):
            write_json(str(path), {})

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(str(path), {"b": 1, "a": [2]})
        assert path.read_text(encoding="utf-8") == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


class TestUnreadableInputs:
    @pytest.mark.parametrize(
        "load",
        [
            load_messages,
            LOAD_MARKET_SERIES,
            load_lexicon,
            load_precomputed,
            load_wordlist,
            read_features_csv,
        ],
    )
    def test_non_utf8_is_data_error(self, tmp_path, load):
        path = tmp_path / "input"
        path.write_bytes(b"a,b\nok,\xff\n")
        with pytest.raises(DataError, match=re.escape(str(path))):
            load(str(path))

    @pytest.mark.parametrize(
        "load",
        [
            lambda path: load_messages(path, "csv"),
            LOAD_MARKET_SERIES,
            load_lexicon,
            load_precomputed,
            read_features_csv,
        ],
    )
    def test_oversized_csv_field_is_data_error(self, tmp_path, load):
        # The csv module refuses fields over 131072 characters.
        path = tmp_path / "input"
        path.write_text("x" * 200_000 + ",b\n")
        with pytest.raises(DataError, match=re.escape(str(path)) + ".*field larger"):
            load(str(path))

    @pytest.mark.parametrize("load", [load_lexicon, load_precomputed])
    def test_missing_file_is_data_error(self, tmp_path, load):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataError, match="cannot read"):
            load(str(path))

    def test_data_error_from_the_reader_passes_through(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("x")
        with pytest.raises(DataError, match="^boom$"):
            with open_input(str(path), "thing"):
                raise DataError("boom")


_FEATURE_ROW = ",1" * (len(FEATURE_CSV_COLUMNS) - 1)


class TestRowWidth:
    """One width rule for every table: a row with more or fewer cells than
    the header is refused, with the line it ends on. (A messages row of the
    wrong width is a rejected row: TestLoadMessages.)"""

    @pytest.mark.parametrize("change", ["one_more", "one_less"])
    @pytest.mark.parametrize(
        "load,header,first,second",
        [
            pytest.param(load_lexicon, "word,polarity", "good,0.5", "bad,-0.5", id="lexicon"),
            pytest.param(load_precomputed, "message_id,score", "m0,0.5", "m1,0.25",
                         id="precomputed"),
            # The note column makes a two-cell row one cell short.
            pytest.param(lambda path: load_market_series(path, EPOCH), "week,value,note",
                         "0,1.5,a", "1,2.5,b", id="market_series"),
            pytest.param(read_features_csv, ",".join(FEATURE_CSV_COLUMNS), "0" + _FEATURE_ROW,
                         "1" + _FEATURE_ROW, id="features"),
        ],
    )
    def test_table_row_is_a_data_error(self, tmp_path, load, header, first, second, change):
        cells = second.split(",")
        bad = [*cells, "1"] if change == "one_more" else cells[:-1]
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{first}\n{','.join(bad)}\n")
        with pytest.raises(DataError) as caught:
            load(str(path))
        assert str(caught.value) == (
            f"{path}:3: row has {len(bad)} cells, header has {len(cells)}"
        )


class TestHeaderAndParseFaults:
    """A header that names a column twice is refused, and a cell the csv
    module cannot parse is a fault of its line."""

    @pytest.mark.parametrize(
        "load,header,row,name",
        [
            pytest.param(lambda path: load_market_series(path, EPOCH), "week,value,value",
                         "0,1.0,2.0", "value", id="market_series"),
            pytest.param(load_lexicon, "word,Polarity,polarity ", "good,0.5,-0.5", "polarity",
                         id="lexicon"),
        ],
    )
    def test_repeated_header_name_is_a_data_error(self, tmp_path, load, header, row, name):
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(DataError) as caught:
            load(str(path))
        names = [cell.strip().lower() for cell in header.split(",")]
        assert str(caught.value) == f"{path}: header {names} names {name!r} twice"

    @pytest.mark.parametrize(
        "load,header,first,second",
        [
            pytest.param(lambda path: load_messages(path, "csv"), "id,author_id,timestamp,body",
                         "m0,u0,2020-01-06T10:00:00Z,hello",
                         "m1,u1,2020-01-06T11:00:00Z,{}", id="messages"),
            pytest.param(lambda path: load_market_series(path, EPOCH), "week,value",
                         "0,1.5", "1,{}", id="market_series"),
            pytest.param(load_lexicon, "word,polarity", "good,0.5", "{},-0.5", id="lexicon"),
        ],
    )
    def test_oversized_field_names_its_line(self, tmp_path, load, header, first, second):
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{first}\n{second.format('x' * 200_000)}\n")
        with pytest.raises(DataError) as caught:
            load(str(path))
        assert str(caught.value) == f"{path}:3: field larger than field limit (131072)"


class TestSha256:
    def test_is_cpython_builtin_not_openssl(self):
        assert sha256.__module__ in ("_sha2", "_sha256")
        assert sha256 is not hashlib.sha256

    @pytest.mark.parametrize("size", [0, 1, 55, 56, 64, 1000, (1 << 20) + 3])
    def test_matches_hashlib(self, size):
        data = bytes(range(256)) * (size // 256) + bytes(size % 256)
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
        digest = sha256()
        for start in range(0, size, 4099):
            digest.update(data[start:start + 4099])
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
