"""End-to-end pipeline and CLI tests on a 3-week corpus small enough to
check every feature cell by hand.

Week 0: three messages, reply fan-in to one author, focal word present.
Week 1: empty.
Week 2: cross-week reply, one dangling parent, focal word absent.
One extra message sits before the horizon and must not leak into anything.
"""
from __future__ import annotations

import csv
import errno
import gc
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path

import pytest

from forumcast import cli, pipeline
from forumcast.centrality import PathCountOverflow
from forumcast.cli import main
from forumcast.config import PipelineConfig, load_config, save_config, to_dict
from forumcast.corpus import ingest_check, load_messages
from forumcast.errors import (
    AnalysisError,
    ConfigError,
    DataError,
    ForumcastError,
    InsufficientDataError,
    MissingScoreError,
    OutputError,
    WorkerError,
)
from forumcast.pipeline import (
    DIAGNOSTIC_CSV_COLUMNS,
    FEATURE_CSV_COLUMNS,
    _compute_chunk,
    config_hash,
    read_features_csv,
    run_all,
    run_analyze,
    run_features,
)
from forumcast.synth import generate_demo
from forumcast.tables import write_csv

HORIZON = "2020-01-06T00:00:00Z"

_MESSAGES = [
    {"id": "m0", "author_id": "eve", "timestamp": "2019-12-30T12:00:00Z",
     "body": "zebra xylophone"},
    {"id": "m1", "author_id": "alice", "timestamp": "2020-01-06T10:00:00Z",
     "body": "acme widget launch good"},
    {"id": "m2", "author_id": "bob", "timestamp": "2020-01-06T11:00:00Z",
     "body": "widget demo bad", "parent_id": "m1"},
    {"id": "m3", "author_id": "carol", "timestamp": "2020-01-06T12:00:00Z",
     "body": "launch demo good good", "parent_id": "m1"},
    {"id": "m4", "author_id": "alice", "timestamp": "2020-01-20T09:00:00Z",
     "body": "widget demo", "parent_id": "m2"},
    {"id": "m5", "author_id": "dave", "timestamp": "2020-01-20T10:00:00Z",
     "body": "bad launch", "parent_id": "ghost"},
]


def make_inputs(tmp_path) -> PipelineConfig:
    messages = tmp_path / "messages.jsonl"
    messages.write_text("".join(json.dumps(m, sort_keys=True) + "\n" for m in _MESSAGES))
    (tmp_path / "price.csv").write_text("week,value\n0,10.0\n1,11.0\n2,13.0\n")
    (tmp_path / "control.csv").write_text("week,value\n0,5.0\n1,6.0\n2,6.5\n")
    (tmp_path / "lexicon.csv").write_text("word,polarity\ngood,1.0\nbad,-1.0\n")
    return PipelineConfig(
        messages_path=str(messages),
        price_path=str(tmp_path / "price.csv"),
        control_path=str(tmp_path / "control.csv"),
        lexicon_path=str(tmp_path / "lexicon.csv"),
        horizon_start=HORIZON,
        horizon_weeks=3,
        focal_word="acme",
        output_dir=str(tmp_path / "out"),
    )


@pytest.fixture()
def config(tmp_path) -> PipelineConfig:
    return make_inputs(tmp_path)


def read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def disk_full(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def write_messages(config, rows) -> None:
    """Replace the corpus with ``rows``: (id, author, week, parent) tuples,
    posted an hour apart in input order, each with a two-word body."""
    with open(config.messages_path, "w") as handle:
        for hour, (msg_id, author, week, parent) in enumerate(rows):
            record = {"id": msg_id, "author_id": author, "body": "widget demo",
                      "timestamp": f"2020-01-{6 + 7 * week:02d}T{hour % 24:02d}:00:00Z"}
            if parent is not None:
                record["parent_id"] = parent
            handle.write(json.dumps(record) + "\n")


class TestFeatureValues:
    def test_week_grid(self, config):
        rows = run_features(config)
        assert [r.week for r in rows] == [0, 1, 2]

    def test_week0_by_hand(self, config):
        w0 = run_features(config)[0]
        assert w0.activity == 3
        # 6 pairs from m1, 3 from m2, 5 stored from m3 (good/good is a self event)
        assert w0.activity_words == 14
        assert w0.group_degree == pytest.approx(0.5)
        assert w0.group_betweenness == pytest.approx(0.0)
        # acme: 3 outgoing arcs among 6 word nodes
        assert w0.focal_degree == pytest.approx(3 / 10)
        assert w0.focal_betweenness == pytest.approx(0.0)
        assert w0.focal_present is True
        assert w0.sentiment == pytest.approx(2 / 3)
        assert w0.emotionality == pytest.approx(math.sqrt(2.0) / 3.0)
        expected_complexity = (math.log2(15) + 9 * math.log2(5) + math.log2(7.5)) / 11
        assert w0.complexity == pytest.approx(expected_complexity, abs=1e-12)

    def test_empty_week_is_missing_not_zero(self, config):
        w1 = run_features(config)[1]
        assert w1.activity == 0
        assert w1.activity_words == 0
        assert w1.group_degree is None
        assert w1.group_betweenness is None
        assert w1.focal_present is False
        assert w1.focal_degree == 0.0
        assert w1.sentiment is None
        assert w1.emotionality is None
        assert w1.complexity is None

    def test_week2_by_hand(self, config):
        w2 = run_features(config)[2]
        assert w2.activity == 2
        assert w2.activity_words == 2
        # alice -> bob via the cross-week reply; dave is isolated; n = 3
        assert w2.group_degree == pytest.approx(0.25)
        assert w2.group_betweenness == pytest.approx(0.0)
        assert w2.focal_present is False
        assert w2.focal_degree == 0.0
        assert w2.sentiment == pytest.approx(0.25)
        assert w2.emotionality == pytest.approx(0.25)
        expected = (3 * math.log2(5) + math.log2(7.5)) / 4
        assert w2.complexity == pytest.approx(expected, abs=1e-12)

    def test_out_of_horizon_words_not_in_vocabulary(self, config):
        # if m0 leaked into the vocabulary, week-0 complexity would shift
        rows = run_features(config)
        leaked = (math.log2(17) + 9 * math.log2(17 / 3) + math.log2(8.5)) / 11
        assert rows[0].complexity != pytest.approx(leaked, abs=1e-9)


class TestTextPass:
    def test_each_message_tokenized_once(self, config, monkeypatch):
        import forumcast.pipeline as pipeline

        calls = []
        tokenize = pipeline.tokenize

        def counting(body, **kwargs):
            calls.append(body)
            return tokenize(body, **kwargs)

        monkeypatch.setattr(pipeline, "tokenize", counting)
        run_features(config)
        in_horizon = [m["body"] for m in _MESSAGES if m["id"] != "m0"]
        assert sorted(calls) == sorted(in_horizon + [config.focal_word])


class TestFeatureCsv:
    def test_round_trip(self, config, tmp_path):
        rows = run_features(config)
        path = os.path.join(config.output_dir, "features.csv")
        columns = read_features_csv(path)
        assert columns["activity"] == [3.0, 0.0, 2.0]
        assert columns["group_degree"] == [0.5, None, 0.25]
        assert columns["sentiment"][1] is None

        with open(path, newline="") as handle:
            header = next(csv.reader(handle))
        assert tuple(header) == FEATURE_CSV_COLUMNS

    def test_empty_cells_stay_empty(self, config):
        run_features(config)
        rows = read_rows(os.path.join(config.output_dir, "features.csv"))
        assert rows[1]["group_degree"] == ""
        assert rows[1]["sentiment"] == ""
        assert rows[1]["focal_present"] == "0"
        assert rows[0]["focal_present"] == "1"

    def test_read_rejects_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("week,activity\n0,1\n")
        with pytest.raises(DataError, match="sentiment"):
            read_features_csv(str(path))

    def test_read_rejects_week_gap(self, config, tmp_path):
        rows = run_features(config)
        path = tmp_path / "gappy.csv"
        write_csv(str(path), FEATURE_CSV_COLUMNS, [rows[0], rows[2]])
        with pytest.raises(DataError, match="without gaps"):
            read_features_csv(str(path))

    @pytest.mark.parametrize("cells", [len(FEATURE_CSV_COLUMNS) - 2, len(FEATURE_CSV_COLUMNS) + 1])
    def test_read_rejects_row_of_wrong_width(self, tmp_path, cells):
        path = tmp_path / "bad.csv"
        header = ",".join(FEATURE_CSV_COLUMNS)
        full = "0" + ",1" * (len(FEATURE_CSV_COLUMNS) - 1)
        path.write_text(f"{header}\n{full}\n1" + ",1" * (cells - 1) + "\n")
        message = f"{path}:3: row has {cells} cells, header has {len(FEATURE_CSV_COLUMNS)}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read_features_csv(str(path))

    def test_read_rejects_bad_week(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(FEATURE_CSV_COLUMNS)
        path.write_text(header + "\n" + "x" + ",1" * (len(FEATURE_CSV_COLUMNS) - 1) + "\n")
        with pytest.raises(DataError, match="week"):
            read_features_csv(str(path))

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan"])
    def test_read_rejects_infinite_cell(self, config, tmp_path, cell):
        rows = [row._replace(complexity=cell) if row.week == 1 else row
                for row in run_features(config)]
        path = tmp_path / "infinite.csv"
        write_csv(str(path), FEATURE_CSV_COLUMNS, rows)
        message = f"{path}:3: complexity '{cell}' is not finite"
        with pytest.raises(DataError, match=re.escape(message)):
            read_features_csv(str(path))

    def test_read_rejects_duplicate_week(self, config, tmp_path):
        rows = run_features(config)
        path = tmp_path / "twice.csv"
        write_csv(str(path), FEATURE_CSV_COLUMNS, [rows[0], rows[1], rows[1], rows[2]])
        with pytest.raises(DataError, match=re.escape(f"{path}:4: duplicate week 1")):
            read_features_csv(str(path))

    def test_read_rejects_table_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(FEATURE_CSV_COLUMNS) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: feature table has no rows")):
            read_features_csv(str(path))


class TestGraphExports:
    def _table(self, config, kind) -> list[dict[str, str]]:
        return read_rows(os.path.join(config.output_dir, "graphs", f"{kind}_edges.csv"))

    def test_exports_match_feature_cells(self, config):
        rows = run_features(config)
        week0 = read_rows(os.path.join(config.output_dir, "diagnostics.csv"))[0]
        assert int(week0["word_total_weight"]) == rows[0].activity_words == 14
        assert week0["word_self_loop_events"] == "1"
        assert week0["word_n"] == "6"

        arcs = [a for a in self._table(config, "interaction") if a["week"] == "0"]
        assert [(a["source"], a["target"], a["weight"]) for a in arcs] == [
            ("bob", "alice", "1"),
            ("carol", "alice", "1"),
        ]

    def test_edge_table_layout(self, config):
        run_features(config)
        path = os.path.join(config.output_dir, "graphs", "interaction_edges.csv")
        with open(path, "rb") as handle:
            assert handle.read() == (
                b"week,source,target,weight\r\n"
                b"0,bob,alice,1\r\n0,carol,alice,1\r\n2,alice,bob,1\r\n"
            )
        words = self._table(config, "words")
        keys = [(int(r["week"]), r["source"], r["target"]) for r in words]
        assert keys == sorted(keys)
        assert {r["week"] for r in words} == {"0", "2"}

    def test_export_opt_out(self, config):
        config.export_graphs = False
        run_features(config)
        assert not os.path.isdir(os.path.join(config.output_dir, "graphs"))
        assert os.path.isfile(os.path.join(config.output_dir, "diagnostics.csv"))

    def _exports(self, config) -> list[str]:
        return sorted(os.listdir(os.path.join(config.output_dir, "graphs")))

    def test_rerun_with_fewer_weeks_removes_stale_exports(self, config):
        run_features(config)
        assert self._exports(config) == ["interaction_edges.csv", "words_edges.csv"]
        assert "2" in {r["week"] for r in self._table(config, "words")}
        # week_notes.txt is no export
        with open(os.path.join(config.output_dir, "graphs", "week_notes.txt"), "w") as handle:
            handle.write("not an export")
        config.horizon_weeks = 1
        run_features(config)
        assert self._exports(config) == [
            "interaction_edges.csv",
            "week_notes.txt",
            "words_edges.csv",
        ]
        for kind in ("interaction", "words"):
            assert {r["week"] for r in self._table(config, kind)} == {"0"}

    def test_rerun_without_exports_removes_stale_exports(self, config):
        run_features(config)
        config.export_graphs = False
        run_features(config)
        assert self._exports(config) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_window_leaves_no_table_or_temp_file(self, config, monkeypatch, workers):
        config.workers = workers
        run_features(config)
        assert self._exports(config) == ["interaction_edges.csv", "words_edges.csv"]
        export = pipeline._export_graphs

        def failing(tables, index, *args):
            if index == 2:
                raise DataError("disk on fire")
            return export(tables, index, *args)

        monkeypatch.setattr(pipeline, "_export_graphs", failing)
        with pytest.raises(DataError, match="disk on fire"):
            run_features(config)
        # the earlier run's tables went as stale exports; the failed run's
        # tables never appear, and their temp files are gone
        assert self._exports(config) == []

    def test_rejections_file_always_written(self, config):
        run_features(config)
        path = os.path.join(config.output_dir, "rejections.csv")
        assert os.path.isfile(path)
        assert read_rows(path) == []


class TestDiagnostics:
    def _rows(self, config) -> list[dict[str, str]]:
        return read_rows(os.path.join(config.output_dir, "diagnostics.csv"))

    def test_rows_by_hand(self, config):
        run_features(config)
        path = os.path.join(config.output_dir, "diagnostics.csv")
        with open(path, newline="") as handle:
            assert tuple(next(csv.reader(handle))) == DIAGNOSTIC_CSV_COLUMNS
        rows = [{k: int(v) for k, v in r.items()} for r in self._rows(config)]
        # 14 events on 11 arcs: launch->good and demo->good occur twice in m3
        assert [r["week"] for r in rows] == [0, 1, 2]
        assert [r["messages"] for r in rows] == [3, 0, 2]
        assert rows[0] == {
            "week": 0, "messages": 3, "word_n": 6, "word_m": 11, "word_total_weight": 14,
            "word_self_loop_events": 1, "interaction_n": 3, "interaction_m": 2,
            "interaction_total_weight": 2, "comments": 2, "self_replies": 0,
            "dangling_parents": 0,
        }
        # the cross-week reply makes an arc; the reply to "ghost" dangles
        assert (rows[2]["interaction_m"], rows[2]["comments"], rows[2]["dangling_parents"]) \
            == (1, 2, 1)

    def _demo(self, tmp_path, weeks=12):
        paths = generate_demo(str(tmp_path / "demo"), seed=7, weeks=weeks)
        config = load_config(paths["config"])
        config.output_dir = str(tmp_path / "out")
        return config

    def test_reply_tallies_add_up(self, config, tmp_path):
        for cfg in (config, self._demo(tmp_path)):
            run_features(cfg)
            rows = self._rows(cfg)
            assert rows
            for r in rows:
                assert (int(r["interaction_total_weight"]) + int(r["self_replies"])
                        + int(r["dangling_parents"])) == int(r["comments"])

    def test_word_total_weight_is_activity_words(self, config, tmp_path):
        for cfg in (config, self._demo(tmp_path)):
            run_features(cfg)
            features = read_rows(os.path.join(cfg.output_dir, "features.csv"))
            assert [r["word_total_weight"] for r in self._rows(cfg)] \
                == [r["activity_words"] for r in features]


class TestReplyResolution:
    """The text pass resolves each reply to its parent's author, against every
    loaded message; replies to unknown parents are counted and reported once
    per window, from the main process."""

    def _edges(self, config, week):
        table = os.path.join(config.output_dir, "graphs", "interaction_edges.csv")
        return [(r["source"], r["target"], int(r["weight"]))
                for r in read_rows(table) if r["week"] == str(week)]

    def _diagnostics(self, config):
        return read_rows(os.path.join(config.output_dir, "diagnostics.csv"))

    def test_dangling_parent_skipped_and_counted(self, config, caplog):
        write_messages(config, [("c", "bob", 0, "ghost")])
        with caplog.at_level("WARNING"):
            run_features(config)
        week0 = self._diagnostics(config)[0]
        assert (week0["interaction_n"], week0["interaction_m"]) == ("1", "0")
        assert (week0["comments"], week0["dangling_parents"]) == ("1", "1")
        assert any("ghost" in record.getMessage() for record in caplog.records)

    def test_one_warning_per_window_counts_dangling(self, config, caplog):
        write_messages(config, [("p", "alice", 0, None)] + [
            (f"c{i}", "bob", 0, f"ghost{i}") for i in range(3)
        ])
        with caplog.at_level("WARNING"):
            run_features(config)
        assert self._diagnostics(config)[0]["dangling_parents"] == "3"
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "3 replies" in warnings[0].getMessage()
        assert "ghost0" in warnings[0].getMessage()

    def test_external_author_map_resolves_cross_window_parents(self, config):
        # m4 (week 2) replies to m2 (week 0); frank replies to m0, which
        # precedes the horizon and belongs to no window.
        with open(config.messages_path, "a") as handle:
            handle.write(json.dumps({"id": "m6", "author_id": "frank", "parent_id": "m0",
                                     "timestamp": "2020-01-13T10:00:00Z", "body": "x"}) + "\n")
        run_features(config)
        assert self._edges(config, 1) == [("frank", "eve", 1)]
        assert self._edges(config, 2) == [("alice", "bob", 1)]
        assert [r["dangling_parents"] for r in self._diagnostics(config)] == ["0", "0", "1"]


class TestDeterminism:
    def _snapshot(self, root) -> dict[str, bytes]:
        out = {}
        for base, _dirs, files in os.walk(root):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as handle:
                    out[os.path.relpath(path, root)] = handle.read()
        return out

    def test_rerun_is_byte_identical(self, config):
        run_all(config)
        first = self._snapshot(config.output_dir)
        run_all(config)
        second = self._snapshot(config.output_dir)
        assert first == second

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        config_a = make_inputs(tmp_path / "a")
        config_b = make_inputs(tmp_path / "b")
        config_b.workers = 2
        run_features(config_a)
        run_features(config_b)
        features_a = (Path(config_a.output_dir) / "features.csv").read_bytes()
        features_b = (Path(config_b.output_dir) / "features.csv").read_bytes()
        assert features_a == features_b

    def test_worker_count_does_not_change_diagnostics_or_edge_tables(self, tmp_path):
        outputs = []
        for workers in (1, 2):
            paths = generate_demo(str(tmp_path / f"demo{workers}"), seed=7, weeks=12)
            config = load_config(paths["config"])
            config.output_dir = str(tmp_path / f"out{workers}")
            config.workers = workers
            run_features(config)
            outputs.append({
                name: (tmp_path / f"out{workers}" / name).read_bytes()
                for name in ("diagnostics.csv", "graphs/interaction_edges.csv",
                             "graphs/words_edges.csv")
            })
        assert outputs[0] == outputs[1]
        assert outputs[0]["graphs/words_edges.csv"].count(b"\r\n") > 12


class TestAnalyze:
    def test_reports_written(self, config):
        report = run_all(config)
        out = config.output_dir
        for name in (
            "features.csv",
            "correlations.csv",
            "granger.csv",
            "regressions.csv",
            "regression_models.csv",
            "summary.md",
            "manifest.json",
        ):
            assert os.path.isfile(os.path.join(out, name)), name
        assert len(report.correlations) == 30

    def test_small_sample_degrades_to_error_cells(self, config):
        run_all(config)
        models = read_rows(os.path.join(config.output_dir, "regression_models.csv"))
        by_name = {r["model"]: r for r in models}
        # control-only fits on 3 weeks; anything with a lagged term cannot
        assert by_name["model_1"]["nobs"] == "3"
        assert by_name["model_1"]["error"] == ""
        assert by_name["model_3"]["error"] != ""
        assert by_name["model_8"]["error"] != ""

    def test_manifest_checksums(self, config):
        run_all(config)
        with open(os.path.join(config.output_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert set(manifest) == {"tool", "version", "config_sha256", "inputs"}
        canonical = json.dumps(to_dict(config), sort_keys=True).encode("utf-8")
        assert manifest["config_sha256"] == config_hash(config)
        assert manifest["config_sha256"] == hashlib.sha256(canonical).hexdigest()
        assert config.messages_path in manifest["inputs"]
        for path, digest in manifest["inputs"].items():
            with open(path, "rb") as handle:
                assert hashlib.sha256(handle.read()).hexdigest() == digest

    def test_manifest_tracks_input_changes(self, config):
        run_all(config)
        with open(os.path.join(config.output_dir, "manifest.json")) as handle:
            before = json.load(handle)
        with open(config.messages_path, "a") as handle:
            handle.write(json.dumps({
                "id": "m6", "author_id": "eve",
                "timestamp": "2020-01-20T11:00:00Z", "body": "widget good",
            }) + "\n")
        run_all(config)
        with open(os.path.join(config.output_dir, "manifest.json")) as handle:
            after = json.load(handle)
        assert before["inputs"][config.messages_path] != after["inputs"][config.messages_path]
        assert before["config_sha256"] == after["config_sha256"]

    def test_manifest_lists_a_missing_input_as_null(self, config, caplog):
        run_all(config)
        with open(os.path.join(config.output_dir, "manifest.json"), "rb") as handle:
            complete = handle.read()
        os.replace(config.lexicon_path, config.lexicon_path + ".away")
        caplog.clear()
        with caplog.at_level("WARNING"):
            run_analyze(config)
        with open(os.path.join(config.output_dir, "manifest.json"), "rb") as handle:
            manifest = json.loads(handle.read())
        assert manifest["inputs"][config.lexicon_path] is None
        assert list(manifest["inputs"]) == list(json.loads(complete)["inputs"])
        assert [record.levelname for record in caplog.records] == ["WARNING"]
        assert caplog.records[0].getMessage() == (
            f"lexicon_path {config.lexicon_path} is missing;"
            " the manifest lists it with no digest"
        )
        # Back in place, the input is hashed again, as in the first run.
        os.replace(config.lexicon_path + ".away", config.lexicon_path)
        run_analyze(config)
        with open(os.path.join(config.output_dir, "manifest.json"), "rb") as handle:
            assert handle.read() == complete

    def test_explicit_features_path(self, config, tmp_path):
        run_features(config)
        moved = tmp_path / "elsewhere.csv"
        moved.write_bytes((Path(config.output_dir) / "features.csv").read_bytes())
        report = run_analyze(config, features_path=str(moved))
        assert report.models

    def test_market_week_outside_the_grid(self, config):
        run_features(config)
        with open(config.price_path, "a") as handle:
            handle.write("3,14.0\n")
        with pytest.raises(DataError, match=r"^price: week 3 outside the 0\.\.2 grid$"):
            run_analyze(config)

    def test_split_commands_write_what_run_writes(self, tmp_path):
        demo = generate_demo(str(tmp_path / "demo"), seed=7)
        argv = ["-c", demo["config"], "--output-dir", str(tmp_path / "out")]
        assert main(["features", *argv]) == 0
        assert main(["analyze", *argv]) == 0
        out = tmp_path / "out"
        split = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        os.rename(out, tmp_path / "split")
        assert main(["run", *argv]) == 0
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == split
        assert out / "manifest.json" in split and out / "summary.md" in split

    def test_csv_messages_give_the_jsonl_outputs(self, tmp_path):
        demo = generate_demo(str(tmp_path / "demo"), seed=7, weeks=12)
        fields = ("id", "author_id", "timestamp", "body", "parent_id")
        csv_path = tmp_path / "messages.csv"
        with open(demo["messages"], encoding="utf-8") as source, \
                open(csv_path, "w", encoding="utf-8", newline="") as target:
            writer = csv.writer(target)
            writer.writerow(fields)
            for line in source:
                record = json.loads(line)
                writer.writerow(["" if record[name] is None else record[name] for name in fields])
        names = ("features.csv", "diagnostics.csv", "rejections.csv",
                 "graphs/interaction_edges.csv", "graphs/words_edges.csv",
                 *pipeline._REPORTS)
        outputs = []
        for messages, messages_format in ((demo["messages"], "jsonl"), (str(csv_path), "csv")):
            config = load_config(demo["config"])
            config.messages_path = messages
            config.messages_format = messages_format
            config.output_dir = str(tmp_path / messages_format)
            run_all(config)
            outputs.append({name: (tmp_path / messages_format / name).read_bytes()
                            for name in names})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]["features.csv"].splitlines()) == 13


class TestFailureHandling:
    def test_errors_json_at_features_stage(self, config):
        config.messages_path = config.messages_path + ".missing"
        with pytest.raises(ConfigError):
            run_all(config)
        with open(os.path.join(config.output_dir, "errors.json")) as handle:
            record = json.load(handle)
        assert record["stage"] == "features"
        assert record["type"] == "ConfigError"

    def test_errors_json_at_analyze_stage(self, config):
        with open(config.price_path, "a") as handle:
            handle.write("10,99.0\n")
        with pytest.raises(DataError):
            run_all(config)
        with open(os.path.join(config.output_dir, "errors.json")) as handle:
            record = json.load(handle)
        assert record["stage"] == "analyze"
        assert record["type"] == "DataError"
        # the features stage completed before the failure
        assert os.path.isfile(os.path.join(config.output_dir, "features.csv"))

    def test_success_removes_stale_errors_json(self, config):
        messages_path = config.messages_path
        config.messages_path = messages_path + ".missing"
        with pytest.raises(ConfigError):
            run_all(config)
        error_path = os.path.join(config.output_dir, "errors.json")
        assert os.path.isfile(error_path)
        config.messages_path = messages_path
        run_all(config)
        assert not os.path.exists(error_path)

    def test_full_disk_is_an_output_error(self, config, monkeypatch):
        # errors.json cannot be written either; the error that stopped the
        # run still comes through, and no temp file is left.
        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OutputError, match="rejections.csv.*No space left on device"):
            run_all(config)
        assert os.listdir(config.output_dir) == []

    def test_output_error_is_recorded_in_errors_json(self, config, monkeypatch):
        replace = os.replace

        def full_at_features(src, dst):
            if dst.endswith("features.csv"):
                disk_full()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", full_at_features)
        with pytest.raises(OutputError):
            run_all(config)
        with open(os.path.join(config.output_dir, "errors.json")) as handle:
            record = json.load(handle)
        assert record["stage"] == "features"
        assert record["type"] == "OutputError"
        assert "features.csv" in record["error"]
        assert not os.path.exists(os.path.join(config.output_dir, "features.csv"))

    def test_focal_word_must_survive_filtering(self, config):
        config.focal_word = "the"
        with pytest.raises(ConfigError, match="exactly one token"):
            run_features(config)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_window_errors_name_the_window(self, config, tmp_path, workers):
        config.workers = workers
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "message_id,score\nm1,0.9\nm2,0.1\nm3,0.9\nm4,0.5\n"
        )
        config.lexicon_path = None
        config.precomputed_sentiment_path = str(scores)
        with pytest.raises(MissingScoreError, match="window 2.*m5"):
            run_features(config)


class TestFailedRunLeavesOneCoherentDirectory:
    """A run into the directory of an earlier complete run from other inputs
    fails at each output write in turn, then in the battery. Whatever it
    leaves must be coherent: no temp file, no report from the earlier run,
    and no manifest digest that disagrees with its file."""

    FEATURE_OUTPUTS = (
        "rejections.csv", "graphs/interaction_edges.csv", "graphs/words_edges.csv",
        "diagnostics.csv", "features.csv",
    )
    REPORTS = (
        "correlations.csv", "granger.csv", "regressions.csv", "regression_models.csv",
        "summary.md",
    )

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """The 6-week demo's config, the output directory, a copy of a
        complete 7-week run of other inputs into that directory, and each
        run's files as {relative path: bytes}."""
        base = tmp_path_factory.mktemp("coherent")
        out = base / "out"
        configs, files = {}, {}
        for name, seed, weeks in (("later", 7, 6), ("earlier", 8, 7)):
            configs[name] = generate_demo(str(base / name), seed=seed, weeks=weeks)["config"]
            assert main(["run", "-c", configs[name], "--output-dir", str(out)]) == 0
            files[name] = {
                str(path.relative_to(out)): path.read_bytes()
                for path in out.rglob("*") if path.is_file()
            }
        for report in self.REPORTS:
            assert files["earlier"][report] != files["later"][report]
        shutil.copytree(out, base / "earlier_out")
        return configs["later"], out, base / "earlier_out", files

    def check_failed_run(self, runs, code, stage):
        """Rerun the demo into the earlier run's directory and check what the
        failure leaves."""
        later, out, earlier_out, files = runs
        shutil.rmtree(out)
        shutil.copytree(earlier_out, out)
        assert main(["run", "-c", later, "--output-dir", str(out)]) == code
        assert json.loads((out / "errors.json").read_text())["stage"] == stage
        left = {str(path.relative_to(out)): path for path in out.rglob("*") if path.is_file()}
        assert not [name for name in left if name.endswith((".tmp", ".part"))]
        for report in self.REPORTS:
            if report in left:
                assert left[report].read_bytes() == files["later"][report]
        if "manifest.json" in left:
            inputs = json.loads(left["manifest.json"].read_text())["inputs"]
            for path, digest in inputs.items():
                assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("failing", [*FEATURE_OUTPUTS, *REPORTS, "manifest.json"])
    def test_failed_write(self, runs, monkeypatch, failing):
        replace = os.replace

        def fail_one(src, dst):
            if dst.endswith(os.sep + failing.replace("/", os.sep)):
                disk_full()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_one)
        stage = "features" if failing in self.FEATURE_OUTPUTS else "analyze"
        self.check_failed_run(runs, 5, stage)

    def test_failed_battery(self, runs, monkeypatch):
        def fail(*args):
            raise DataError("planted battery failure")

        monkeypatch.setattr(pipeline, "run_battery", fail)
        self.check_failed_run(runs, 2, "analyze")


class TestWorkerPool:
    """At ``workers`` > 1 the pool forks before the corpus loads, each window
    is sent with only what it reads, and a failure with a live pool keeps the
    error contract of a one-process run."""

    def test_workers_start_before_the_corpus_loads(self, config, monkeypatch):
        children_at_load = []
        load = pipeline.load_messages

        def recording(*args, **kwargs):
            children_at_load.append(len(multiprocessing.active_children()))
            return load(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_messages", recording)
        config.workers = 2
        run_features(config)
        assert children_at_load == [2]
        assert multiprocessing.active_children() == []

    def test_worker_state_does_not_grow_with_the_corpus(self, tmp_path, monkeypatch):
        import concurrent.futures

        state_sizes = []
        pool_class = concurrent.futures.ProcessPoolExecutor

        class Recording(pool_class):
            def map(self, fn, *iterables, **kwargs):
                # what each task is sent besides its window
                state_sizes.append(len(pickle.dumps(fn)))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        for weeks in (12, 94):
            # equal-length paths, so the configs pickle to the same size
            paths = generate_demo(str(tmp_path / f"demo{weeks:03d}"), seed=7, weeks=weeks)
            config = load_config(paths["config"])
            config.output_dir = str(tmp_path / f"out{weeks:03d}")
            config.workers = 2
            config.export_graphs = False
            assert len(run_features(config)) == weeks
        assert len(state_sizes) == 2
        assert state_sizes[0] == state_sizes[1] < 4096

    def test_task_pickles_only_what_the_window_reads(self, config):
        tasks, _vocab, _rejections = pipeline._load_windows(config)
        # m4 in week 2 replies to m2 of week 0; m5's parent is unknown
        assert [(t.index, t.authors, t.replies, t.dangling) for t in tasks] == [
            (0, ("alice", "bob", "carol"), (("bob", "alice"), ("carol", "alice")), 0),
            (1, (), (), 0),
            (2, ("alice", "dave"), (("alice", "bob"),), 1),
        ]
        assert "__reduce__" not in vars(pipeline._WindowTask)
        referenced = [{"alice", "bob", "carol"}, set(), {"alice", "bob", "dave"}]
        for task, names in zip(tasks, referenced):
            sent = pickle.dumps(task)
            assert pickle.loads(sent) == task
            assert b"Message" not in sent and b"forumcast.corpus" not in sent
            for record in _MESSAGES:
                assert record["body"].encode() not in sent
            for author in {"alice", "bob", "carol", "dave", "eve"} - names:
                assert author.encode() not in sent

    def test_text_pass_frees_each_window_of_messages(self, config, monkeypatch):
        load_messages, score_message = pipeline.load_messages, pipeline.score_message
        refs = {}
        alive = {}

        class Body(str):
            """A body that can be weakly referenced, as a message (a tuple)
            cannot; only its message holds it."""

        def load(*args):
            messages, rejections = load_messages(*args)
            messages = [m._replace(body=Body(m.body)) for m in messages]
            refs.update((m.id, weakref.ref(m.body)) for m in messages)
            return messages, rejections

        def score(message, *args):
            alive[message.id] = sorted(key for key, ref in refs.items() if ref() is not None)
            return score_message(message, *args)

        monkeypatch.setattr(pipeline, "load_messages", load)
        monkeypatch.setattr(pipeline, "score_message", score)
        pipeline._load_windows(config)
        # by week 2, week 0's messages and m0 (before the horizon) are gone
        assert alive["m1"] == ["m1", "m2", "m3", "m4", "m5"]
        assert alive["m4"] == ["m4", "m5"]
        assert [key for key, ref in refs.items() if ref() is not None] == []

    def test_two_workers_log_the_warnings_of_one_worker(self, config, tmp_path):
        # Week 0 is far heavier than weeks 1-3, so a worker that logged its
        # own windows' warnings would print week 0's after the others'.
        rng = random.Random(0)
        vocabulary = ["".join(rng.choices("bcdfghjklmnpqrstvz", k=4)) for _ in range(120)]
        with open(config.messages_path, "w") as handle:
            for i in range(1500):
                handle.write(json.dumps({
                    "id": f"h{i}", "author_id": f"u{i % 40}", "parent_id": f"gone{i % 2}",
                    "timestamp": f"2020-01-06T{i % 24:02d}:00:00Z",
                    "body": " ".join(rng.choices(vocabulary, k=25)),
                }) + "\n")
            for week in (1, 2, 3):
                handle.write(json.dumps({
                    "id": f"r{week}", "author_id": "bob", "parent_id": f"ghost{week}",
                    "timestamp": f"2020-01-{6 + 7 * week:02d}T10:00:00Z", "body": "x",
                }) + "\n")
        config.horizon_weeks = 4
        path = tmp_path / "config.yaml"
        save_config(config, str(path))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        errs = [
            subprocess.run(
                [sys.executable, "-m", "forumcast.cli", "features", "-c", str(path),
                 "--workers", workers, "--output-dir", str(tmp_path / f"out{workers}")],
                capture_output=True, check=True, env=env, timeout=120,
            ).stderr
            for workers in ("1", "2")
        ]
        assert errs[0].splitlines() == [
            b"1500 replies point to unknown parents, arcs skipped"
            b" (first: message h0 replies to gone0)",
            b"1 replies point to unknown parents, arcs skipped"
            b" (first: message r1 replies to ghost1)",
            b"1 replies point to unknown parents, arcs skipped"
            b" (first: message r2 replies to ghost2)",
            b"1 replies point to unknown parents, arcs skipped"
            b" (first: message r3 replies to ghost3)",
        ]
        assert errs[1] == errs[0]

    def test_dead_worker_is_a_typed_error(self, config, tmp_path, capfd, monkeypatch):
        _worker_dies(config, monkeypatch)
        path = tmp_path / "config.yaml"
        save_config(config, str(path))
        code = main(["run", "-c", str(path)])
        assert code == 4
        err = capfd.readouterr().err
        assert "worker error:" in err
        assert "Traceback" not in err
        with open(os.path.join(config.output_dir, "errors.json")) as handle:
            record = json.load(handle)
        assert record["stage"] == "features"
        assert record["type"] == "WorkerError"
        graphs_dir = os.path.join(config.output_dir, "graphs")
        assert os.listdir(graphs_dir) == []
        assert not os.path.exists(os.path.join(config.output_dir, "features.csv"))
        assert multiprocessing.active_children() == []

    # forks_before_failure 1 starts one real worker before the failing fork.
    @pytest.mark.parametrize("forks_before_failure", [0, 1])
    def test_failed_fork_is_a_typed_error(self, config, tmp_path, capfd, monkeypatch,
                                          forks_before_failure):
        fork = os.fork
        forks = []

        def failing_fork():
            if len(forks) == forks_before_failure:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        config.workers = 3
        path = tmp_path / "config.yaml"
        save_config(config, str(path))
        code = main(["run", "-c", str(path)])
        assert code == 4
        err = capfd.readouterr().err
        assert err.startswith("worker error: cannot start the window workers:")
        assert "Traceback" not in err
        with open(os.path.join(config.output_dir, "errors.json")) as handle:
            record = json.load(handle)
        assert record["stage"] == "features"
        assert record["type"] == "WorkerError"
        assert not os.path.exists(os.path.join(config.output_dir, "features.csv"))
        assert multiprocessing.active_children() == []

    def test_data_error_while_loading_leaves_no_worker(self, config, tmp_path, capsys,
                                                       monkeypatch):
        children_at_load = []
        load = pipeline.load_messages

        def recording(*args, **kwargs):
            children_at_load.append(len(multiprocessing.active_children()))
            return load(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_messages", recording)
        with open(config.messages_path, "ab") as handle:
            handle.write(b"caf\xe9\n")
        config.workers = 2
        path = tmp_path / "config.yaml"
        save_config(config, str(path))
        code = main(["run", "-c", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error: cannot read" in err
        assert "Traceback" not in err
        assert children_at_load == [2]
        assert multiprocessing.active_children() == []


class TestPartFiles:
    """At 2 workers each chunk's edge rows go to part files in graphs/. A
    worker that fails over several chunks leaves no part file, no temp file
    and no edge table behind."""

    @pytest.fixture()
    def demo(self, tmp_path, monkeypatch) -> str:
        # each window of the 12-week demo a chunk of its own
        monkeypatch.setattr(pipeline, "CHUNK_TOKENS", 1)
        return generate_demo(str(tmp_path / "demo"), seed=7, weeks=12)["config"]

    def check_failed_run(self, demo, out, code) -> dict:
        """Run the demo at 2 workers into ``out``, expecting exit ``code``
        in the features stage; errors.json's record."""
        assert main(["run", "-c", demo, "--workers", "2", "--output-dir", str(out)]) == code
        record = json.loads((out / "errors.json").read_text())
        assert record["stage"] == "features"
        assert not [path for path in out.rglob("*") if path.suffix in (".part", ".tmp")]
        assert os.listdir(out / "graphs") == []
        assert multiprocessing.active_children() == []
        return record

    def test_successful_run_leaves_no_hidden_file(self, demo, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "-c", demo, "--workers", "2", "--output-dir", str(out)]) == 0
        assert not [path for path in out.rglob(".*")]
        assert sorted(os.listdir(out / "graphs")) == ["interaction_edges.csv", "words_edges.csv"]

    def test_dying_worker(self, demo, tmp_path, capfd, monkeypatch):
        monkeypatch.setattr(pipeline, "_compute_chunk", _dying_compute_chunk)
        record = self.check_failed_run(demo, tmp_path / "out", 4)
        assert record["type"] == "WorkerError"
        assert capfd.readouterr().err.startswith("worker error: a window worker ended abruptly")

    def test_part_file_write_fails(self, demo, tmp_path, capfd, monkeypatch):
        # The worker of chunk 3 writes its interaction rows to a full disk.
        def full_disk_at_chunk_3(path, *args, **kwargs):
            name = os.path.basename(path)
            if name.startswith(".interaction_edges.csv.") and name.endswith(".3.part"):
                return open("/dev/full", "wb", buffering=0)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "open", full_disk_at_chunk_3, raising=False)
        out = tmp_path / "out"
        record = self.check_failed_run(demo, out, 5)
        table = str(out / "graphs" / "interaction_edges.csv")
        assert record["type"] == "OutputError"
        assert record["error"].startswith(f"cannot write {table}: [Errno 28]")
        assert capfd.readouterr().err.startswith(f"output error: cannot write {table}:")


class TestTextOptions:
    """Each text option, seen in the week-0 rows of graphs/words_edges.csv
    and in the focal-word lookup. Every body is a root post of week 0."""

    def _run(self, config, bodies, **options):
        with open(config.messages_path, "w") as handle:
            for i, body in enumerate(bodies):
                handle.write(json.dumps({"id": f"t{i}", "author_id": f"u{i}",
                                         "timestamp": "2020-01-06T10:00:00Z",
                                         "body": body}) + "\n")
        for name, value in options.items():
            setattr(config, name, value)
        week0 = run_features(config)[0]
        table = os.path.join(config.output_dir, "graphs", "words_edges.csv")
        edges = [(r["source"], r["target"], int(r["weight"]))
                 for r in read_rows(table) if r["week"] == "0"]
        return edges, week0

    def test_stemming(self, config):
        bodies = ["acme launches widgets", "launched widgets"]
        config.focal_word = "Launching"
        plain, week0 = self._run(config, bodies)
        assert plain == [("acme", "launches", 1), ("acme", "widgets", 1),
                         ("launched", "widgets", 1), ("launches", "widgets", 1)]
        assert week0.focal_present is False
        stemmed, week0 = self._run(config, bodies, stemming=True)
        assert stemmed == [("acm", "launch", 1), ("acm", "widget", 1), ("launch", "widget", 2)]
        assert week0.focal_present is True
        assert week0.focal_degree == pytest.approx(2 / 4)

    def test_dictionary(self, config, tmp_path):
        bodies = ["acme gizmo widget launch"]
        plain, _ = self._run(config, bodies)
        assert ("acme", "gizmo", 1) in plain and len(plain) == 6
        dictionary = tmp_path / "dictionary.txt"
        dictionary.write_text("Acme\nwidget\nlaunch\n")
        kept, week0 = self._run(config, bodies, dictionary_path=str(dictionary))
        assert kept == [("acme", "launch", 1), ("acme", "widget", 1), ("widget", "launch", 1)]
        assert week0.focal_present is True
        config.focal_word = "gizmo"
        with pytest.raises(ConfigError, match="normalizes to 0 tokens"):
            run_features(config)

    def test_keep_digits(self, config):
        bodies = ["acme 2021 launch"]
        config.focal_word = "2021"
        with pytest.raises(ConfigError, match="normalizes to 0 tokens"):
            self._run(config, bodies)
        config.focal_word = "acme"
        dropped, _ = self._run(config, bodies)
        assert dropped == [("acme", "launch", 1)]
        config.focal_word = "2021"
        kept, week0 = self._run(config, bodies, keep_digits=True)
        assert kept == [("2021", "launch", 1), ("acme", "2021", 1), ("acme", "launch", 1)]
        assert week0.focal_present is True
        assert week0.focal_degree == pytest.approx(2 / 4)

    def test_italian_stemming(self, config):
        # The bundled Italian list drops "la" and "il"; the stemmer maps
        # lancia/lanciano to "lanc" and prodotti/prodotto/prodotta to "prodott".
        bodies = ["La banca lancia prodotti", "Lanciano il prodotto"]
        config.language = "italian"
        config.focal_word = "prodotta"
        plain, week0 = self._run(config, bodies)
        assert plain == [("banca", "lancia", 1), ("banca", "prodotti", 1),
                         ("lancia", "prodotti", 1), ("lanciano", "prodotto", 1)]
        assert week0.focal_present is False
        stemmed, week0 = self._run(config, bodies, stemming=True)
        assert stemmed == [("banc", "lanc", 1), ("banc", "prodott", 1), ("lanc", "prodott", 2)]
        assert week0.focal_present is True
        assert week0.focal_degree == pytest.approx(2 / 4)  # 2 arcs of 2 * (3 - 1)

    def test_italian_stemming_worker_count_does_not_change_outputs(self, tmp_path):
        outputs = []
        for workers in (1, 2):
            (tmp_path / str(workers)).mkdir()
            config = make_inputs(tmp_path / str(workers))
            config.workers = workers
            self._run(config, ["La banca lancia prodotti", "Lanciano il prodotto"],
                      language="italian", stemming=True, focal_word="prodotta")
            outputs.append({
                name: (Path(config.output_dir) / name).read_bytes()
                for name in ("features.csv", "diagnostics.csv", "graphs/words_edges.csv")
            })
        assert outputs[0] == outputs[1]


class TestPrecomputedBackend:
    def test_scores_flow_through(self, config, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "message_id,score\nm1,0.9\nm2,0.1\nm3,0.8\nm4,0.5\nm5,0.3\n"
        )
        config.lexicon_path = None
        config.precomputed_sentiment_path = str(scores)
        rows = run_features(config)
        assert rows[0].sentiment == pytest.approx((0.9 + 0.1 + 0.8) / 3)
        assert rows[2].sentiment == pytest.approx(0.4)


class TestIngestCheck:
    def test_counts(self, config):
        report = ingest_check(config)
        assert report == {
            "messages": 6,
            "rejected_rows": 0,
            "weeks": 3,
            "nonempty_weeks": 2,
            "outside_horizon": 1,
            "rejection_reasons": [],
        }

    def test_rejections_counted(self, config):
        with open(config.messages_path, "a") as handle:
            handle.write('{"author_id": "x", "timestamp": "2020-01-06T13:00:00Z", "body": "y"}\n')
        report = ingest_check(config)
        assert report["rejected_rows"] == 1
        assert report["rejection_reasons"] == ["missing required field 'id'"]

    def test_deeply_nested_line_is_a_rejection(self, config, tmp_path, capsys):
        with open(config.messages_path, "a") as handle:
            handle.write("[" * 200_000 + "]" * 200_000 + "\n")
        save_config(config, str(tmp_path / "config.yaml"))
        code = main(["ingest-check", "-c", str(tmp_path / "config.yaml")])
        out, err = capsys.readouterr()
        assert code == 0 and "Traceback" not in err
        report = json.loads(out)
        assert (report["messages"], report["rejected_rows"]) == (6, 1)
        assert report["rejection_reasons"] == ["line nests too deeply to parse"]
        run_features(config)
        assert read_rows(os.path.join(config.output_dir, "rejections.csv")) == [
            {"line": "7", "reason": "line nests too deeply to parse"}
        ]

    def test_overlong_integer_is_a_rejection(self, config):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer with more digits than int() converts.
        with open(config.messages_path, "a") as handle:
            handle.write('{"id": 1' + "0" * 5000 + "}\n")
        messages, rejections = load_messages(config.messages_path)
        assert len(messages) == 6
        assert [row.line for row in rejections] == [7]
        assert "integer string conversion" in rejections[0].reason

    def test_lone_surrogate_is_a_rejection(self, config, tmp_path, capfd):
        # A JSON \ud800 escape decodes to a lone surrogate, which no UTF-8
        # output can hold; the second line's duplicate-id reason would hold it.
        with open(config.messages_path, "a") as handle:
            for hour in (10, 11):
                handle.write(json.dumps({
                    "id": "x\ud800", "author_id": "eve",
                    "timestamp": f"2020-01-06T{hour}:30:00Z", "body": "widget",
                }) + "\n")
        save_config(config, str(tmp_path / "config.yaml"))
        assert main(["run", "-c", str(tmp_path / "config.yaml")]) == 0
        assert "Traceback" not in capfd.readouterr().err
        reason = "field 'id' holds a lone surrogate, which UTF-8 cannot encode"
        assert read_rows(os.path.join(config.output_dir, "rejections.csv")) == [
            {"line": "7", "reason": reason}, {"line": "8", "reason": reason}
        ]


def _focal_word_filtered_away(config, monkeypatch):
    config.focal_word = "the"


def _non_utf8_messages(config, monkeypatch):
    with open(config.messages_path, "ab") as handle:
        handle.write(b"caf\xe9\n")


def _battery_lacks_data(config, monkeypatch):
    def lacking(panel, config):
        raise InsufficientDataError("too few weeks")

    monkeypatch.setattr(pipeline, "run_battery", lacking)


def _dying_compute_chunk(tasks, config, tables):
    """``_compute_chunk``, except that the process ends abruptly at the chunk
    that holds window 1. The pool's workers are forked after the patch, so
    they call this one."""
    if any(task.index == 1 for task in tasks):
        os._exit(1)
    return _compute_chunk(tasks, config, tables)


def _worker_dies(config, monkeypatch):
    monkeypatch.setattr(pipeline, "_compute_chunk", _dying_compute_chunk)
    config.workers = 2


def _disk_full(config, monkeypatch):
    monkeypatch.setattr(os, "replace", disk_full)


class TestCli:
    def write_config(self, config, tmp_path) -> str:
        path = tmp_path / "config.yaml"
        save_config(config, str(path))
        return str(path)

    def test_run_command(self, config, tmp_path, capsys):
        code = main(["run", "-c", self.write_config(config, tmp_path)])
        assert code == 0
        assert os.path.isfile(os.path.join(config.output_dir, "summary.md"))
        assert "pipeline complete" in capsys.readouterr().out

    def test_dry_run_writes_nothing(self, config, tmp_path):
        code = main(["run", "-c", self.write_config(config, tmp_path), "--dry-run"])
        assert code == 0
        assert not os.path.exists(config.output_dir)

    def test_ingest_check_prints_json(self, config, tmp_path, capsys):
        code = main(["ingest-check", "-c", self.write_config(config, tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["messages"] == 6

    def test_overrides(self, config, tmp_path):
        moved = str(tmp_path / "moved")
        code = main([
            "features", "-c", self.write_config(config, tmp_path),
            "--output-dir", moved, "--no-export-graphs",
        ])
        assert code == 0
        assert os.path.isfile(os.path.join(moved, "features.csv"))
        assert not os.path.isdir(os.path.join(moved, "graphs"))
        assert not os.path.exists(config.output_dir)

    def test_config_error_exit_code(self, config, tmp_path, capsys):
        config.focal_word = ""
        code = main(["run", "-c", self.write_config(config, tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,named",
        [
            ("horizon_weeks", "x", "horizon_weeks"),
            ("workers", "2", "workers"),
            ("betweenness_samples", None, "betweenness_samples"),
            ("focal_word", 7, "focal_word"),
            ("correlation_lags", ["a"], "correlation_lags"),
            ("models", [{"name": "m", "terms": [{"column": "activity", "lag": "x"}]}], "lag"),
            ("granger_conditioning", [[1]], "granger_conditioning"),
            ("messages_path", ["a"], "messages_path"),
            ("window_size", 2.5, "window_size"),
            ("export_graphs", "no", "export_graphs"),
            ("horizon_weeks", True, "horizon_weeks"),
        ],
        ids=["weeks-str", "workers-str", "samples-null", "focal-int", "lags-str",
             "lag-str", "conditioning-nested", "path-list", "window-float",
             "export-str", "weeks-bool"],
    )
    def test_mistyped_config_value_exit_code(self, config, tmp_path, capsys, key, value,
                                             named):
        raw = to_dict(config)
        raw[key] = value
        path = tmp_path / "config.yaml"
        path.write_text(json.dumps(raw))  # JSON is YAML
        code = main(["run", "-c", str(path), "--dry-run"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert "Traceback" not in err

    def test_data_error_exit_code(self, config, tmp_path, capsys):
        # analyze without a feature table
        code = main(["analyze", "-c", self.write_config(config, tmp_path)])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_empty_stopwords_file_exit_code(self, config, tmp_path, capsys):
        config.stopwords_path = str(tmp_path / "stop.txt")
        for text in ("\n", "# only a comment\n"):
            Path(config.stopwords_path).write_text(text)
            code = main(["run", "-c", self.write_config(config, tmp_path)])
            assert code == 2
            assert capsys.readouterr().err == (
                "data error: empty stopword list for language 'english'\n"
            )

    def test_stemming_without_a_stemmer_fails_the_dry_run(self, config, tmp_path, capsys):
        config.language = "klingon"
        config.stemming = True
        config.stopwords_path = str(tmp_path / "stop.txt")
        Path(config.stopwords_path).write_text("the\n")
        code = main(["run", "-c", self.write_config(config, tmp_path), "--dry-run"])
        assert code == 1
        assert "language 'klingon' has no stemmer" in capsys.readouterr().err
        assert not os.path.exists(config.output_dir)

    def test_exact_granger_fit_is_an_error_cell(self, config, tmp_path, capsys):
        # Five weeks on which price_t = control_(t-1): the control's Granger
        # test fits exactly, its cell carries the error, and the run completes.
        config.granger_max_lag = 1
        config.granger_difference_dependent = False
        features = os.path.join(config.output_dir, "features.csv")
        os.makedirs(config.output_dir)
        write_csv(features, FEATURE_CSV_COLUMNS, [
            (week, 3 + week % 2, 2 + week * week, 0.5, 0.25 * week, 0.1, 0.2 + week,
             1, 0.5, 0.1 * week, 9 - week)
            for week in range(5)
        ])
        Path(config.price_path).write_text("week,value\n0,1\n1,2\n2,2\n3,1\n4,2\n")
        Path(config.control_path).write_text("week,value\n0,2\n1,2\n2,1\n3,2\n4,4\n")
        assert main(["analyze", "-c", self.write_config(config, tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        cells = {row["predictor"]: row for row in read_rows(Path(config.output_dir, "granger.csv"))}
        assert cells["control"]["chi2"] == ""
        assert "fits exactly" in cells["control"]["error"]
        assert cells["activity"]["error"] == "" and cells["activity"]["chi2"] != ""
        assert os.path.isfile(os.path.join(config.output_dir, "summary.md"))

    def test_non_numeric_feature_cell_exit_code(self, config, tmp_path, capsys):
        run_features(config)
        features = os.path.join(config.output_dir, "features.csv")
        rows = read_rows(features)
        rows[1]["sentiment"] = "n/a"
        with open(features, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=FEATURE_CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        code = main(["analyze", "-c", self.write_config(config, tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{features}:3: sentiment 'n/a' is not a number" in err

    def test_overflowing_market_values_are_error_cells(self, tmp_path, capfd):
        # Prices near the float maximum overflow every statistic that
        # touches the price: each such cell must say so, not stay blank,
        # and no NumPy warning may reach stderr.
        demo = generate_demo(str(tmp_path / "demo"), seed=7, weeks=12)
        out = tmp_path / "out"
        argv = ["-c", demo["config"], "--output-dir", str(out)]
        assert main(["features", *argv]) == 0
        with open(demo["price"]) as handle:
            lines = handle.read().splitlines()
        assert lines[3].startswith("2,") and lines[4].startswith("3,")
        lines[3:5] = ["2,1.7e308", "3,-1.7e308"]
        with open(demo["price"], "w") as handle:
            handle.write("\n".join(lines) + "\n")
        capfd.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", *argv]) == 0
        assert [str(w.message) for w in caught] == []
        assert capfd.readouterr().err == ""
        reports = {
            "correlations.csv": ("r", "n", "p"),
            "granger.csv": ("chi2", "df", "p", "nobs"),
            "regressions.csv": ("term", "coefficient", "std_error", "t", "p"),
            "regression_models.csv": ("nobs", "regressors", "r2", "adj_r2", "durbin_watson",
                                      "condition_number", "dropped_rows"),
        }
        errors = []
        for name, columns in reports.items():
            for row in read_rows(out / name):
                assert bool(row["error"]) != all(row[column] for column in columns), (name, row)
                errors.append(row["error"])
        assert "series 'price': a week-over-week change overflows" in errors
        assert "ols('price'): the fit overflows" in errors
        assert "pearson('activity', 'price'): the sums of squares overflow" in errors

    def test_truncated_feature_table_exit_code(self, config, tmp_path, capsys):
        run_features(config)
        features = os.path.join(config.output_dir, "features.csv")
        with open(features, "rb") as handle:
            content = handle.read()
        assert len(content.splitlines()[-1]) > 40
        with open(features, "wb") as handle:
            handle.write(content[:-40])
        code = main(["analyze", "-c", self.write_config(config, tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{features}:4: row has " in err

    @pytest.mark.parametrize(
        "command",
        [["run"], ["run", "--dry-run"], ["features"], ["analyze"]],
        ids=["run", "dry-run", "features", "analyze"],
    )
    def test_output_dir_is_a_file_exit_code(self, config, tmp_path, capsys, command):
        config.output_dir = str(tmp_path / "taken")
        with open(config.output_dir, "w") as handle:
            handle.write("keep me\n")
        code = main([*command, "-c", self.write_config(config, tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: output_dir" in err and config.output_dir in err
        with open(config.output_dir) as handle:
            assert handle.read() == "keep me\n"

    @pytest.mark.parametrize("command", [["run"], ["run", "--dry-run"]], ids=["run", "dry-run"])
    def test_empty_output_dir_exit_code(self, config, tmp_path, capsys, monkeypatch, command):
        # Read as the working directory by some checks and as no path at all
        # by the writers, an empty output_dir is refused before any work.
        monkeypatch.chdir(tmp_path)
        config.output_dir = ""
        code = main([*command, "-c", self.write_config(config, tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config field 'output_dir'")
        assert "Traceback" not in err
        assert not (tmp_path / "features.csv").exists()

    def test_output_dir_under_a_file_exit_code(self, config, tmp_path, capsys):
        (tmp_path / "taken").write_text("keep me\n")
        config.output_dir = str(tmp_path / "taken" / "out")
        code = main(["run", "-c", self.write_config(config, tmp_path)])
        assert code == 1
        assert "config error: output_dir" in capsys.readouterr().err

    def test_oversized_lexicon_field_exit_code(self, config, tmp_path, capsys):
        with open(config.lexicon_path, "a") as handle:
            handle.write("x" * 140_000 + ",0.5\n")
        code = main(["run", "-c", self.write_config(config, tmp_path)])
        assert code == 2
        with open(config.lexicon_path) as handle:
            line = len(handle.readlines())
        assert capsys.readouterr().err == (
            f"data error: {config.lexicon_path}:{line}: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("field", ["messages_path", "lexicon_path"])
    def test_non_utf8_input_exit_code(self, config, tmp_path, capsys, field):
        path = getattr(config, field)
        with open(path, "ab") as handle:
            handle.write(b"caf\xe9,0.5\n")
        code = main(["run", "-c", self.write_config(config, tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error: cannot read" in err and path in err
        assert "Traceback" not in err

    def test_non_utf8_config_exit_code(self, config, tmp_path, capsys):
        path = self.write_config(config, tmp_path)
        with open(path, "ab") as handle:
            handle.write(b'messages_path: "caf\xe9"\n')
        code = main(["run", "-c", path])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error: cannot read config" in err and path in err
        assert "Traceback" not in err

    def test_deeply_nested_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        code = main(["run", "-c", str(path), "--dry-run"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
        assert "Traceback" not in err

    def test_path_count_overflow_exit_code(self, config, tmp_path, capsys):
        # Two authors per layer, each replying to both authors of the next
        # layer: 2**1098 geodesics cross the week-0 interaction graph.
        layers = [(f"a{k:04d}", f"b{k:04d}") for k in range(1100)]
        stamp = "2020-01-06T10:00:00Z"
        messages = [
            {"id": f"p-{u}", "author_id": u, "timestamp": stamp, "body": "acme"}
            for layer in layers
            for u in layer
        ]
        messages += [
            {"id": f"r-{u}-{v}", "author_id": u, "timestamp": stamp, "body": "acme",
             "parent_id": f"p-{v}"}
            for here, there in zip(layers, layers[1:])
            for u in here
            for v in there
        ]
        with open(config.messages_path, "w") as handle:
            handle.writelines(json.dumps(m) + "\n" for m in messages)
        code = main(["run", "-c", self.write_config(config, tmp_path)])
        assert code == 3
        assert "window 0: shortest-path counts exceed the float range" in capsys.readouterr().err

    # Each class's code and stderr label; a subclass has its base's.
    EXIT_CODES = [
        (ConfigError("boom"), 1, "config error"),
        (DataError("boom"), 2, "data error"),
        (ForumcastError("boom"), 3, "error"),
        (AnalysisError("boom"), 3, "analysis error"),
        (WorkerError("boom"), 4, "worker error"),
        (OutputError("boom"), 5, "output error"),
        (MissingScoreError("boom"), 2, "data error"),
        (PathCountOverflow("boom"), 3, "analysis error"),
    ]

    @pytest.mark.parametrize(
        "exc,expected,label",
        EXIT_CODES,
        # pytest's default form, exc<index>-<code>, without the label
        ids=[f"exc{i}-{code}" for i, (_, code, _) in enumerate(EXIT_CODES)],
    )
    def test_exit_code_mapping(self, config, tmp_path, capsys, monkeypatch, exc, expected,
                               label):
        def explode(_config):
            raise exc

        monkeypatch.setattr("forumcast.pipeline.run_features", explode)
        code = main(["features", "-c", self.write_config(config, tmp_path)])
        assert code == expected
        assert capsys.readouterr().err == f"{label}: boom\n"

    @pytest.mark.parametrize(
        "fail,code,message",
        [
            (_focal_word_filtered_away, 1, "config error: focal_word"),
            (_non_utf8_messages, 2, "data error: cannot read messages"),
            (_battery_lacks_data, 3, "analysis error: too few weeks"),
            (_worker_dies, 4, "worker error: a window worker ended abruptly"),
            (_disk_full, 5, "output error: cannot write"),
        ],
        ids=["config", "data", "analysis", "worker", "output"],
    )
    def test_exit_code_matrix(self, config, tmp_path, capfd, monkeypatch, fail, code, message):
        fail(config, monkeypatch)
        path = self.write_config(config, tmp_path)
        assert main(["run", "-c", path]) == code
        err = capfd.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_manifest_input_that_cannot_be_opened_is_a_data_error(
        self, config, tmp_path, capfd, monkeypatch
    ):
        # The input passes the existence check, then cannot be opened when
        # the manifest hashes it.
        path = self.write_config(config, tmp_path)
        assert main(["features", "-c", path]) == 0
        manifest = Path(config.output_dir, "manifest.json")
        written = manifest.read_bytes()
        missing = str(tmp_path / "missing-dictionary.txt")
        config.dictionary_path = missing
        path = self.write_config(config, tmp_path)
        monkeypatch.setattr(os.path, "isfile", lambda _path: True)
        capfd.readouterr()
        assert main(["analyze", "-c", path]) == 2
        err = capfd.readouterr().err
        assert err.startswith(f"data error: cannot read dictionary_path {missing}:")
        assert "Traceback" not in err
        # the features run's manifest is left as it was
        assert manifest.read_bytes() == written

    def test_unreadable_manifest_input_is_recorded_in_errors_json(
        self, config, tmp_path, capfd, monkeypatch
    ):
        # The lexicon turns unreadable once the features are written. A
        # mode-000 file would not do: root reads it. So the pipeline's open
        # is shadowed by one that refuses the lexicon, as the OS refuses a
        # file without read permission.
        features = pipeline.run_features

        def refusing_open(path, *args, **kwargs):
            if path == config.lexicon_path:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return open(path, *args, **kwargs)

        def then_unreadable(run_config):
            rows = features(run_config)
            monkeypatch.setattr(pipeline, "open", refusing_open, raising=False)
            return rows

        monkeypatch.setattr(pipeline, "run_features", then_unreadable)
        assert main(["run", "-c", self.write_config(config, tmp_path)]) == 2
        err = capfd.readouterr().err
        assert err.startswith(f"data error: cannot read lexicon_path {config.lexicon_path}:")
        assert "Traceback" not in err
        with open(os.path.join(config.output_dir, "errors.json")) as handle:
            record = json.load(handle)
        assert record["stage"] == "analyze"
        assert record["type"] == "DataError"
        assert "lexicon_path" in record["error"] and config.lexicon_path in record["error"]
        assert not os.path.exists(os.path.join(config.output_dir, "manifest.json"))

    def test_import_leaves_out_scipy_stats(self, config, tmp_path):
        # scipy.stats costs about a second of start-up. Commands that do no
        # numeric work load neither NumPy nor SciPy, and a run whose graphs
        # all fit the dense sweep loads NumPy but no SciPy module at all. A
        # run loads no OpenSSL (hashlib) and no statistics (with fractions
        # and decimal) either, in one process or in the main process of a
        # pool. A dry run loads no pipeline layer: corpus, textproc and
        # tables first load with ingest-check.
        bad = tmp_path / "bad.yaml"
        bad.write_text("mesages_path: typo.jsonl\n")
        demo = generate_demo(str(tmp_path / "demo"), seed=7)
        code = textwrap.dedent("""
            import json, sys

            def loaded():
                return sorted(
                    m for m in sys.modules
                    if m in ("numpy", "hashlib", "_hashlib", "statistics", "forumcast.corpus",
                             "forumcast.textproc", "forumcast.tables")
                    or m.startswith("scipy")
                )

            from forumcast.cli import main
            seen = [("import", None, loaded(), "scipy.stats" in sys.modules)]
            exit_code = main(["run", "-c", sys.argv[1], "--dry-run"])
            seen.append(("dry run", exit_code, loaded(), "scipy.stats" in sys.modules))
            exit_code = main(["ingest-check", "-c", sys.argv[1]])
            seen.append(("ingest-check", exit_code, loaded(), "scipy.stats" in sys.modules))
            exit_code = main(["run", "-c", sys.argv[2]])
            seen.append(("config error", exit_code, loaded(), "scipy.stats" in sys.modules))
            exit_code = main(["run", "-c", sys.argv[1]])
            seen.append(("run", exit_code, loaded(), "scipy.stats" in sys.modules))
            exit_code = main(["run", "-c", sys.argv[3], "--workers", "1",
                              "--output-dir", sys.argv[4]])
            seen.append(("demo run", exit_code, loaded(), "scipy.stats" in sys.modules))
            exit_code = main(["run", "-c", sys.argv[3], "--workers", "2",
                              "--output-dir", sys.argv[5]])
            seen.append(("pooled run", exit_code, loaded(), "scipy.stats" in sys.modules))
            print(json.dumps(seen))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code, self.write_config(config, tmp_path), str(bad),
             demo["config"], str(tmp_path / "demo_out"), str(tmp_path / "pooled_out")],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        seen = json.loads(out.strip().splitlines()[-1])
        ingested = ["forumcast.corpus", "forumcast.tables"]
        ran = ["forumcast.corpus", "forumcast.tables", "forumcast.textproc", "numpy"]
        assert seen == [
            ["import", None, [], False],
            ["dry run", 0, [], False],
            ["ingest-check", 0, ingested, False],
            ["config error", 1, ingested, False],
            ["run", 0, ran, False],
            ["demo run", 0, ran, False],
            ["pooled run", 0, ran, False],
        ]

    def test_features_run_writes_a_fresh_manifest(self, config, tmp_path):
        # a features-only run into the directory of an earlier run
        assert main(["run", "-c", self.write_config(config, tmp_path)]) == 0
        assert main(["features", "-c", self.write_config(config, tmp_path),
                     "--window-size", "3"]) == 0
        manifest = json.loads(Path(config.output_dir, "manifest.json").read_text())
        features = os.path.join(config.output_dir, "features.csv")
        with open(features, "rb") as handle:
            assert manifest["inputs"][features] == hashlib.sha256(handle.read()).hexdigest()
        config.window_size = 3
        assert manifest["config_sha256"] == config_hash(config)

    def test_run_writes_one_manifest_hashing_each_input_once(self, config, tmp_path,
                                                             monkeypatch):
        manifests, hashed = [], []
        write_manifest, sha256_file = pipeline.write_manifest, pipeline._sha256_file

        def writing(*args):
            manifests.append(args)
            write_manifest(*args)

        def hashing(path, what):
            hashed.append(path)
            return sha256_file(path, what)

        monkeypatch.setattr(pipeline, "write_manifest", writing)
        monkeypatch.setattr(pipeline, "_sha256_file", hashing)
        assert main(["run", "-c", self.write_config(config, tmp_path)]) == 0
        assert len(manifests) == 1
        inputs = json.loads(Path(config.output_dir, "manifest.json").read_text())["inputs"]
        assert sorted(hashed) == sorted(inputs)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_restores_the_callers_collector(self, config, tmp_path, monkeypatch,
                                                 enabled):
        path = self.write_config(config, tmp_path)
        bad = tmp_path / "bad.yaml"
        bad.write_text("mesages_path: typo.jsonl\n")
        during = []
        validate_paths = cli.validate_paths

        def recording(config):
            during.append(gc.isenabled())
            validate_paths(config)

        def failing(config):
            raise RuntimeError("unexpected")

        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            monkeypatch.setattr(cli, "validate_paths", recording)
            assert main(["run", "-c", path, "--dry-run"]) == 0
            assert gc.isenabled() is enabled
            assert main(["run", "-c", str(bad), "--dry-run"]) == 1
            assert gc.isenabled() is enabled
            monkeypatch.setattr(cli, "validate_paths", failing)
            with pytest.raises(RuntimeError, match="unexpected"):
                main(["run", "-c", path, "--dry-run"])
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == 0
        finally:
            gc.enable() if was_enabled else gc.disable()
        assert during == [False]

    def test_main_leaves_what_the_caller_froze_frozen(self, config, tmp_path):
        path = self.write_config(config, tmp_path)
        was_enabled = gc.isenabled()
        gc.enable()
        gc.freeze()
        try:
            assert main(["run", "-c", path, "--dry-run"]) == 0
            # a thaw would empty the permanent generation
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
            gc.enable() if was_enabled else gc.disable()

    def test_main_freezes_the_heap_once_at_exit(self, config, tmp_path):
        code = textwrap.dedent("""
            import gc, sys

            freeze = gc.freeze

            def counted():
                print("freeze")
                freeze()

            gc.freeze = counted
            # main freezes and thaws the heap itself when its caller's
            # collector is on; with it off, only the exit freeze counts
            gc.disable()
            from forumcast.cli import main

            for config in sys.argv[1:]:
                main(["run", "-c", config, "--dry-run"])
            print("returned")
        """)
        path = self.write_config(config, tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code, path, str(tmp_path / "missing.yaml"), path],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.splitlines()[-2:] == ["returned", "freeze"]
        assert out.count("freeze") == 1

    def test_collector_off_leaves_no_garbage_that_grows_with_the_corpus(self, tmp_path):
        # main runs commands with the cyclic collector off; that is safe
        # while a run's leftover cycles do not grow with the corpus
        code = textwrap.dedent("""
            import gc, sys
            from forumcast.cli import main

            gc.disable()
            found = []
            for config in sys.argv[1:]:
                gc.collect()
                assert main(["run", "-c", config]) == 0
                found.append(gc.collect())
            print(*found)
        """)
        configs = [
            generate_demo(str(tmp_path / name), seed=7, weeks=weeks)["config"]
            for name, weeks in (("warmup", 12), ("small", 12), ("large", 48))
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code, *configs],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        _warmup, small, large = map(int, out.split()[-3:])
        assert large <= small

    def test_demo_generator_leaves_out_numpy(self, tmp_path):
        code = textwrap.dedent("""
            import sys
            from forumcast.synth import generate_demo
            imported = "numpy" in sys.modules
            generate_demo(sys.argv[1], seed=7, weeks=3)
            print(imported, "numpy" in sys.modules)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "demo")],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        assert out.split() == ["False", "False"]

    def test_selftest_command(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
