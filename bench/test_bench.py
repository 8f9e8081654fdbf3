"""Tests of the benchmark itself: inputs, output check, tracer, metric names.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tree_digest(path: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    work = str(tmp_path / "inputs")
    first = workloads.generate(name, work, 5)
    before = _tree_digest(work)
    shutil.rmtree(work)
    second = workloads.generate(name, work, 5)
    assert _tree_digest(work) == before
    assert first == second
    other = str(tmp_path / "other")
    workloads.generate(name, other, 6)
    assert _tree_digest(other)["messages.jsonl"] != before["messages.jsonl"]


def test_forum_sizes_match_their_description(tmp_path):
    forum = workloads.generate("forum_sampled", str(tmp_path / "f"), 0)
    assert len(forum.expected_activity) == 26
    assert all(200 <= a <= 240 for a in forum.expected_activity)
    quiet = workloads.generate("quiet_longhaul", str(tmp_path / "q"), 0)
    assert quiet.size["weeks"] == 1040
    assert all(2 <= a <= 4 for a in quiet.expected_activity)


def test_generated_words_are_never_stopwords():
    data = os.path.join(ROOT, "src", "forumcast", "data")
    stopwords = set()
    for name in os.listdir(data):
        with open(os.path.join(data, name), encoding="utf-8") as handle:
            stopwords.update(line.strip() for line in handle)
    words = workloads.vocabulary(6000)
    assert len(set(words)) == 6000
    assert not stopwords & {*words, workloads.FOCAL_WORD}


def test_cooccurrence_events_closed_form():
    # README: L distinct tokens, L >= 7, window 7 -> 7L - 28 events
    tokens = [f"w{i}" for i in range(12)]
    assert workloads.cooccurrence_events(tokens) == 7 * 12 - 28
    assert workloads.cooccurrence_events(["a", "a", "b"]) == 2


def _fake_output(tmp_path, activity, activity_words):
    out = tmp_path / "out"
    out.mkdir()
    lines = ["week,activity,activity_words,sentiment"]
    lines += [f"{w},{a},{aw},0.5" for w, (a, aw) in enumerate(zip(activity, activity_words))]
    (out / "features.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(out)


def _inputs(activity, activity_words):
    return workloads.Inputs(
        seed=0, config_path="", output_dir="", horizon_weeks=len(activity),
        messages_in_horizon=sum(activity), size={}, expected_activity=activity,
        expected_activity_words=activity_words,
    )


def test_output_check_accepts_matching_counts(tmp_path):
    out = _fake_output(tmp_path, [3, 4, 2], [40, 51, 9])
    assert checks.check_run(0, out, _inputs([3, 4, 2], [40, 51, 9]), False) == []


def test_output_check_rejects_one_changed_activity_cell(tmp_path):
    out = _fake_output(tmp_path, [3, 5, 2], [40, 51, 9])
    problems = checks.check_run(0, out, _inputs([3, 4, 2], [40, 51, 9]), False)
    assert len(problems) == 1 and "activity differs" in problems[0]


def test_output_check_rejects_nonzero_exit(tmp_path):
    out = _fake_output(tmp_path, [3, 4, 2], [40, 51, 9])
    assert checks.check_run(2, out, _inputs([3, 4, 2], [40, 51, 9]), False) == ["exit code 2"]


def test_output_check_rejects_missing_week(tmp_path):
    out = _fake_output(tmp_path, [3, 4], [40, 51])
    assert checks.check_run(0, out, _inputs([3, 4, 2], [40, 51, 9]), False)


def test_planted_effect_check(tmp_path):
    header = "predictor,lag,r,n,p,stars,error\n"
    (tmp_path / "correlations.csv").write_text(
        header + "activity_words,1,0.41,93,0.0001,**,\n", encoding="utf-8")
    assert checks.check_planted_effect(str(tmp_path)) == []
    (tmp_path / "correlations.csv").write_text(
        header + "activity_words,1,0.05,93,0.6,,\n", encoding="utf-8")
    assert checks.check_planted_effect(str(tmp_path))


def test_digest_sees_any_changed_byte(tmp_path):
    for name in checks.RUN_OUTPUTS:
        (tmp_path / name).write_text("x\n", encoding="utf-8")
    before = checks.digest(str(tmp_path))
    (tmp_path / "granger.csv").write_text("y\n", encoding="utf-8")
    assert checks.digest(str(tmp_path)) != before


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer("t")
    tracer.spans = [
        ("outer", 0.0, 10.0, None),
        ("inner", 1.0, 4.0, 0),
        ("inner", 5.0, 6.0, 0),
        ("leaf", 2.0, 3.0, 1),
    ]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert tracer.total_times()["inner"] == 4.0


def test_instrument_restores_the_pipeline():
    from forumcast import econometrics, pipeline, semantics

    before = (pipeline.tokenize, pipeline.run_features, semantics.tokenize, econometrics.ols)
    with tracing.instrument(tracing.Tracer("t")):
        assert pipeline.tokenize is not before[0]
    assert (pipeline.tokenize, pipeline.run_features, semantics.tokenize,
            econometrics.ols) == before


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_workloads_are_the_generated_ones():
    assert [w["name"] for w in _declared()["workloads"]] == list(workloads.SPECS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_equal_declared(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "quiet_longhaul",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo_exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
