"""Runs of ``python -m forumcast.cli`` in fresh processes.

The other tests fork their window workers from a process that already holds
every module; these start cold, as the console script does, and compare
whole output directories byte for byte. Pooled runs use 2 workers, never
more.
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from forumcast.synth import generate_demo

from conftest import children

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

# The files a run writes besides manifest.json.
OUTPUTS = (
    "features.csv", "diagnostics.csv", "rejections.csv", "graphs/interaction_edges.csv",
    "graphs/words_edges.csv", "correlations.csv", "granger.csv", "regressions.csv",
    "regression_models.csv", "summary.md",
)


def cli(*args: str) -> subprocess.CompletedProcess:
    """``forumcast <args>`` in a fresh process; it must exit 0."""
    done = subprocess.run(
        [sys.executable, "-m", "forumcast.cli", *args],
        capture_output=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done


def files(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory``, hidden ones included, by relative path."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in directory.rglob("*") if path.is_file()
    }


def hidden(directory: Path) -> list[Path]:
    return [path for path in directory.rglob(".*")]


def same_but_config_hash(a: Path, b: Path) -> None:
    """``diff -r`` of the two run directories but for manifest.json, whose
    lines must match but for ``config_sha256``, which covers the worker
    count."""
    left, right = files(a), files(b)
    manifests = [
        [line for line in tree.pop("manifest.json").splitlines() if b"config_sha256" not in line]
        for tree in (left, right)
    ]
    assert left == right
    assert manifests[0] == manifests[1]


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> str:
    """The 12-week demo's config, with replies to unknown parents added in
    weeks 1, 2 and 4, so that each of those weeks logs a warning."""
    base = tmp_path_factory.mktemp("cold_demo")
    paths = generate_demo(str(base), seed=7, weeks=12)
    with open(paths["messages"], "a") as handle:
        for week in (1, 2, 4):
            handle.write(json.dumps({
                "id": f"dangling{week}", "author_id": "u01", "parent_id": f"ghost{week}",
                "timestamp": f"2018-01-{1 + 7 * week:02d}T12:00:00+00:00",
                "body": "orphan reply",
            }) + "\n")
    return paths["config"]


@pytest.fixture(scope="module")
def quiet(tmp_path_factory) -> str:
    """The config of the benchmark's quiet_longhaul inputs (seed 0): 1040
    weeks of 2-4 short messages, many chunks of windows."""
    base = tmp_path_factory.mktemp("cold_quiet")
    subprocess.run(
        [sys.executable, "-c", "import sys, workloads;"
         " workloads.generate('quiet_longhaul', sys.argv[1], 0)", str(base)],
        check=True, env=dict(ENV, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), *sys.path])),
        timeout=120,
    )
    return str(base / "config.yaml")


def test_two_worker_run_matches_the_one_worker_run(demo, tmp_path):
    # The warnings are logged in window order at any worker count, so
    # stderr matches too. The workers write the edge rows to hidden part
    # files, which the run must not leave behind.
    one = cli("run", "-c", demo, "--output-dir", str(tmp_path / "out"))
    two = cli("run", "-c", demo, "--workers", "2", "--output-dir", str(tmp_path / "out2"))
    assert one.stderr
    assert two.stderr == one.stderr
    for name in OUTPUTS:
        assert (tmp_path / "out2" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()
    assert hidden(tmp_path / "out2") == []


def test_one_and_two_workers_agree_over_many_chunks(quiet, tmp_path):
    # Each pair of runs writes to the same directory in turn, so the
    # manifests differ only in the config hash. The sampled pair sweeps
    # stacks of small graphs over drawn source ids.
    out = tmp_path / "out"
    for mode in ("exact", "sampled"):
        flags = ("--betweenness-mode", "sampled", "--samples", "4") if mode == "sampled" else ()
        errs = []
        for workers in ("1", "2"):
            errs.append(cli("run", "-c", quiet, *flags, "--workers", workers,
                            "--output-dir", str(out)).stderr)
            assert hidden(out) == []
            shutil.move(out, tmp_path / f"{mode}{workers}")
        assert errs[1] == errs[0]
        same_but_config_hash(tmp_path / f"{mode}1", tmp_path / f"{mode}2")
    features = [(tmp_path / run / "features.csv").read_bytes() for run in ("exact1", "sampled2")]
    assert features[0] != features[1]


# Runs the demo at 2 workers, one window to a chunk, with a main process that
# stalls for good before it appends its first chunk's part files.
_STALLED_RUN = """
import sys, time
from forumcast import pipeline
from forumcast.cli import main

pipeline.CHUNK_TOKENS = 1
pipeline._append_parts = lambda *args: time.sleep(120)
sys.exit(main(["run", "-c", sys.argv[1], "--workers", "2", "--output-dir", sys.argv[2]]))
"""


def _ended(pid: int) -> bool:
    """Process ``pid`` is gone, or a zombie that nobody reaps."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_killed_run_takes_its_workers_and_the_rerun_its_leftovers(demo, tmp_path):
    out = tmp_path / "out"
    cli("run", "-c", demo, "--workers", "2", "--output-dir", str(out))
    assert hidden(out) == []
    clean = files(out)
    shutil.rmtree(out)

    run = subprocess.Popen([sys.executable, "-c", _STALLED_RUN, demo, str(out)], env=ENV,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while not (list((out / "graphs").glob(".*.part")) and len(children(run.pid)) == 2):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        workers = children(run.pid)
        run.send_signal(signal.SIGKILL)
        run.wait(timeout=10)
        deadline = time.monotonic() + 5
        while not all(_ended(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if not _ended(pid)] == []
    finally:
        run.kill()
        run.wait(timeout=10)
        for pid in workers:  # a worker that outlived its run
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert hidden(out)

    cli("run", "-c", demo, "--workers", "2", "--output-dir", str(out))
    assert files(out) == clean
