#!/usr/bin/env python3
"""The forumcast benchmark: ``forumcast run`` end to end on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload demo_exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                       # every workload, one table each

``--trace 0`` times whole ``forumcast run`` processes with nothing traced:
``setup_s`` is the median of several ``run --dry-run`` processes, then full
runs repeat until ``--seconds`` have passed and ``run_s``, ``msgs_per_s`` and
``peak_rss_mb`` are medians over them. ``--trace 1`` makes one untraced CLI
run, then alternates untraced and traced in-process runs at one worker for
``--seconds`` and reports the per-layer metrics of ``bench/tracing.py``.

Every run's outputs are checked (``bench/checks.py``). Human-readable lines
(inputs, machine, every metric with its unit) come first; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Inputs, outputs and traces live under ``.bench_work/`` in the repository.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
PROBE_REPEATS = 3
MIN_RUNS = 3
# a slow tree still ends within 180 s: no forced runs after MIN_RUNS_BUDGET_S,
# and a hung process is killed after RUN_TIMEOUT_S (a healthy run takes ~5 s)
MIN_RUNS_BUDGET_S = 60.0
RUN_TIMEOUT_S = 40.0

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "msgs_per_s": "msg/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "corpus.load_messages_s": "s",
    "corpus.partition_weeks_s": "s",
    "corpus.messages": "count",
    "corpus.rejected_rows": "count",
    "corpus.outside_horizon": "count",
    "textproc.tokenize_s": "s",
    "textproc.filter_tokens_s": "s",
    "textproc.build_vocabulary_s": "s",
    "textproc.tokens": "count",
    "textproc.tokenize_calls_per_message": "calls/msg",
    "semantics.lexicon_tokenize_calls_per_message": "calls/msg",
    "graphs.word_build_s": "s",
    "graphs.interaction_build_s": "s",
    "graphs.word_nodes_max": "count",
    "graphs.word_arcs_total": "count",
    "graphs.word_events_total": "count",
    "graphs.dangling_parents": "count",
    "graphs.export_s": "s",
    "graphs.export_files": "count",
    "graphs.export_bytes": "B",
    "centrality.betweenness_word_s": "s",
    "centrality.betweenness_interaction_s": "s",
    "centrality.degree_s": "s",
    "centrality.centralization_s": "s",
    "centrality.bfs_sources": "count",
    "centrality.arcs_scanned": "count",
    "semantics.score_s": "s",
    "semantics.complexity_s": "s",
    "econometrics.battery_s": "s",
    "econometrics.ols_fits": "count",
    "econometrics.write_s": "s",
    "pipeline.features_s": "s",
    "pipeline.analyze_s": "s",
    "pipeline.self_s": "s",
    "pipeline.windows": "count",
    "pipeline.stderr_lines": "count",
    "cli.import_s": "s",
    "config.load_s": "s",
    "trace.overhead_s": "s",
}

# layer times inside pipeline.features_s, for the share predictions
FEATURE_LAYERS = (
    "corpus.load_messages_s", "corpus.partition_weeks_s", "textproc.tokenize_s",
    "textproc.filter_tokens_s", "textproc.build_vocabulary_s", "graphs.word_build_s",
    "graphs.interaction_build_s", "graphs.export_s", "centrality.betweenness_word_s",
    "centrality.betweenness_interaction_s", "centrality.degree_s",
    "centrality.centralization_s", "semantics.score_s", "semantics.complexity_s",
    "pipeline.self_s",
)

# fresh interpreter: package import, then config load and path validation
_PROBE = """
import sys, time
t0 = time.perf_counter()
import forumcast.cli
t1 = time.perf_counter()
from forumcast.config import load_config, validate_paths
validate_paths(load_config(sys.argv[1]))
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


class Runs:
    """Attempted and failed runs of one invocation, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems


def run_process(argv: list[str], log_prefix: str) -> tuple[int, float, float, str]:
    """Spawn ``argv``, wait for it and return (exit code, wall seconds,
    peak RSS in MB of it and the children it reaped, stderr path)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    stderr_path = log_prefix + ".stderr"
    with open(log_prefix + ".stdout", "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], RUN_TIMEOUT_S)[0]:
            proc.kill()
    finally:
        os.close(pidfd)
    _pid, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0, stderr_path


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "forumcast.cli", *args]


def dry_run(inputs, work: str, label: str) -> tuple[list[str], float]:
    """One ``forumcast run --dry-run``: start-up, import, config and paths."""
    code, elapsed, _rss, _ = run_process(
        cli("run", "-c", inputs.config_path, "--dry-run"), os.path.join(work, label)
    )
    return ([f"exit code {code}"] if code else []), elapsed


def timed_run(inputs, work: str, label: str) -> tuple[list[str], float, float, str]:
    """One ``forumcast run`` into a fresh output directory."""
    shutil.rmtree(inputs.output_dir, ignore_errors=True)
    code, elapsed, rss, stderr_path = run_process(
        cli("run", "-c", inputs.config_path), os.path.join(work, label)
    )
    planted = inputs.expected_activity is None
    return checks.check_run(code, inputs.output_dir, inputs, planted), elapsed, rss, stderr_path


def end_to_end(name: str, inputs, work: str, seconds: float,
               runs: Runs) -> tuple[dict, dict]:
    """Full runs, each followed by a dry run until there are
    ``SETUP_REPEATS`` of those, so both samples span the whole window."""
    dry_run(inputs, work, "warmup")  # writes the bytecode cache; not counted
    setup, times, rss = [], [], []
    reference = None
    attempts = 0
    start = time.perf_counter()
    while True:
        spent = time.perf_counter() - start
        if attempts and spent >= seconds and (attempts >= MIN_RUNS or spent >= MIN_RUNS_BUDGET_S):
            break
        attempts += 1
        label = f"run{attempts}"
        if len(setup) < SETUP_REPEATS:
            problems, elapsed = dry_run(inputs, work, f"dry{attempts}")
            if runs.record(f"dry run {attempts}", problems):
                setup.append(elapsed)
        problems, elapsed, peak, _ = timed_run(inputs, work, label)
        if not problems:
            digest = checks.digest(inputs.output_dir)
            reference = reference or digest
            if digest != reference:
                problems = ["outputs differ from the first run of this invocation"]
        if runs.record(label, problems):
            times.append(elapsed)
            rss.append(peak)
    run_s = _median(times)
    metrics = {
        "run_s": run_s,
        "setup_s": _median(setup),
        "msgs_per_s": inputs.messages_in_horizon / run_s if run_s else 0.0,
        "peak_rss_mb": _median(rss),
    }
    return metrics, {"run_s": times, "setup_s": setup, "peak_rss_mb": rss}


def probe_setup(inputs, work: str, runs: Runs) -> tuple[float, float]:
    imports, loads = [], []
    for i in range(PROBE_REPEATS):
        log = os.path.join(work, f"probe{i}")
        code, _elapsed, _rss, _ = run_process(
            [sys.executable, "-c", _PROBE, inputs.config_path], log
        )
        if runs.record(f"import probe {i}", [f"exit code {code}"] if code else []):
            with open(log + ".stdout", encoding="utf-8") as handle:
                import_s, load_s = (float(v) for v in handle.read().split())
            imports.append(import_s)
            loads.append(load_s)
    return _median(imports), _median(loads)


def per_layer(name: str, inputs, work: str, seconds: float,
              runs: Runs) -> tuple[dict, dict]:
    """One CLI run for reference and stderr, then untraced/traced pairs."""
    from forumcast import pipeline
    from forumcast.config import load_config

    problems, _elapsed, _rss, stderr_path = timed_run(inputs, work, "cli")
    with open(stderr_path, "rb") as handle:
        stderr_lines = handle.read().count(b"\n")
    runs.record("cli run", problems)
    reference = checks.digest(inputs.output_dir, checks.REPORT_OUTPUTS)

    import_s, load_s = probe_setup(inputs, work, runs)

    # keep the dangling-parent warnings of in-process runs off the terminal
    logger = logging.getLogger("forumcast")
    quiet = logging.NullHandler()
    logger.addHandler(quiet)
    config = load_config(inputs.config_path)
    config.workers = 1

    def in_process(tracer=None) -> tuple[float, list[str]]:
        shutil.rmtree(inputs.output_dir, ignore_errors=True)
        start = time.perf_counter()
        try:
            if tracer is None:
                pipeline.run_all(config)
            else:
                with tracing.instrument(tracer):
                    pipeline.run_all(config)
        except Exception as exc:  # any failure of the program counts as a failed run
            return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        found = checks.check_run(0, inputs.output_dir, inputs, inputs.expected_activity is None)
        if not found and checks.digest(inputs.output_dir, checks.REPORT_OUTPUTS) != reference:
            found = [f"outputs at 1 worker differ from the CLI run at"
                     f" {workloads.SPECS[name].workers} workers"]
        return elapsed, found

    untraced, traced, layers = [], [], []
    tracer = None
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            elapsed, found = in_process()
            if runs.record(f"untraced {len(untraced)}", found):
                untraced.append(elapsed)
            tracer = tracing.Tracer(run_id=f"{name}-seed{inputs.seed}-{len(traced)}")
            elapsed, found = in_process(tracer)
            if not runs.record(f"traced {len(traced)}", found):
                break
            traced.append(elapsed)
            layers.append(tracer.layer_metrics(inputs.output_dir))
    finally:
        logger.removeHandler(quiet)

    metrics = {key: _median([m[key] for m in layers]) for key in layers[0]} if layers else {}
    metrics.update({
        "pipeline.stderr_lines": float(stderr_lines),
        "cli.import_s": import_s,
        "config.load_s": load_s,
        "trace.overhead_s": _median(traced) - _median(untraced),
    })
    if tracer is not None:
        with open(os.path.join(WORK, f"trace-{name}-seed{inputs.seed}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return metrics, {"untraced_s": untraced, "traced_s": traced}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def predictions(name: str, m: dict) -> list[str]:
    """The layer-share predictions the benchmark was designed around,
    each reported as measured."""
    out = []
    layers = {k: m[k] for k in FEATURE_LAYERS if k in m}
    features = m.get("pipeline.features_s", 0.0)
    if layers and features:
        top = max(layers, key=layers.get)
        shares = ", ".join(f"{k} {v / features:.0%}" for k, v in
                           sorted(layers.items(), key=lambda kv: -kv[1])[:6])
        out.append(f"largest shares of pipeline.features_s: {shares}")
        if name == "demo_exact":
            out.append(_verdict("centrality.betweenness_word_s is the largest self time",
                                top == "centrality.betweenness_word_s", top))
        if name == "quiet_longhaul":
            out.append(_verdict("graphs.export_s is the largest layer inside features",
                                top == "graphs.export_s", top))
        if name == "forum_sampled":
            out.append(_verdict("no layer exceeds half of pipeline.features_s",
                                layers[top] <= features / 2,
                                f"{top} {layers[top] / features:.0%}"))
    calls = m.get("textproc.tokenize_calls_per_message")
    if calls is not None:
        out.append(_verdict("textproc.tokenize_calls_per_message is 2.0", calls == 2.0,
                            f"{calls:g}"))
    return out


def _verdict(claim: str, holds: bool, measured: str) -> str:
    return f"prediction {'holds' if holds else 'FAILS'}: {claim} (measured: {measured})"


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu": _first_field("/proc/cpuinfo", "model name"),
        "mem": _first_field("/proc/meminfo", "MemTotal"),
        "git_sha": None,
        "git_dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                   capture_output=True, text=True, check=True).stdout.strip()
            info["git_sha"], info["git_dirty"] = sha, bool(dirty)
        except (OSError, subprocess.CalledProcessError):
            pass
    return info


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _first_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runs = Runs()
    try:
        inputs = workloads.generate(name, os.path.join(work, "inputs"), seed)
        measure = per_layer if trace else end_to_end
        metrics, samples = measure(name, inputs, work, seconds, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing and not runs.failed:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": inputs.size,
        "machine": machine(),
        "samples": samples,
        "failed_share": runs.failed / runs.attempted,
        "problems": runs.problems,
        "predictions": predictions(name, metrics) if trace else [],
        "result": {
            "correct": runs.failed == 0,
            "attempted": runs.attempted,
            "failed": runs.failed,
            # a failed traced run leaves layer metrics unmeasured: reported as 0
            "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in units},
        },
    }
    with open(os.path.join(WORK, f"report-{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    size = ", ".join(f"{k} {v}" for k, v in report["inputs"].items())
    print(f"== {report['workload']} seed {report['seed']} trace {report['trace']}: {size}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in report["machine"].items()))
    for name, metric in result["metrics"].items():
        count = len(report["samples"].get(name, ()))
        note = f"  (median of {count})" if count else ""
        print(f"  {name:48s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(f"  {'failed_share':48s} {report['failed_share']:>16.6g} fraction"
          f"  ({result['failed']} of {result['attempted']} runs)")
    for line in report["predictions"]:
        print("  " + line)
    for line in report["problems"]:
        print("  FAILED " + line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.SPECS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed loop of each workload runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "forumcast", "__init__.py")):
        print(f"no forumcast sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    reports = [bench_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        print(json.dumps(reports[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
