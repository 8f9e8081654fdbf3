"""Output checks applied to every timed ``forumcast run``.

A run passes when it exited 0, wrote one ``features.csv`` row per horizon
week, and (for the generated forums) reports per-week ``activity`` and
``activity_words`` equal to the counts the generator derived from its own
tokens. On ``demo_exact`` the planted lag-1 effect must still show as a
significant positive ``activity_words`` correlation. Byte-identity across
runs is checked by comparing ``digest`` values.
"""

from __future__ import annotations

import csv
import hashlib
import os

# outputs that must be byte-identical across reruns of one config
RUN_OUTPUTS = (
    "features.csv",
    "correlations.csv",
    "granger.csv",
    "regressions.csv",
    "regression_models.csv",
    "summary.md",
    "manifest.json",
)
# the manifest hashes the config, which names the worker count, so a
# run with other workers is compared on everything else
REPORT_OUTPUTS = RUN_OUTPUTS[:-1]


def digest(output_dir: str, names: tuple[str, ...] = RUN_OUTPUTS) -> str:
    sha = hashlib.sha256()
    for name in names:
        sha.update(name.encode() + b"\0")
        try:
            with open(os.path.join(output_dir, name), "rb") as handle:
                sha.update(handle.read())
        except OSError:
            sha.update(b"<missing>")
        sha.update(b"\0")
    return sha.hexdigest()


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_features(output_dir: str, horizon_weeks: int,
                   expected_activity: list[int] | None = None,
                   expected_activity_words: list[int] | None = None) -> list[str]:
    try:
        rows = _read_csv(os.path.join(output_dir, "features.csv"))
    except OSError as exc:
        return [f"features.csv unreadable: {exc}"]
    if len(rows) != horizon_weeks:
        return [f"features.csv has {len(rows)} rows, want {horizon_weeks}"]
    problems = []
    if [r["week"] for r in rows] != [str(w) for w in range(horizon_weeks)]:
        problems.append("features.csv weeks are not 0..horizon_weeks-1 in order")
    for column, expected in (("activity", expected_activity),
                             ("activity_words", expected_activity_words)):
        if expected is None:
            continue
        got = [r[column] for r in rows]
        bad = [w for w, (g, e) in enumerate(zip(got, expected)) if g != str(e)]
        if bad:
            w = bad[0]
            problems.append(
                f"{column} differs from the generated count in {len(bad)} weeks"
                f" (week {w}: got {got[w]!r}, want {expected[w]})"
            )
    return problems


def check_planted_effect(output_dir: str) -> list[str]:
    """The demo plants price_t ~ activity_words_{t-1}: lag 1 must be a
    significant positive correlation."""
    try:
        rows = _read_csv(os.path.join(output_dir, "correlations.csv"))
    except OSError as exc:
        return [f"correlations.csv unreadable: {exc}"]
    for row in rows:
        if row["predictor"] == "activity_words" and row["lag"] == "1":
            if row["r"] and row["p"] and float(row["r"]) > 0 and float(row["p"]) < 0.05:
                return []
            return [f"lag-1 activity_words cell not significant: r={row['r']!r} p={row['p']!r}"]
    return ["correlations.csv has no lag-1 activity_words cell"]


def check_run(returncode: int, output_dir: str, inputs, planted_effect: bool) -> list[str]:
    """Every reason this run's outputs are wrong; empty when it passes."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = check_features(output_dir, inputs.horizon_weeks, inputs.expected_activity,
                              inputs.expected_activity_words)
    if planted_effect:
        problems += check_planted_effect(output_dir)
    return problems
