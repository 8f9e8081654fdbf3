"""Seeded input sets for the three benchmark workloads.

Every workload is a pure function of its seed: the same seed writes
byte-identical files. ``demo_exact`` uses the program's own planted-effect
generator (``forumcast.synth.generate_demo``); the two forum workloads come
from the generator below, which also returns the per-week ``activity`` and
``activity_words`` counts implied by the tokens it wrote. Those counts are
computed here from the generated token lists, never through
``forumcast.textproc``, so they are an independent check of the pipeline.

Generated words are ``x`` followed by consonant-vowel syllables; no English
or Italian stopword starts with ``x``, so every generated token survives the
pipeline's filter and the expected counts need no stopword list.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import yaml

WINDOW_SIZE = 7
FOCAL_WORD = "brandora"
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Spec:
    """One workload: the pipeline settings it runs with and why it is in
    the benchmark."""

    name: str
    why: str
    betweenness_mode: str
    workers: int
    betweenness_samples: int = 256


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "demo_exact",
            "paper demo corpus, 94 weeks, exact betweenness: the Brandes kernel dominates",
            betweenness_mode="exact",
            workers=1,
        ),
        Spec(
            "forum_sampled",
            "busy forum, 26 weeks of ~2k-node word graphs, sampled betweenness,"
            " 2 workers: no single layer dominates",
            betweenness_mode="sampled",
            workers=2,
            betweenness_samples=8,
        ),
        Spec(
            "quiet_longhaul",
            "20 years of 2-4 short messages a week: per-window fixed costs,"
            " 4160 small export files, longest panel",
            betweenness_mode="exact",
            workers=1,
        ),
    )
}


@dataclass
class Inputs:
    """Paths of one generated input set plus what the check needs."""

    seed: int
    config_path: str
    output_dir: str
    horizon_weeks: int
    messages_in_horizon: int
    size: dict
    expected_activity: list[int] | None = None
    expected_activity_words: list[int] | None = None


def _word(index: int, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        index, r = divmod(index, len(_CONSONANTS) * len(_VOWELS))
        parts.append(_CONSONANTS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
    return "x" + "".join(parts)


def vocabulary(size: int) -> list[str]:
    """``size`` distinct generated words, none of them a stopword."""
    return [_word(i, 3) for i in range(size)]


def cooccurrence_events(tokens: list[str], window: int = WINDOW_SIZE) -> int:
    """Stored co-occurrence events of one message: ordered pairs within
    ``window`` positions, identical-word pairs excluded (README, "Weekly
    features")."""
    events = 0
    for i, left in enumerate(tokens):
        for right in tokens[i + 1 : i + 1 + window]:
            if right != left:
                events += 1
    return events


def _write_series(path: str, values: list[float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("week,value\n")
        for week, value in enumerate(values):
            handle.write(f"{week},{value!r}\n")


def _write_config(work_dir: str, spec: Spec, seed: int, horizon_start: str,
                  weeks: int, lexicon: str) -> tuple[str, str]:
    output_dir = os.path.join(work_dir, "out")
    config = {
        "messages_path": os.path.join(work_dir, "messages.jsonl"),
        "messages_format": "jsonl",
        "price_path": os.path.join(work_dir, "price.csv"),
        "control_path": os.path.join(work_dir, "control.csv"),
        "lexicon_path": lexicon,
        "horizon_start": horizon_start,
        "horizon_weeks": weeks,
        "focal_word": FOCAL_WORD,
        "window_size": WINDOW_SIZE,
        "betweenness_mode": spec.betweenness_mode,
        "betweenness_samples": spec.betweenness_samples,
        "seed": seed,
        "workers": spec.workers,
        "export_graphs": True,
        "output_dir": output_dir,
    }
    path = os.path.join(work_dir, "config.yaml")
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(config, handle, sort_keys=True)
    return path, output_dir


@dataclass(frozen=True)
class ForumShape:
    weeks: int
    horizon_start: str
    vocab_size: int
    authors: int
    active_per_week: tuple[int, int]
    messages_per_week: tuple[int, int]
    tokens_per_message: tuple[int, int]
    reply_share: float
    cross_week_share: float
    dangling_share: float
    rejected_rows: int
    outside_horizon: int


FORUM_SAMPLED = ForumShape(
    weeks=26,
    horizon_start="2019-01-07T00:00:00+00:00",
    vocab_size=6000,
    authors=400,
    active_per_week=(80, 80),
    messages_per_week=(200, 240),
    tokens_per_message=(20, 60),
    reply_share=0.75,
    cross_week_share=0.1,
    dangling_share=0.03,
    rejected_rows=12,
    outside_horizon=30,
)

QUIET_LONGHAUL = ForumShape(
    weeks=1040,
    horizon_start="2000-01-03T00:00:00+00:00",
    vocab_size=600,
    authors=12,
    active_per_week=(1, 4),
    messages_per_week=(2, 4),
    tokens_per_message=(4, 14),
    reply_share=0.6,
    cross_week_share=0.2,
    dangling_share=0.0,
    rejected_rows=0,
    outside_horizon=0,
)


def generate_forum(work_dir: str, spec: Spec, shape: ForumShape, seed: int) -> Inputs:
    """Write a synthetic forum archive, its market series, lexicon and config."""
    os.makedirs(work_dir, exist_ok=True)
    rng = random.Random(f"{spec.name}:{seed}")
    words = vocabulary(shape.vocab_size)
    # Zipf-Mandelbrot ranks, as in natural text
    cum_weights = []
    total = 0.0
    for rank in range(shape.vocab_size):
        total += 1.0 / (rank + 2.7) ** 1.15
        cum_weights.append(total)
    authors = [f"a{i:03d}" for i in range(shape.authors)]
    start = datetime.fromisoformat(shape.horizon_start).astimezone(timezone.utc)
    week_seconds = 7 * 24 * 3600

    lines: list[str] = []
    activity = [0] * shape.weeks
    activity_words = [0] * shape.weeks
    previous_ids: list[str] = []
    used_words: set[str] = set()
    serial = 0

    def message(week: int, offset: int, author: str, tokens: list[str],
                parent: str | None) -> dict:
        nonlocal serial
        serial += 1
        stamp = start + timedelta(seconds=week * week_seconds + offset)
        return {
            "author_id": author,
            "body": " ".join(tokens) + ".",
            "id": f"m{serial:07d}",
            "parent_id": parent,
            "timestamp": stamp.isoformat(),
        }

    def tokens_for(focal_p: float) -> list[str]:
        length = rng.randint(*shape.tokens_per_message)
        tokens = rng.choices(words, cum_weights=cum_weights, k=length)
        if rng.random() < focal_p:
            tokens.insert(rng.randrange(length + 1), FOCAL_WORD)
        return tokens

    # a few messages before the horizon: parents that resolve, but dropped
    for _ in range(shape.outside_horizon):
        row = message(-1, rng.randrange(week_seconds), rng.choice(authors), tokens_for(0.3), None)
        lines.append(json.dumps(row, sort_keys=True))
        previous_ids.append(row["id"])

    for week in range(shape.weeks):
        active = rng.sample(authors, min(shape.authors, rng.randint(*shape.active_per_week)))
        count = rng.randint(*shape.messages_per_week)
        focal_p = rng.uniform(0.2, 0.6)
        offsets = sorted(rng.randrange(week_seconds) for _ in range(count))
        week_ids: list[str] = []
        for offset in offsets:
            tokens = tokens_for(focal_p)
            parent = None
            if (week_ids or previous_ids) and rng.random() < shape.reply_share:
                draw = rng.random()
                if draw < shape.dangling_share:
                    parent = f"gone{rng.randrange(10**6):06d}"
                elif previous_ids and (not week_ids or draw < shape.cross_week_share):
                    parent = rng.choice(previous_ids)
                else:
                    parent = rng.choice(week_ids)
            row = message(week, offset, rng.choice(active), tokens, parent)
            lines.append(json.dumps(row, sort_keys=True))
            week_ids.append(row["id"])
            activity[week] += 1
            activity_words[week] += cooccurrence_events(tokens)
            used_words.update(tokens)
        previous_ids = week_ids or previous_ids

    for i in range(shape.rejected_rows):
        # malformed rows: the loader rejects them, the run goes on
        bad = '{"id": "broken' if i % 2 else json.dumps({"id": f"r{i}", "body": "no author"})
        lines.insert(rng.randrange(len(lines) + 1), bad)

    messages_path = os.path.join(work_dir, "messages.jsonl")
    with open(messages_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    control = [100.0]
    for _ in range(1, shape.weeks):
        control.append(control[-1] + rng.gauss(0.0, 1.0))
    price = [50.0 + 0.5 * c + 2e-5 * aw + rng.gauss(0.0, 1.0)
             for c, aw in zip(control, [0] + activity_words[:-1])]
    _write_series(os.path.join(work_dir, "price.csv"), price)
    _write_series(os.path.join(work_dir, "control.csv"), control)

    lexicon = os.path.join(work_dir, "lexicon.csv")
    with open(lexicon, "w", encoding="utf-8", newline="") as handle:
        handle.write("word,polarity\n")
        for i, word in enumerate(words[:40]):
            handle.write(f"{word},{(0.8, 0.4, -0.4, -0.8)[i % 4]}\n")

    config_path, output_dir = _write_config(
        work_dir, spec, seed, shape.horizon_start, shape.weeks, lexicon
    )
    in_horizon = sum(activity)
    return Inputs(
        seed=seed,
        config_path=config_path,
        output_dir=output_dir,
        horizon_weeks=shape.weeks,
        messages_in_horizon=in_horizon,
        size={
            "messages": in_horizon,
            "bytes": os.path.getsize(messages_path),
            "weeks": shape.weeks,
            "vocabulary": len(used_words),
        },
        expected_activity=activity,
        expected_activity_words=activity_words,
    )


def generate_demo_exact(work_dir: str, spec: Spec, seed: int) -> Inputs:
    """The paper's planted-effect demo corpus from the program's generator."""
    from forumcast.synth import HORIZON_START, generate_demo

    weeks = 94
    paths = generate_demo(work_dir, seed=seed, weeks=weeks)
    os.remove(paths["config"])
    config_path, output_dir = _write_config(
        work_dir, spec, seed, HORIZON_START, weeks, paths["lexicon"]
    )
    distinct: set[str] = set()
    messages = 0
    with open(paths["messages"], encoding="utf-8") as handle:
        for line in handle:
            messages += 1
            distinct.update(json.loads(line)["body"].rstrip(".").split())
    return Inputs(
        seed=seed,
        config_path=config_path,
        output_dir=output_dir,
        horizon_weeks=weeks,
        messages_in_horizon=messages,
        size={
            "messages": messages,
            "bytes": os.path.getsize(paths["messages"]),
            "weeks": weeks,
            "vocabulary": len(distinct),
        },
    )


def generate(name: str, work_dir: str, seed: int) -> Inputs:
    spec = SPECS[name]
    if name == "demo_exact":
        return generate_demo_exact(work_dir, spec, seed)
    shape = FORUM_SAMPLED if name == "forum_sampled" else QUIET_LONGHAUL
    return generate_forum(work_dir, spec, shape, seed)
