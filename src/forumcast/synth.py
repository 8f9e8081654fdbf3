"""Synthetic demo corpus with a planted price relationship.

``generate_demo`` writes a self-contained input set (messages, price,
control, lexicon, config) in which the price is constructed as

    price_t = 50 + 5.0*z(control_t) + 4.5*z(activity_words_{t-1}) + 1.75*eps_t

where activity_words is the *actual* weekly co-occurrence count the pipeline
will measure on the generated messages. The lag-1 correlation, the Granger
rejection, and the combined-model gain over the control-only model are all
real consequences of the construction, not hard-coded outputs.

Everything derives from one seed; regenerating with the same seed and
directory reproduces the files byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import random
from datetime import timedelta

from .config import PipelineConfig, save_config
from .corpus import WEEK, parse_timestamp
from .textproc import TokenFilter, load_stopwords, tokenize

HORIZON_START = "2018-01-01T00:00:00+00:00"
FOCAL_WORD = "brandora"

_TOPIC_WORDS = (
    "release", "update", "platform", "server", "client", "deploy", "rollout",
    "metrics", "report", "quarter", "budget", "meeting", "agenda", "deadline",
    "project", "sprint", "review", "feedback", "design", "prototype",
    "customer", "support", "ticket", "issue", "outage", "maintenance",
    "network", "storage", "database", "backup", "migration", "upgrade",
    "security", "audit", "policy", "training", "workshop", "seminar",
    "travel", "office", "canteen", "parking", "badge", "printer",
    "laptop", "phone", "intranet", "portal", "login", "password",
    "document", "template", "contract", "invoice", "supplier", "vendor",
    "partner", "client", "market", "sales", "pipeline", "forecast",
    "revenue", "cost", "margin", "pricing", "discount", "campaign",
    "brand", "logo", "website", "newsletter", "announcement", "event",
    "conference", "keynote", "panel", "booth", "demo", "launch",
    "product", "feature", "roadmap", "backlog", "priority", "scope",
    "testing", "quality", "defect", "patch", "hotfix", "version",
    "integration", "api", "interface", "module", "component", "library",
    "framework", "tooling", "automation", "script", "workflow", "process",
    "approval", "request", "form", "survey", "holiday", "schedule",
    "shift", "overtime", "payroll", "benefits", "insurance", "pension",
    "wellness", "fitness", "football", "tournament", "lottery", "charity",
    "volunteer", "community", "newsroom", "gazette", "bulletin", "notice",
    "cafeteria", "menu", "lunch", "coffee", "espresso", "birthday",
    "anniversary", "celebration", "award", "recognition", "bonus",
    "restructuring", "merger", "acquisition", "division", "department",
    "branch", "region", "headquarters", "factory", "warehouse", "logistics",
    "shipment", "delivery", "inventory", "procurement", "tender", "bid",
    "compliance", "regulation", "lawsuit", "patent", "trademark", "license",
    "innovation", "research", "laboratory", "pilot", "experiment", "analysis",
    "dashboard", "chart", "trend", "benchmark", "target", "milestone",
    "strategy", "vision", "mission", "values", "culture", "townhall",
    "onboarding", "mentoring", "career", "promotion", "transfer", "vacancy",
    "recruiting", "interview", "candidate", "internship", "graduate",
    "retirement", "farewell", "newcomer", "colleague", "teamwork",
)

_POSITIVE = ("gain", "growth", "strong", "excellent", "happy", "confident",
             "success", "improve", "bullish")
_NEGATIVE = ("loss", "drop", "weak", "poor", "worry", "risky", "failure",
             "decline", "bearish")

LEXICON = tuple(
    [(w, 0.8) for w in _POSITIVE[:6]]
    + [(w, 0.4) for w in _POSITIVE[6:]]
    + [(w, -0.8) for w in _NEGATIVE[:6]]
    + [(w, -0.4) for w in _NEGATIVE[6:]]
)

_AUTHORS = tuple(f"u{i:02d}" for i in range(10))


def _zscore(values: list[float]) -> list[float]:
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    sd = math.sqrt(var)
    if sd == 0:
        return [0.0 for _ in values]
    return [(v - mean) / sd for v in values]


def _week_messages(week: int, rng: random.Random, start) -> list[dict]:
    active = rng.sample(_AUTHORS, 5 + rng.randrange(4))
    n_msgs = 14 + rng.randrange(10)
    hub_p = rng.uniform(0.25, 0.9)
    positivity = rng.uniform(0.2, 0.8)
    focal_p = rng.uniform(0.15, 0.85)
    hot = rng.sample(_TOPIC_WORDS, 25)

    rows: list[dict] = []
    for i in range(n_msgs):
        words = []
        for _ in range(7 + rng.randrange(8)):
            pool = hot if rng.random() < 0.55 else _TOPIC_WORDS
            words.append(rng.choice(pool))
        if rng.random() < 0.7:
            bank = _POSITIVE if rng.random() < positivity else _NEGATIVE
            words.insert(rng.randrange(len(words) + 1), rng.choice(bank))
        if rng.random() < focal_p:
            words.insert(rng.randrange(len(words) + 1), FOCAL_WORD)
        body = " ".join(words) + "."

        if i == 0:
            author = active[0]
            parent = None
        elif i <= 3:
            # guarantee >= 4 actors in the interaction net every week
            author = active[i]
            parent = rows[0]["id"]
        else:
            author = rng.choice(active)
            parent = rows[0]["id"] if rng.random() < hub_p else rng.choice(rows)["id"]
        stamp = start + week * WEEK + timedelta(hours=3 * i, minutes=rng.randrange(60))
        rows.append(
            {
                "id": f"m{week:03d}{i:02d}",
                "author_id": author,
                "timestamp": stamp.isoformat(),
                "body": body,
                "parent_id": parent,
            }
        )
    return rows


def _cooccurrence_events(tokens: list[str]) -> int:
    """The word-graph events of one message at the default ``window_size`` of
    7: ordered pairs of different words at most 7 positions apart."""
    return sum(right != left for i, left in enumerate(tokens) for right in tokens[i + 1:i + 8])


def generate_demo(out_dir: str, seed: int = 7, weeks: int = 94) -> dict[str, str]:
    """Write the demo input set under ``out_dir`` and return the file paths."""
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    start = parse_timestamp(HORIZON_START)

    weekly_rows = [_week_messages(w, rng, start) for w in range(weeks)]

    messages_path = os.path.join(out_dir, "messages.jsonl")
    with open(messages_path, "w", encoding="utf-8") as handle:
        for rows in weekly_rows:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")

    # measure the quantity the pipeline itself will see
    token_filter = TokenFilter(load_stopwords("english"))
    weekly_aw = [
        float(sum(_cooccurrence_events(token_filter.stream(tokenize(row["body"])))
                  for row in rows))
        for rows in weekly_rows
    ]

    control = [100.0]
    for _ in range(1, weeks):
        control.append(control[-1] + rng.gauss(0.0, 1.0))
    zc = _zscore(control)
    zaw = _zscore(weekly_aw)
    price = [
        50.0 + 5.0 * zc[t] + 4.5 * (zaw[t - 1] if t >= 1 else 0.0) + 1.75 * rng.gauss(0.0, 1.0)
        for t in range(weeks)
    ]

    price_path = os.path.join(out_dir, "price.csv")
    control_path = os.path.join(out_dir, "control.csv")
    for path, series in ((price_path, price), (control_path, control)):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("week,value\n")
            for week, value in enumerate(series):
                handle.write(f"{week},{value!r}\n")

    lexicon_path = os.path.join(out_dir, "lexicon.csv")
    with open(lexicon_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("word,polarity\n")
        for word, polarity in LEXICON:
            handle.write(f"{word},{polarity}\n")

    config = PipelineConfig(
        messages_path=os.path.abspath(messages_path),
        messages_format="jsonl",
        price_path=os.path.abspath(price_path),
        control_path=os.path.abspath(control_path),
        lexicon_path=os.path.abspath(lexicon_path),
        horizon_start=HORIZON_START,
        horizon_weeks=weeks,
        focal_word=FOCAL_WORD,
        seed=seed,
        output_dir=os.path.abspath(os.path.join(out_dir, "out")),
    )
    config_path = os.path.join(out_dir, "config.yaml")
    save_config(config, config_path)

    return {
        "messages": messages_path,
        "price": price_path,
        "control": control_path,
        "lexicon": lexicon_path,
        "config": config_path,
    }
