"""Pipeline configuration: a YAML file mirroring one dataclass, the
analysis battery's model types (``ModelTerm``, ``ModelSpec``) it parses, and
the timestamp parser, week length and bundled stopword languages it checks
against (``corpus`` and ``textproc`` import them from here).

The file round-trips: load -> save -> load yields an equal config. Unknown
keys are rejected so typos fail fast. Paths are checked separately
(``validate_paths``, ``validate_output_dir``) right before a run, not at
parse time, so configs can be written before their inputs exist.

This module imports no other ``forumcast`` module but ``errors``, so a dry
run or a config error loads no NumPy, SciPy or pipeline layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from typing import Any, NamedTuple

import yaml

from .errors import ConfigError

WEEK = timedelta(days=7)
BUNDLED_LANGUAGES = ("english", "italian")
BETWEENNESS_MODES = ("exact", "sampled")
MESSAGE_FORMATS = ("jsonl", "csv")

# Predictor columns in Table-1 row order; "control" is the market index.
PREDICTOR_COLUMNS = (
    "activity_words",
    "activity",
    "group_betweenness",
    "focal_betweenness",
    "complexity",
    "focal_degree",
    "emotionality",
    "sentiment",
    "control",
    "group_degree",
)


class ModelTerm(NamedTuple):
    column: str
    lag: int = 0

    @property
    def label(self) -> str:
        return f"{self.column}_lag{self.lag}" if self.lag else self.column


class ModelSpec(NamedTuple):
    name: str
    terms: tuple[ModelTerm, ...]


# Default battery: a control-only baseline, single-block models 2..7 (group
# degree and group betweenness kept apart), and the combined model 8 with
# each variable at its best-performing lag.
DEFAULT_MODELS: tuple[ModelSpec, ...] = (
    ModelSpec("model_1", (ModelTerm("control", 0),)),
    ModelSpec(
        "model_2",
        (ModelTerm("complexity", 0), ModelTerm("emotionality", 1), ModelTerm("sentiment", 2)),
    ),
    ModelSpec("model_3", (ModelTerm("activity_words", 1),)),
    ModelSpec("model_4", (ModelTerm("activity", 0), ModelTerm("group_betweenness", 2))),
    ModelSpec("model_5", (ModelTerm("group_degree", 0),)),
    ModelSpec("model_6", (ModelTerm("focal_betweenness", 0),)),
    ModelSpec("model_7", (ModelTerm("focal_degree", 0),)),
    ModelSpec(
        "model_8",
        (
            ModelTerm("control", 0),
            ModelTerm("sentiment", 2),
            ModelTerm("activity_words", 1),
            ModelTerm("group_betweenness", 2),
            ModelTerm("focal_betweenness", 0),
        ),
    ),
)


@dataclass
class PipelineConfig:
    # inputs
    messages_path: str = ""
    messages_format: str = "jsonl"
    price_path: str = ""
    control_path: str = ""
    lexicon_path: str | None = None
    precomputed_sentiment_path: str | None = None
    stopwords_path: str | None = None
    dictionary_path: str | None = None
    language: str = "english"
    # horizon
    horizon_start: str = ""
    horizon_weeks: int = 94
    # text and graph construction
    focal_word: str = ""
    window_size: int = 7
    stemming: bool = False
    keep_digits: bool = False
    # centrality engine
    betweenness_mode: str = "exact"
    betweenness_samples: int = 256
    seed: int = 0
    # execution
    workers: int = 1
    export_graphs: bool = True
    output_dir: str = "out"
    # analysis battery
    correlation_lags: tuple[int, ...] = (0, 1, 2)
    granger_max_lag: int = 3
    granger_difference_dependent: bool = True
    granger_conditioning: tuple[str, ...] = ()
    models: tuple[ModelSpec, ...] = DEFAULT_MODELS


def parse_timestamp(raw: str) -> datetime:
    """Parse an RFC 3339 timestamp; naive values are taken as UTC. An instant
    whose UTC form falls outside ``datetime``'s range is a ValueError too."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"{raw!r} is out of range in UTC") from None


_REQUIRED = ("messages_path", "price_path", "control_path", "horizon_start", "focal_word")

# The fields that name input files, in the order they are checked and listed.
INPUT_PATH_FIELDS = (
    "messages_path",
    "price_path",
    "control_path",
    "lexicon_path",
    "precomputed_sentiment_path",
    "stopwords_path",
    "dictionary_path",
)


def validate(config: PipelineConfig) -> None:
    """Structural checks; raises ConfigError on the first violation."""
    for name in _REQUIRED:
        if not getattr(config, name):
            raise ConfigError(f"config field {name!r} is required")
    if not config.output_dir:
        raise ConfigError("config field 'output_dir' must name a directory, got ''")
    if config.messages_format not in MESSAGE_FORMATS:
        raise ConfigError(
            f"messages_format must be one of {MESSAGE_FORMATS}, got {config.messages_format!r}"
        )
    try:
        start = parse_timestamp(config.horizon_start)
    except Exception as exc:
        raise ConfigError(f"horizon_start is not a valid RFC3339 instant: {exc}") from exc
    if config.horizon_weeks < 1:
        raise ConfigError(f"horizon_weeks must be >= 1, got {config.horizon_weeks}")
    try:
        start + config.horizon_weeks * WEEK
    except OverflowError:
        raise ConfigError(
            f"horizon of {config.horizon_weeks} weeks from {config.horizon_start}"
            " ends past the last representable instant"
        ) from None
    if config.window_size < 1:
        raise ConfigError(f"window_size must be >= 1, got {config.window_size}")
    if config.betweenness_mode not in BETWEENNESS_MODES:
        raise ConfigError(
            f"betweenness_mode must be one of {BETWEENNESS_MODES}, got {config.betweenness_mode!r}"
        )
    if config.betweenness_samples < 1:
        raise ConfigError(f"betweenness_samples must be >= 1, got {config.betweenness_samples}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    if config.stopwords_path is None and config.language not in BUNDLED_LANGUAGES:
        raise ConfigError(
            f"language {config.language!r} has no bundled stopword list; set stopwords_path"
        )
    if config.lexicon_path and config.precomputed_sentiment_path:
        raise ConfigError("set lexicon_path or precomputed_sentiment_path, not both")
    if not config.lexicon_path and not config.precomputed_sentiment_path:
        raise ConfigError("one of lexicon_path or precomputed_sentiment_path is required")
    if any(k < 0 for k in config.correlation_lags):
        raise ConfigError(f"correlation_lags must be nonnegative, got {config.correlation_lags}")
    if config.granger_max_lag < 1:
        raise ConfigError(f"granger_max_lag must be >= 1, got {config.granger_max_lag}")
    known = set(PREDICTOR_COLUMNS)
    for column in config.granger_conditioning:
        if column not in known:
            raise ConfigError(f"granger_conditioning column {column!r} is not a predictor")
    if not config.models:
        raise ConfigError("at least one regression model must be configured")
    seen_models: set[str] = set()
    for spec in config.models:
        if spec.name in seen_models:
            raise ConfigError(f"duplicate model name {spec.name!r}")
        seen_models.add(spec.name)
        if not spec.terms:
            raise ConfigError(f"model {spec.name!r} has no terms")
        for term in spec.terms:
            if term.column not in known:
                raise ConfigError(f"model {spec.name!r} uses unknown column {term.column!r}")
            if term.lag < 0:
                raise ConfigError(f"model {spec.name!r} term {term.column!r} has negative lag")
    if not config.focal_word.strip():
        raise ConfigError("focal_word must be non-empty")


def validate_paths(config: PipelineConfig) -> None:
    """Input files must exist before a run starts: every required one, and
    each optional one that is set."""
    for name in INPUT_PATH_FIELDS:
        path = getattr(config, name)
        if (path or name in _REQUIRED) and not os.path.isfile(path):
            raise ConfigError(f"{name}: no such file: {path}")
    validate_output_dir(config)


def validate_output_dir(config: PipelineConfig) -> None:
    """``output_dir`` must be a directory or creatable as one: its nearest
    existing ancestor must be a directory. Touches nothing."""
    path = os.path.abspath(config.output_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"output_dir {config.output_dir}: {path} is not a directory")


def to_dict(config: PipelineConfig) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "models":
            out[f.name] = [
                {
                    "name": spec.name,
                    "terms": [{"column": t.column, "lag": t.lag} for t in spec.terms],
                }
                for spec in value
            ]
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


# What each field annotation asks of a YAML value (the annotations are
# strings here); ``models`` is checked by ``_models_from``.
_EXPECTED = {
    "str": "a string", "str | None": "a string or null", "int": "an integer",
    "bool": "true or false", "tuple[int, ...]": "a list of integers",
    "tuple[str, ...]": "a list of strings",
}


def _has_type(value: Any, kind: str) -> bool:
    if kind.startswith("tuple["):
        item = kind.removeprefix("tuple[").removesuffix(", ...]")
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if kind == "str | None":
        return value is None or isinstance(value, str)
    # An exact type match: YAML's true and false are bools, which Python
    # would also count as ints.
    return type(value) is {"str": str, "int": int, "bool": bool}[kind]


def _checked(what: str, value: Any, kind: str) -> Any:
    if not _has_type(value, kind):
        raise ConfigError(f"{what} must be {_EXPECTED[kind]}, got {value!r}")
    return value


def from_dict(raw: dict[str, Any]) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    for f in fields(PipelineConfig):
        if f.name not in raw:
            continue
        value = raw[f.name]
        if f.name == "models":
            kwargs[f.name] = _models_from(value)
        else:
            value = _checked(f"config key {f.name!r}", value, f.type)
            kwargs[f.name] = tuple(value) if isinstance(value, list) else value
    return PipelineConfig(**kwargs)


def _models_from(value: Any) -> tuple[ModelSpec, ...]:
    if not isinstance(value, list):
        raise ConfigError("config key 'models' must be a list")
    specs: list[ModelSpec] = []
    for entry in value:
        if not isinstance(entry, dict) or "name" not in entry or "terms" not in entry:
            raise ConfigError(f"each model needs 'name' and 'terms': {entry!r}")
        name = _checked("a model's 'name'", entry["name"], "str")
        if not isinstance(entry["terms"], list):
            raise ConfigError(f"model {name!r}: 'terms' must be a list")
        terms: list[ModelTerm] = []
        for term in entry["terms"]:
            if not isinstance(term, dict) or "column" not in term:
                raise ConfigError(f"model {name!r}: each term needs 'column'")
            terms.append(ModelTerm(
                column=_checked(f"model {name!r}: a term's 'column'", term["column"], "str"),
                lag=_checked(f"model {name!r}: a term's 'lag'", term.get("lag", 0), "int"),
            ))
        specs.append(ModelSpec(name=name, terms=tuple(terms)))
    return tuple(specs)


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse") from None
    if raw is None:
        raw = {}
    config = from_dict(raw)
    validate(config)
    return config


def save_config(config: PipelineConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(to_dict(config), handle, sort_keys=False)
