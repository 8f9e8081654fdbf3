"""End-to-end runs: per-window feature extraction, panel assembly, the
analysis battery, and report/manifest emission.

Stage outputs land in ``config.output_dir``:

    features.csv                    one row per week
    diagnostics.csv                 graph sizes and reply tallies, one row per week
    rejections.csv                  unparseable input rows (line, reason)
    graphs/interaction_edges.csv    week,source,target,weight (when export_graphs)
    graphs/words_edges.csv          the same for the word graphs
    correlations.csv, granger.csv, regressions.csv, regression_models.csv
    summary.md                      Markdown digest
    manifest.json                   config hash, input checksums, tool version

Everything is deterministic for a fixed config: reruns are byte-identical.
Windows can be processed by a worker pool; each window's edge rows are
rendered where the window is computed, and the results are appended in window
order, so the worker count never changes the output. Every file appears only
once it is complete.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import logging
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import BinaryIO, Mapping, Sequence

from . import __version__
from .centrality import (
    approx_betweenness,
    betweenness_centrality,
    centralization,
    degree_centrality,
)
from .config import PipelineConfig, to_dict, validate, validate_output_dir, validate_paths
from .corpus import (
    Message,
    load_market_series,
    load_messages,
    parse_timestamp,
    partition_weeks,
    write_rejections,
)
from .econometrics import (
    CORPUS_FEATURE_COLUMNS,
    build_panel,
    run_battery,
    write_correlations_csv,
    write_granger_csv,
    write_regression_models_csv,
    write_regression_terms_csv,
    write_summary_md,
)
from .errors import ConfigError, DataError, ForumcastError
from .graphs import (
    EDGE_TABLE_COLUMNS,
    activity,
    activity_words,
    build_interaction_network,
    build_word_network,
)
from .semantics import (
    LexiconScorer,
    PrecomputedScorer,
    SentimentScorer,
    complexity,
    emotionality,
    load_lexicon,
    load_precomputed,
    score_message,
    window_sentiment,
)
from .tables import format_cell, open_input, replacing, write_csv, write_json
from .textproc import (
    StopwordList,
    Vocabulary,
    build_vocabulary,
    filter_tokens,
    load_stopwords,
    load_wordlist,
    stem_tokens,
    tokenize,
)

logger = logging.getLogger(__name__)

# The edge tables, and the per-week files that older versions wrote instead;
# nothing else in graphs/ is ever removed.
_EXPORT_NAME = re.compile(
    r"(?:interaction|words)_edges\.csv"
    r"|week_.*_(?:interaction|words)_(?:edges\.csv|summary\.json)"
)

FEATURE_CSV_COLUMNS = (
    "week",
    "activity",
    "activity_words",
    "group_degree",
    "group_betweenness",
    "focal_degree",
    "focal_betweenness",
    "focal_present",
    "sentiment",
    "emotionality",
    "complexity",
)


@dataclass(frozen=True)
class WindowFeatures:
    week: int
    activity: int
    activity_words: int
    group_degree: float | None
    group_betweenness: float | None
    focal_degree: float
    focal_betweenness: float
    focal_present: bool
    sentiment: float | None
    emotionality: float | None
    complexity: float | None


DIAGNOSTIC_CSV_COLUMNS = (
    "week",
    "messages",
    "word_n",
    "word_m",
    "word_total_weight",
    "word_self_loop_events",
    "interaction_n",
    "interaction_m",
    "interaction_total_weight",
    "comments",
    "self_replies",
    "dangling_parents",
)


@dataclass(frozen=True)
class _WindowResult:
    """What one window sends back: its feature row, its diagnostics.csv row
    and, when graphs are exported, the rendered rows of its
    (interaction, words) edge tables."""

    features: WindowFeatures
    diagnostics: tuple[int, ...]
    edge_rows: tuple[list[bytes], list[bytes]] | None


@dataclass(frozen=True)
class _WindowTask:
    """Everything one worker needs to process one window: its messages and,
    in the same order, their filtered token streams."""

    index: int
    messages: tuple[Message, ...]
    streams: tuple[list[str], ...]


@dataclass
class _SharedState:
    config: PipelineConfig
    author_by_id: Mapping[str, str]
    scorer: SentimentScorer
    vocab: Vocabulary
    focal_token: str


_worker_state: _SharedState | None = None


def _init_worker(state: _SharedState) -> None:
    global _worker_state
    _worker_state = state


def _tokenize_message(body: str, config: PipelineConfig, stop: StopwordList,
                      dictionary: frozenset[str] | None) -> list[str]:
    tokens = filter_tokens(tokenize(body, keep_digits=config.keep_digits), stop, dictionary)
    if config.stemming:
        tokens = stem_tokens(tokens, config.language)
    return tokens


def normalize_focal_word(config: PipelineConfig, stop: StopwordList,
                         dictionary: frozenset[str] | None) -> str:
    """The focal word goes through the corpus token filter; it must survive
    as exactly one token or the config is unusable."""
    tokens = _tokenize_message(config.focal_word, config, stop, dictionary)
    if len(tokens) != 1:
        raise ConfigError(
            f"focal_word {config.focal_word!r} normalizes to {len(tokens)} tokens"
            f" ({tokens!r}); it must survive filtering as exactly one token"
        )
    return tokens[0]


def _compute_window(task: _WindowTask, state: _SharedState) -> _WindowResult:
    config = state.config
    index = task.index
    messages = task.messages
    streams = task.streams
    try:
        word_graph = build_word_network(streams, config.window_size)
        interaction, tallies = build_interaction_network(messages, state.author_by_id)

        if interaction.n >= 3:
            group_degree = centralization(degree_centrality(interaction)).value
            group_betweenness = centralization(betweenness_centrality(interaction)).value
        else:
            group_degree = None
            group_betweenness = None

        focal = state.focal_token
        try:
            word_graph.node_id(focal)
            present = True
        except KeyError:
            present = False
        if present:
            focal_degree = degree_centrality(word_graph).normalized[focal]
            if config.betweenness_mode == "sampled" and word_graph.n > 1:
                samples = min(config.betweenness_samples, word_graph.n)
                betw = approx_betweenness(word_graph, samples, config.seed + index)
            else:
                betw = betweenness_centrality(word_graph)
            focal_betweenness = betw.normalized[focal]
        else:
            focal_degree = 0.0
            focal_betweenness = 0.0

        scores = [score_message(m, state.scorer) for m in messages]
        features = WindowFeatures(
            week=index,
            activity=activity(messages),
            activity_words=activity_words(word_graph),
            group_degree=group_degree,
            group_betweenness=group_betweenness,
            focal_degree=focal_degree,
            focal_betweenness=focal_betweenness,
            focal_present=present,
            sentiment=window_sentiment(scores),
            emotionality=emotionality(scores),
            complexity=complexity(streams, state.vocab),
        )
        diagnostics = (
            index,
            len(messages),
            word_graph.n,
            word_graph.m,
            word_graph.total_weight,
            word_graph.self_loop_events,
            interaction.n,
            interaction.m,
            interaction.total_weight,
            tallies.comments,
            tallies.self_replies,
            tallies.dangling_parents,
        )
        edge_rows = (
            _export_graphs(index, interaction, word_graph) if config.export_graphs else None
        )
        return _WindowResult(features, diagnostics, edge_rows)
    except ForumcastError as exc:
        raise type(exc)(f"window {index}: {exc}") from exc


def _compute_window_in_worker(task: _WindowTask) -> _WindowResult:
    assert _worker_state is not None
    return _compute_window(task, _worker_state)


def _export_graphs(index: int, interaction, word_graph) -> tuple[list[bytes], list[bytes]]:
    """The window's rows of the interaction and the word edge table."""
    return (
        list(interaction.edge_table_rows(index)),
        list(word_graph.edge_table_rows(index)),
    )


def _remove_stale_exports(output_dir: str) -> None:
    """Delete the graph exports of an earlier run, and nothing else, so a
    rerun with fewer weeks or without exports leaves none behind."""
    graphs_dir = os.path.join(output_dir, "graphs")
    with contextlib.suppress(FileNotFoundError):
        for name in os.listdir(graphs_dir):
            if _EXPORT_NAME.fullmatch(name):
                os.remove(os.path.join(graphs_dir, name))


def _edge_tables(output_dir: str, stack: contextlib.ExitStack) -> tuple[BinaryIO, ...]:
    """One open edge table per graph kind, header written. Each replaces its
    file when ``stack`` closes cleanly and is removed when it unwinds on an
    error, so a table exists only once its last window is in."""
    graphs_dir = os.path.join(output_dir, "graphs")
    os.makedirs(graphs_dir, exist_ok=True)
    header = (",".join(EDGE_TABLE_COLUMNS) + "\r\n").encode("ascii")
    tables = []
    for kind in ("interaction", "words"):
        handle = stack.enter_context(
            replacing(os.path.join(graphs_dir, f"{kind}_edges.csv"), "wb")
        )
        handle.write(header)
        tables.append(handle)
    return tuple(tables)


def _load_shared_state(config: PipelineConfig) -> tuple[_SharedState, list[_WindowTask], list]:
    stop = load_stopwords(config.language, config.stopwords_path)
    dictionary = (
        frozenset(load_wordlist(config.dictionary_path)) if config.dictionary_path else None
    )
    scorer: SentimentScorer
    if config.precomputed_sentiment_path:
        scorer = PrecomputedScorer(load_precomputed(config.precomputed_sentiment_path))
    else:
        assert config.lexicon_path is not None
        scorer = LexiconScorer(load_lexicon(config.lexicon_path))

    messages, rejections = load_messages(config.messages_path, config.messages_format)
    corpus = partition_weeks(
        messages, parse_timestamp(config.horizon_start), config.horizon_weeks
    )
    if corpus.dropped:
        logger.info("%d messages fall outside the horizon", len(corpus.dropped))

    # The one text pass: each in-horizon message is tokenized here and its
    # stream rides with its window. The streams live until the windows are
    # done, so equal tokens are interned to one string object; a fresh string
    # per occurrence would take about five times the memory on a busy forum.
    tasks = [
        _WindowTask(
            index=i,
            messages=tuple(window),
            streams=tuple(
                list(map(sys.intern, _tokenize_message(m.body, config, stop, dictionary)))
                for m in window
            ),
        )
        for i, window in enumerate(corpus.messages_by_window)
    ]
    state = _SharedState(
        config=config,
        author_by_id={m.id: m.author_id for m in messages},
        scorer=scorer,
        vocab=build_vocabulary(stream for task in tasks for stream in task.streams),
        focal_token=normalize_focal_word(config, stop, dictionary),
    )
    return state, tasks, rejections


def write_features_csv(rows: Sequence[WindowFeatures], path: str) -> None:
    write_csv(
        path,
        FEATURE_CSV_COLUMNS,
        ([format_cell(getattr(row, name)) for name in FEATURE_CSV_COLUMNS] for row in rows),
    )


def read_features_csv(path: str) -> dict[str, list[float | None]]:
    """Feature table back into columns; empty cells become None."""
    with open_input(path, "feature table") as handle:
        reader = csv.DictReader(handle)
        have = set(reader.fieldnames or ())
        needed = {"week", *CORPUS_FEATURE_COLUMNS}
        missing = sorted(needed - have)
        if missing:
            raise DataError(f"{path}: feature table lacks columns: {', '.join(missing)}")
        rows = list(reader)
    try:
        rows.sort(key=lambda r: int(r["week"]))
    except (TypeError, ValueError):
        raise DataError(f"{path}: non-integer week column") from None
    weeks = [int(r["week"]) for r in rows]
    if weeks != list(range(len(rows))):
        raise DataError(f"{path}: week column must cover 0..{len(rows) - 1} without gaps")
    columns: dict[str, list[float | None]] = {name: [] for name in CORPUS_FEATURE_COLUMNS}
    for r in rows:
        # DictReader pads a short row with None and files a long row's
        # surplus under the key None; a cut-off file must not pass.
        if None in r or None in r.values():
            raise DataError(
                f"{path}: the row of week {r['week']} does not have one cell per column"
            )
        for name in CORPUS_FEATURE_COLUMNS:
            cell = r[name].strip()
            try:
                columns[name].append(float(cell) if cell else None)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric {name} cell {cell!r} in week {r['week']}"
                ) from None
    return columns


def run_features(config: PipelineConfig) -> list[WindowFeatures]:
    """Extract the weekly feature and diagnostics tables and (optionally)
    export the edge tables."""
    validate(config)
    validate_paths(config)
    os.makedirs(config.output_dir, exist_ok=True)

    state, tasks, rejections = _load_shared_state(config)
    write_rejections(os.path.join(config.output_dir, "rejections.csv"), rejections)

    _remove_stale_exports(config.output_dir)
    rows: list[WindowFeatures] = []
    diagnostics: list[tuple[int, ...]] = []
    with contextlib.ExitStack() as stack:
        tables = _edge_tables(config.output_dir, stack) if config.export_graphs else ()
        if config.workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=config.workers, initializer=_init_worker, initargs=(state,)
            ))
            # chunksize=1: a worker sends a chunk's results in one piece, so
            # the parent holds every window of it at once; 4-window chunks
            # raised peak RSS by 5-7 MB on the forum_sampled workload.
            results = pool.map(_compute_window_in_worker, tasks, chunksize=1)
        else:
            results = (_compute_window(task, state) for task in tasks)
        for result in results:
            rows.append(result.features)
            diagnostics.append(result.diagnostics)
            for i, table in enumerate(tables):
                table.writelines(result.edge_rows[i])
            # Let the written rows go now, not when the next window arrives:
            # holding two windows' rows at once showed in peak RSS.
            del result

    write_csv(
        os.path.join(config.output_dir, "diagnostics.csv"), DIAGNOSTIC_CSV_COLUMNS, diagnostics
    )
    write_features_csv(rows, os.path.join(config.output_dir, "features.csv"))
    return rows


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(config: PipelineConfig, features_path: str, path: str) -> None:
    inputs = {features_path: _sha256_file(features_path)}
    for key in (
        "messages_path",
        "price_path",
        "control_path",
        "lexicon_path",
        "precomputed_sentiment_path",
        "stopwords_path",
        "dictionary_path",
    ):
        value = getattr(config, key)
        if value and os.path.isfile(value):
            inputs[value] = _sha256_file(value)
    manifest = {
        "tool": "forumcast",
        "version": __version__,
        "config_sha256": config_hash(config),
        "inputs": inputs,
    }
    write_json(path, manifest)


def run_analyze(config: PipelineConfig, features_path: str | None = None):
    """Panel assembly and the full battery from an existing feature table."""
    validate(config)
    validate_output_dir(config)
    os.makedirs(config.output_dir, exist_ok=True)
    if features_path is None:
        features_path = os.path.join(config.output_dir, "features.csv")
    columns = read_features_csv(features_path)
    horizon_start = parse_timestamp(config.horizon_start)
    price = load_market_series(config.price_path, "price", horizon_start)
    control = load_market_series(config.control_path, "control", horizon_start)
    panel = build_panel(columns, price, control)
    report = run_battery(panel, config.battery_config())

    out = config.output_dir
    write_correlations_csv(report, os.path.join(out, "correlations.csv"))
    write_granger_csv(report, os.path.join(out, "granger.csv"))
    write_regression_terms_csv(report, os.path.join(out, "regressions.csv"))
    write_regression_models_csv(report, os.path.join(out, "regression_models.csv"))
    write_summary_md(report, os.path.join(out, "summary.md"))
    write_manifest(config, features_path, os.path.join(out, "manifest.json"))
    return report


def run_all(config: PipelineConfig):
    """features then analyze; a failure mid-way leaves earlier outputs in
    place plus errors.json describing where it stopped. An errors.json left
    by an earlier run is removed first, so it never outlives a success."""
    validate_output_dir(config)
    error_path = os.path.join(config.output_dir, "errors.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(error_path)
    stage = "features"
    try:
        run_features(config)
        stage = "analyze"
        return run_analyze(config)
    except ForumcastError as exc:
        os.makedirs(config.output_dir, exist_ok=True)
        write_json(error_path, {"stage": stage, "type": type(exc).__name__, "error": str(exc)})
        raise


def ingest_check(config: PipelineConfig) -> dict:
    """Parse inputs and report counts without computing features."""
    validate(config)
    validate_paths(config)
    messages, rejections = load_messages(config.messages_path, config.messages_format)
    corpus = partition_weeks(
        messages, parse_timestamp(config.horizon_start), config.horizon_weeks
    )
    nonempty = sum(1 for window in corpus.messages_by_window if window)
    return {
        "messages": len(messages),
        "rejected_rows": len(rejections),
        "weeks": corpus.week_count,
        "nonempty_weeks": nonempty,
        "outside_horizon": len(corpus.dropped),
        "rejection_reasons": sorted({r.reason for r in rejections}),
    }
