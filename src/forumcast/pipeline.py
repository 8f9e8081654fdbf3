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
The graph work runs on chunks of consecutive windows, each built and swept
at once, and a chunk gives each window what that window alone would give.
With ``workers`` > 1 the main process forks its window workers itself,
before the corpus loads. Each worker owns a task pipe and a result pipe, of
which the main process holds the only other ends. It reads one pickled
chunk and its number at a time, writes the chunk's edge rows to the chunk's
own hidden part files in ``graphs/`` and sends back the feature cells and
diagnostics rows; the main process appends the part files to the tables in
window order. So the worker count never changes the output, and no edge row
passes through the main process. A worker ends on end-of-file on its task
pipe, so it ends with the run, and with its main process if that is killed.
Every file appears only once it is complete. A command holds its output
directory (``holding``), so a killed run's hidden files are deleted by the
next one.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import os
import pickle
import re
import select
import signal
import sys
from typing import BinaryIO, Iterator, NamedTuple, Sequence

from . import __version__
from .centrality import (
    BETWEENNESS,
    DEGREE,
    PathCountOverflow,
    approx_betweenness,  # noqa: F401  (bench/tracing.py wraps it by this name)
    betweenness_centralities,
    betweenness_centrality,  # noqa: F401  (the same)
    centralization,
    degree_centrality,
    normalize,
    sample_sources,
    vertex_betweennesses,
)
from .config import (
    INPUT_PATH_FIELDS,
    PipelineConfig,
    to_dict,
    validate,
    validate_output_dir,
    validate_paths,
)
from .corpus import (
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
from .errors import ConfigError, DataError, ForumcastError, OutputError, WorkerError
from .graphs import (
    EDGE_TABLE_COLUMNS,
    build_interaction_network,  # noqa: F401  (bench/tracing.py wraps it by this name)
    build_interaction_networks,
    build_word_network,  # noqa: F401  (the same)
    build_word_networks,
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
from .tables import InputTable, open_input, replacing, sha256, write_csv, write_json, writing
from .textproc import (
    TokenFilter,
    Vocabulary,
    build_vocabulary,
    filter_tokens,  # noqa: F401  (bench/tracing.py wraps it by this name)
    load_stopwords,
    load_wordlist,
    tokenize,
)

logger = logging.getLogger(__name__)

# The edge tables, one per graph kind; nothing else in graphs/ is ever removed.
_EDGE_TABLES = ("graphs/interaction_edges.csv", "graphs/words_edges.csv")

# The reports analyze writes from a feature table.
_REPORTS = (
    "correlations.csv",
    "granger.csv",
    "regressions.csv",
    "regression_models.csv",
    "summary.md",
)

# A chunk of consecutive windows closes before it passes this many tokens,
# so its graph work costs a few NumPy calls for all its windows, not for
# each. A larger window is a chunk of its own. An 8192-token cap raised the
# peak RSS of a 94-week demo run from 35.9 to 36.7 MB (2-vCPU x86-64 VM).
CHUNK_TOKENS = 4096


class WindowFeatures(NamedTuple):
    """One row of features.csv, its cells in column order."""

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


FEATURE_CSV_COLUMNS = WindowFeatures._fields

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


class _WindowResult(NamedTuple):
    """What one window's graph work sends back: the feature cells it
    computes (the ``WindowFeatures`` fields from ``activity`` to
    ``focal_present``, in that order) and its diagnostics.csv row."""

    graph_features: tuple
    diagnostics: tuple[int, ...]


class _WindowTask(NamedTuple):
    """One window, as plain data: the author of each message, one ``(author,
    parent author)`` pair per comment whose parent is known, the count of
    comments whose parent is not, the messages' filtered token streams in
    message order, the focal token, and the window's sentiment and
    emotionality, scored while the messages were tokenized."""

    index: int
    authors: tuple[str, ...]
    replies: tuple[tuple[str, str], ...]
    dangling: int
    streams: tuple[list[str], ...]
    focal_token: str
    sentiment: float | None
    emotionality: float | None


def normalize_focal_word(config: PipelineConfig, token_filter: TokenFilter) -> str:
    """The focal word goes through the corpus token filter; it must survive
    as exactly one token or the config is unusable."""
    tokens = token_filter.stream(tokenize(config.focal_word))
    if len(tokens) != 1:
        raise ConfigError(
            f"focal_word {config.focal_word!r} normalizes to {len(tokens)} tokens"
            f" ({tokens!r}); it must survive filtering as exactly one token"
        )
    return tokens[0]


@contextlib.contextmanager
def _naming_window(index: int):
    """Prefix a failure inside window ``index`` with the window's number."""
    try:
        yield
    except ForumcastError as exc:
        raise type(exc)(f"window {index}: {exc}") from exc


def _chunks(tasks: Sequence[_WindowTask]) -> Iterator[list[_WindowTask]]:
    """Consecutive windows in chunks: a chunk closes before it passes
    ``CHUNK_TOKENS`` tokens, so a larger window is a chunk of its own."""
    chunk: list[_WindowTask] = []
    tokens = 0
    for task in tasks:
        size = sum(map(len, task.streams))
        if chunk and tokens + size > CHUNK_TOKENS:
            yield chunk
            chunk, tokens = [], 0
        chunk.append(task)
        tokens += size
    if chunk:
        yield chunk


def _overflow_named(windows: Sequence[int], kernel, *args):
    """``kernel(*args)`` over graphs of ``windows``; a path-count overflow
    names the window of its graph."""
    try:
        return kernel(*args)
    except PathCountOverflow as exc:
        raise PathCountOverflow(f"window {windows[exc.graph]}: {exc}") from exc


def _compute_chunk(
    tasks: Sequence[_WindowTask], config: PipelineConfig, tables: Sequence[BinaryIO]
) -> list[_WindowResult]:
    """The graph work of a chunk of consecutive windows: both builders and
    both kernels take the whole chunk at once. The windows' edge rows go to
    ``tables``, the open (interaction, words) edge files, when there are
    any."""
    word_graphs = build_word_networks([task.streams for task in tasks], config.window_size)
    interactions = build_interaction_networks((task.authors, task.replies) for task in tasks)

    # Group centralization needs n >= 3.
    grouped = [k for k, graph in enumerate(interactions) if graph.n >= 3]
    group_scores = dict(zip(grouped, _overflow_named(
        [tasks[k].index for k in grouped], betweenness_centralities,
        [interactions[k] for k in grouped],
    )))

    # The word graph yields one number per metric, the focal word's, so it
    # gets the single-node kernel rather than whole vectors. Its id is looked
    # up once per window; below this the kernels see ids alone.
    focal = tasks[0].focal_token
    focal_ids = {}
    sources = []
    scales = []
    for k, (task, word_graph) in enumerate(zip(tasks, word_graphs)):
        try:
            focal_ids[k] = word_graph.node_id(focal)
        except KeyError:
            continue
        n = word_graph.n
        samples = min(config.betweenness_samples, n) if config.betweenness_mode == "sampled" else n
        sample, scale = sample_sources(word_graph, samples, config.seed + task.index)
        sources.append(sample)
        scales.append(scale)
    focal_scores = dict(zip(focal_ids, _overflow_named(
        [tasks[k].index for k in focal_ids], vertex_betweennesses,
        [word_graphs[k] for k in focal_ids], list(focal_ids.values()), sources, scales,
    )))

    results = []
    for k, (task, word_graph, interaction) in enumerate(zip(tasks, word_graphs, interactions)):
        index = task.index
        if k in group_scores:
            group_degree = centralization(DEGREE, degree_centrality(interaction))
            group_betweenness = centralization(BETWEENNESS, group_scores[k])
        else:
            group_degree = None
            group_betweenness = None
        n = word_graph.n
        if k in focal_scores:
            focal_degree = normalize(DEGREE, float(degree_centrality(word_graph)[focal_ids[k]]), n)
            focal_betweenness = normalize(BETWEENNESS, focal_scores[k], n)
        else:
            focal_degree = 0.0
            focal_betweenness = 0.0
        graph_features = (
            len(task.authors),
            word_graph.total_weight,
            group_degree,
            group_betweenness,
            focal_degree,
            focal_betweenness,
            k in focal_scores,
        )
        diagnostics = (
            index,
            len(task.authors),
            word_graph.n,
            word_graph.m,
            word_graph.total_weight,
            word_graph.self_loop_events,
            interaction.n,
            interaction.m,
            interaction.total_weight,
            len(task.replies) + task.dangling,
            interaction.self_loop_events,
            task.dangling,
        )
        results.append(_WindowResult(graph_features, diagnostics))
        if tables:
            _export_graphs(tables, index, (interaction, word_graph), config.output_dir)
    return results


def _export_graphs(
    tables: Sequence[BinaryIO], index: int, graphs: tuple, output_dir: str
) -> None:
    """Write window ``index``'s rows of each edge table to its open file in
    ``tables``, from its (interaction, words) ``graphs``. A failed write is
    an OutputError naming the edge table."""
    for name, table, graph in zip(_EDGE_TABLES, tables, graphs):
        with writing(os.path.join(output_dir, name)):
            table.writelines(graph.edge_table_rows(index))


def _parts(output_dir: str, pid: int, number: int) -> Iterator[tuple[str, str]]:
    """``(edge table, part file)`` for each edge table: the part files that
    chunk ``number`` of the run in process ``pid`` writes lie hidden beside
    their tables, named like ``tables.replacing``'s temp files."""
    for name in _EDGE_TABLES:
        table = os.path.join(output_dir, name)
        directory, base = os.path.split(table)
        yield table, os.path.join(directory, f".{base}.{pid}.{number}.part")


def _compute_chunk_to_parts(
    number: int, tasks: list[_WindowTask], config: PipelineConfig, pid: int
) -> list[_WindowResult]:
    """``_compute_chunk`` in a window worker: ``tasks`` is chunk ``number``
    of the run in process ``pid``, whose edge rows go to the chunk's own part
    files."""
    if not config.export_graphs:
        return _compute_chunk(tasks, config, ())
    with contextlib.ExitStack() as stack:
        parts = []
        for table, part in _parts(config.output_dir, pid, number):
            stack.enter_context(writing(table))
            parts.append(stack.enter_context(open(part, "wb")))
        return _compute_chunk(tasks, config, parts)


def _append_parts(tables: Sequence[BinaryIO], output_dir: str, pid: int, number: int) -> None:
    """Move chunk ``number``'s part files to the ends of their open edge
    tables. ``os.copy_file_range`` copies inside the kernel, so the rows
    never enter this process."""
    for handle, (table, part) in zip(tables, _parts(output_dir, pid, number)):
        with writing(table):
            handle.flush()
            with open(part, "rb") as source:
                while os.copy_file_range(source.fileno(), handle.fileno(), 1 << 30):
                    pass
            os.remove(part)


def _remove_parts(output_dir: str, pid: int) -> None:
    """Delete the part files that the run in process ``pid`` left in
    ``graphs/``: on a failure, those of the chunks not yet appended."""
    graphs = os.path.join(output_dir, "graphs")
    prefixes = tuple(f".{os.path.basename(name)}.{pid}." for name in _EDGE_TABLES)
    with contextlib.suppress(OSError):
        for name in os.listdir(graphs):
            if name.startswith(prefixes) and name.endswith(".part"):
                os.remove(os.path.join(graphs, name))


class _Worker(NamedTuple):
    """A forked window worker: its pid, the write end of its task pipe and a
    reader on its result pipe, the pipes' only ends outside the worker."""

    pid: int
    tasks: int
    results: BinaryIO


def _send(fd: int, message) -> None:
    """Write ``message``, pickled, to the pipe ``fd``: every task and result."""
    data = memoryview(pickle.dumps(message))
    while data:
        data = data[os.write(fd, data):]


def _serve(tasks: int, results: int, config: PipelineConfig, pid: int) -> None:
    """A window worker's loop: read one ``(number, chunk)`` from the pipe
    ``tasks``, and write the chunk's results, or the exception it raised, to
    the pipe ``results``. It ends on end-of-file on ``tasks``: when the run
    is done, or when its main process ``pid`` has died, even by SIGKILL."""
    with os.fdopen(tasks, "rb") as reader:
        while True:
            try:
                number, chunk = pickle.load(reader)
            except EOFError:
                return
            try:
                reply = _compute_chunk_to_parts(number, chunk, config, pid)
            except Exception as exc:
                reply = exc
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    reply = WorkerError(
                        f"a window worker raised {type(exc).__name__}, which cannot be sent back"
                    )
            _send(results, reply)


def _fork_worker(workers: Sequence[_Worker], config: PipelineConfig) -> _Worker:
    """Fork one window worker beside ``workers``. It closes every pipe end
    it inherited but its own two, and it ends through ``os._exit``."""
    pid = os.getpid()
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        child = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    task_read, task_write, result_read, result_write = fds
    if child == 0:
        code = 1
        try:
            for fd in (task_write, result_read, *(w.tasks for w in workers),
                       *(w.results.fileno() for w in workers)):
                os.close(fd)
            _serve(task_read, result_write, config, pid)
            code = 0
        finally:
            os._exit(code)
    os.close(task_read)
    os.close(result_write)
    return _Worker(child, task_write, os.fdopen(result_read, "rb"))


@contextlib.contextmanager
def _window_workers(config: PipelineConfig) -> Iterator[list[_Worker]]:
    """``config.workers`` window workers for the block. When it ends, their
    pipes are closed, they are killed if it raised, and each is waited for,
    so none is left, not even a zombie, and ``ru_maxrss`` covers them. A
    failed pipe or fork is a WorkerError."""
    workers: list[_Worker] = []
    try:
        try:
            for _ in range(config.workers):
                workers.append(_fork_worker(workers, config))
        except OSError as exc:
            raise WorkerError(f"cannot start the window workers: {exc}") from exc
        yield workers
    except BaseException:
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)
        raise
    finally:
        for worker in workers:
            os.close(worker.tasks)
            worker.results.close()
        for worker in workers:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(worker.pid, 0)


def _computed_in_workers(
    workers: Sequence[_Worker], chunks: Iterator[list[_WindowTask]], config: PipelineConfig,
    tables: Sequence[BinaryIO],
) -> Iterator[_WindowResult]:
    """The windows' results from ``workers``, in window order. Each idle
    worker is sent the next chunk and its number, never the config, which it
    was forked with; a chunk's part files are appended to ``tables`` once it
    and the chunks before it are done. A worker that dies (killed, or out of
    memory) is a WorkerError."""
    pid = os.getpid()
    numbered = enumerate(chunks)
    idle = list(workers)
    sent: dict[int, tuple[_Worker, int, list[_WindowTask]]] = {}
    done: dict[int, list[_WindowResult]] = {}
    poller = select.poll()
    appended = 0
    while True:
        while idle and (task := next(numbered, None)):
            worker = idle.pop()
            try:
                _send(worker.tasks, task)
            except BrokenPipeError:
                raise _ended_abruptly(task[1]) from None
            sent[worker.results.fileno()] = (worker, *task)
            poller.register(worker.results, select.POLLIN)
        if not sent:
            return
        for fd, _event in poller.poll():
            poller.unregister(fd)
            worker, number, chunk = sent.pop(fd)
            try:
                reply = pickle.load(worker.results)
            except (EOFError, pickle.UnpicklingError):
                raise _ended_abruptly(chunk) from None
            if isinstance(reply, Exception):
                raise reply
            done[number] = reply
            idle.append(worker)
        while appended in done:
            if tables:
                _append_parts(tables, config.output_dir, pid, appended)
            yield from done.pop(appended)
            appended += 1


def _ended_abruptly(chunk: Sequence[_WindowTask]) -> WorkerError:
    first, last = chunk[0].index, chunk[-1].index
    return WorkerError(f"a window worker ended abruptly, sent windows {first}-{last}")


def _make_dir(path: str) -> None:
    with writing(path):
        os.makedirs(path, exist_ok=True)


# The hidden files a run writes beside its outputs: ``tables.replacing``'s
# ``.<name>.<pid>.tmp`` and ``_parts``' ``.<table>.<pid>.<chunk>.part``.
_HIDDEN = re.compile(r"\..+\.[0-9]+\.(?:[0-9]+\.part|tmp)")


@contextlib.contextmanager
def holding(config: PipelineConfig) -> Iterator[None]:
    """Hold an exclusive lock on ``config.output_dir``, made if missing, for
    the block: one ``flock`` on the directory's own descriptor, so no file
    is added. With it held no other run writes there, so the hidden temp
    and part files in the directory and in ``graphs/`` are a killed run's
    leftovers; they are deleted first. A directory that another run holds
    is an OutputError, and nothing is written to it."""
    validate_output_dir(config)
    out = config.output_dir
    _make_dir(out)
    with writing(out):
        fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
    try:
        with writing(out):
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise OutputError(f"{out} is in use by another forumcast run") from None
        for directory in (out, os.path.join(out, "graphs")):
            with writing(directory):
                try:
                    names = os.listdir(directory)
                except (FileNotFoundError, NotADirectoryError):
                    continue
            _remove(directory, [name for name in names if _HIDDEN.fullmatch(name)])
        yield
    finally:
        os.close(fd)


def _remove(output_dir: str, names: Sequence[str]) -> None:
    """Delete the files ``names`` in ``output_dir`` that exist."""
    for name in names:
        path = os.path.join(output_dir, name)
        with writing(path), contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _edge_tables(output_dir: str, stack: contextlib.ExitStack) -> tuple[BinaryIO, ...]:
    """One open edge table per graph kind, header written. Each replaces its
    file when ``stack`` closes cleanly and is removed when it unwinds on an
    error, so a table exists only once its last window is in."""
    _make_dir(os.path.join(output_dir, "graphs"))
    header = (",".join(EDGE_TABLE_COLUMNS) + "\r\n").encode("ascii")
    tables = []
    for name in _EDGE_TABLES:
        handle = stack.enter_context(replacing(os.path.join(output_dir, name), "wb"))
        handle.write(header)
        tables.append(handle)
    return tuple(tables)


def _load_windows(config: PipelineConfig) -> tuple[list[_WindowTask], Vocabulary, list]:
    """Load and tokenize the corpus: one task per window, the vocabulary
    and the rejected rows."""
    stop = load_stopwords(config.language, config.stopwords_path)
    dictionary = load_wordlist(config.dictionary_path) if config.dictionary_path else None
    token_filter = TokenFilter(
        stop, dictionary, config.language if config.stemming else None, config.keep_digits
    )
    focal_token = normalize_focal_word(config, token_filter)
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
    # Authors are interned like the tokens: each task holds one string per
    # author, however many messages and replies name them.
    author_by_id = {m.id: sys.intern(m.author_id) for m in messages}
    # From here ``windows`` holds the last references to the messages, and
    # the pass drops each window's once its task is built: the bodies are
    # freed while the streams grow, which lowers the load's peak memory.
    windows = corpus.messages_by_window
    del messages, corpus

    # The one text pass, and the only place that reads a message: each
    # in-horizon message is tokenized here, its sentiment is scored from
    # those tokens, and its author, its reply's parent author (or, for an
    # unknown parent, one more dangling reply) and its filtered stream ride
    # with its window. The token filter drops the all-digit tokens unless
    # they are kept (the lexicon has no such word), and works out each
    # distinct token once. The streams live until the
    # windows are done, so its stream tokens are interned, one string object
    # each; a fresh string per occurrence would take about five times the
    # memory on a busy forum.
    tasks = []
    for i in range(len(windows)):
        window, windows[i] = windows[i], []
        authors = []
        replies = []
        dangling = []
        streams = []
        scores = []
        with _naming_window(i):
            for m in window:
                author = author_by_id[m.id]
                authors.append(author)
                if m.parent_id is not None:
                    parent = author_by_id.get(m.parent_id)
                    if parent is None:
                        dangling.append(m)
                    else:
                        replies.append((author, parent))
                tokens = tokenize(m.body)
                scores.append(score_message(m, tokens, scorer))
                streams.append(token_filter.stream(tokens))
        if dangling:
            logger.warning(
                "%d replies point to unknown parents, arcs skipped (first: message %s"
                " replies to %s)", len(dangling), dangling[0].id, dangling[0].parent_id,
            )
        tasks.append(_WindowTask(
            i, tuple(authors), tuple(replies), len(dangling), tuple(streams), focal_token,
            window_sentiment(scores), emotionality(scores),
        ))
    vocab = build_vocabulary(stream for task in tasks for stream in task.streams)
    return tasks, vocab, rejections


def read_features_csv(path: str) -> dict[str, list[float | None]]:
    """Feature table back into columns; empty cells become None. Every check
    of the table's contents is made here, as a DataError naming the file."""
    by_week: dict[int, list[float | None]] = {}
    with open_input(path, "feature table") as handle:
        table = InputTable(handle, path, ("week", *CORPUS_FEATURE_COLUMNS))
        number = table.number
        for row in table:
            try:
                week = int(row["week"])
            except ValueError:
                raise table.error(f"week {row['week']!r} is not an integer") from None
            if week in by_week:
                raise table.error(f"duplicate week {week}")
            by_week[week] = [
                number(cell, name) if (cell := row[name].strip()) else None
                for name in CORPUS_FEATURE_COLUMNS
            ]
    if not by_week:
        raise DataError(f"{path}: feature table has no rows")
    if min(by_week) != 0 or max(by_week) != len(by_week) - 1:
        raise DataError(f"{path}: week column must cover 0..{len(by_week) - 1} without gaps")
    weeks = [by_week[week] for week in range(len(by_week))]
    return {name: list(cells) for name, cells in zip(CORPUS_FEATURE_COLUMNS, zip(*weeks))}


def run_features(config: PipelineConfig) -> list[WindowFeatures]:
    """Extract the weekly feature and diagnostics tables and (optionally)
    export the edge tables."""
    validate(config)
    validate_paths(config)
    _make_dir(config.output_dir)

    rows: list[WindowFeatures] = []
    diagnostics: list[tuple[int, ...]] = []
    with contextlib.ExitStack() as stack:
        if config.workers > 1:
            if config.export_graphs:
                # Unwound after the workers are waited for, when none is
                # left to write a part file.
                stack.callback(_remove_parts, config.output_dir, os.getpid())
            # Forked before the corpus loads, each worker starts as a copy of
            # this small process and then holds only the chunks it is sent.
            workers = stack.enter_context(_window_workers(config))
        tasks, vocab, rejections = _load_windows(config)
        # An earlier run's reports and manifest go before the first write,
        # so a failure from here on leaves none of them beside new outputs.
        _remove(config.output_dir, (*_REPORTS, "manifest.json"))
        write_rejections(os.path.join(config.output_dir, "rejections.csv"), rejections)

        # So a rerun with fewer weeks or without exports leaves none behind.
        _remove(config.output_dir, _EDGE_TABLES)
        tables = _edge_tables(config.output_dir, stack) if config.export_graphs else ()
        if config.workers > 1:
            results = _computed_in_workers(workers, _chunks(tasks), config, tables)
        else:
            results = (
                result
                for chunk in _chunks(tasks)
                for result in _compute_chunk(chunk, config, tables)
            )
        # Complexity reads the corpus-wide vocabulary, so it is scored here,
        # in the main process, while the workers build the graphs.
        for task, result in zip(tasks, results):
            rows.append(WindowFeatures(
                task.index, *result.graph_features, task.sentiment, task.emotionality,
                complexity(task.streams, vocab),
            ))
            diagnostics.append(result.diagnostics)

    write_csv(
        os.path.join(config.output_dir, "diagnostics.csv"), DIAGNOSTIC_CSV_COLUMNS, diagnostics
    )
    write_csv(os.path.join(config.output_dir, "features.csv"), FEATURE_CSV_COLUMNS, rows)
    return rows


def _sha256_file(path: str, what: str) -> str:
    """The hex digest of the file at ``path``; a file that cannot be read is
    a DataError naming ``what`` it is."""
    digest = sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    return digest.hexdigest()


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(to_dict(config), sort_keys=True)
    return sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(config: PipelineConfig, features_path: str) -> None:
    """``<output_dir>/manifest.json``: tool version, config hash and a digest
    of every input. A configured input that is gone by now (analyze reads
    only the feature table and the market series) is listed with the digest
    null, and a warning names it."""
    inputs: dict[str, str | None] = {
        features_path: _sha256_file(features_path, "feature table")
    }
    for key in INPUT_PATH_FIELDS:
        value = getattr(config, key)
        if not value:
            continue
        if os.path.isfile(value):
            inputs[value] = _sha256_file(value, key)
        else:
            logger.warning("%s %s is missing; the manifest lists it with no digest", key, value)
            inputs[value] = None
    manifest = {
        "tool": "forumcast",
        "version": __version__,
        "config_sha256": config_hash(config),
        "inputs": inputs,
    }
    write_json(os.path.join(config.output_dir, "manifest.json"), manifest)


def run_analyze(config: PipelineConfig, features_path: str | None = None):
    """Panel assembly and the full battery from an existing feature table."""
    validate(config)
    validate_output_dir(config)
    _make_dir(config.output_dir)
    # Before anything is read: a failure leaves no report of other features.
    _remove(config.output_dir, _REPORTS)
    if features_path is None:
        features_path = os.path.join(config.output_dir, "features.csv")
    columns = read_features_csv(features_path)
    horizon_start = parse_timestamp(config.horizon_start)
    price = load_market_series(config.price_path, horizon_start)
    control = load_market_series(config.control_path, horizon_start)
    panel = build_panel(columns, price, control)
    report = run_battery(panel, config)

    out = config.output_dir
    write_correlations_csv(report, os.path.join(out, "correlations.csv"))
    write_granger_csv(report, os.path.join(out, "granger.csv"))
    write_regression_terms_csv(report, os.path.join(out, "regressions.csv"))
    write_regression_models_csv(report, os.path.join(out, "regression_models.csv"))
    write_summary_md(report, os.path.join(out, "summary.md"))
    write_manifest(config, features_path)
    return report


def run_all(config: PipelineConfig):
    """features then analyze; a failure mid-way leaves earlier outputs in
    place plus errors.json describing where it stopped. An errors.json left
    by an earlier run is removed first, so it never outlives a success."""
    validate_output_dir(config)
    error_path = os.path.join(config.output_dir, "errors.json")
    stage = "features"
    try:
        _remove(config.output_dir, ("errors.json",))
        run_features(config)
        stage = "analyze"
        return run_analyze(config)
    except ForumcastError as exc:
        # Best effort: when the outputs cannot be written, errors.json may
        # not be writable either, and the error that stopped the run is the
        # one to report.
        with contextlib.suppress(OutputError):
            _make_dir(config.output_dir)
            write_json(
                error_path, {"stage": stage, "type": type(exc).__name__, "error": str(exc)}
            )
        raise
