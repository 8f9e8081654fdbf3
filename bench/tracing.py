"""Spans around the layer calls of one in-process ``forumcast`` run.

Nothing under ``src/`` knows about this: ``instrument`` swaps the public
functions that ``forumcast.pipeline`` looks up at call time (and the
``tokenize`` the lexicon scorer uses) for timing wrappers, and puts the
originals back when the run ends. Spans are kept in memory as
``(name, start, end, parent)`` tuples and turned into per-layer metrics at
the end; a layer's self time is its span time minus the time of its
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

# span name -> metric reported as its summed self time
_SELF_TIME_METRICS = {
    "corpus.load_messages": "corpus.load_messages_s",
    "corpus.partition_weeks": "corpus.partition_weeks_s",
    "textproc.tokenize": "textproc.tokenize_s",
    "textproc.filter_tokens": "textproc.filter_tokens_s",
    "textproc.build_vocabulary": "textproc.build_vocabulary_s",
    "graphs.word_build": "graphs.word_build_s",
    "graphs.interaction_build": "graphs.interaction_build_s",
    "graphs.export": "graphs.export_s",
    "centrality.betweenness_word": "centrality.betweenness_word_s",
    "centrality.betweenness_interaction": "centrality.betweenness_interaction_s",
    "centrality.degree": "centrality.degree_s",
    "centrality.centralization": "centrality.centralization_s",
    "semantics.score": "semantics.score_s",
    "semantics.complexity": "semantics.complexity_s",
    "econometrics.battery": "econometrics.battery_s",
    "econometrics.write": "econometrics.write_s",
}


class Tracer:
    """Records nested spans and counters for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter[str] = Counter()
        self.word_nodes_max = 0
        self._stack: list[int] = []
        self._word_graph = None
        self._focal_lookup = False

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return traced

    # counters read off the arguments and results at each boundary

    def _loaded(self, result, *_args) -> None:
        messages, rejections = result
        self.counts["corpus.messages"] += len(messages)
        self.counts["corpus.rejected_rows"] += len(rejections)

    def _partitioned(self, corpus, *_args) -> None:
        self.counts["corpus.outside_horizon"] += len(corpus.dropped)
        self.counts["corpus.in_horizon"] += sum(len(w) for w in corpus.messages_by_window)
        self.counts["pipeline.windows"] += corpus.week_count

    def _tokenized(self, _result, *_args) -> None:
        if not self._focal_lookup:
            self.counts["textproc.tokenize_calls"] += 1

    def _lexicon_tokenized(self, _result, *_args) -> None:
        self.counts["semantics.lexicon_tokenize_calls"] += 1

    def _vocabulary(self, vocab, *_args) -> None:
        self.counts["textproc.tokens"] += vocab.total

    def _word_graph_built(self, graph, *_args) -> None:
        self._word_graph = graph
        self.word_nodes_max = max(self.word_nodes_max, graph.n)
        self.counts["graphs.word_arcs_total"] += graph.m
        self.counts["graphs.word_events_total"] += graph.total_weight

    def _interaction_built(self, result, *_args) -> None:
        _graph, tallies = result
        self.counts["graphs.dangling_parents"] += tallies.dangling_parents

    def _sources(self, graph, sources: int) -> None:
        self.counts["centrality.bfs_sources"] += sources
        self.counts["centrality.arcs_scanned"] += sources * graph.m

    def counted(self, key: str, fn):
        """Count calls without a span, so the caller's self time keeps them."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def _betweenness(self, fn):
        """Exact betweenness runs on both graphs; the span name says which."""

        @functools.wraps(fn)
        def traced(graph):
            kind = "word" if graph is self._word_graph else "interaction"
            with self.span(f"centrality.betweenness_{kind}"):
                result = fn(graph)
            self._sources(graph, graph.n)
            return result

        return traced

    def _approx_betweenness(self, fn):
        @functools.wraps(fn)
        def traced(graph, sample_count, seed):
            with self.span("centrality.betweenness_word"):
                result = fn(graph, sample_count, seed)
            self._sources(graph, sample_count)
            return result

        return traced

    def _focal(self, fn):
        """The focal word is tokenized once; that is not a message pass."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._focal_lookup = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._focal_lookup = False

        return traced

    def replacements(self, pipeline, semantics, econometrics) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every boundary the run crosses."""
        p = pipeline
        out = [
            (p, "run_features", self.wrap("pipeline.features", p.run_features)),
            (p, "run_analyze", self.wrap("pipeline.analyze", p.run_analyze)),
            (p, "load_messages", self.wrap("corpus.load_messages", p.load_messages, self._loaded)),
            (p, "partition_weeks",
             self.wrap("corpus.partition_weeks", p.partition_weeks, self._partitioned)),
            (p, "tokenize", self.wrap("textproc.tokenize", p.tokenize, self._tokenized)),
            (p, "filter_tokens", self.wrap("textproc.filter_tokens", p.filter_tokens)),
            (p, "build_vocabulary",
             self.wrap("textproc.build_vocabulary", p.build_vocabulary, self._vocabulary)),
            (p, "normalize_focal_word", self._focal(p.normalize_focal_word)),
            (p, "build_word_network",
             self.wrap("graphs.word_build", p.build_word_network, self._word_graph_built)),
            (p, "build_interaction_network",
             self.wrap("graphs.interaction_build", p.build_interaction_network,
                       self._interaction_built)),
            (p, "_export_graphs", self.wrap("graphs.export", p._export_graphs)),
            (p, "degree_centrality", self.wrap("centrality.degree", p.degree_centrality)),
            (p, "centralization", self.wrap("centrality.centralization", p.centralization)),
            (p, "betweenness_centrality", self._betweenness(p.betweenness_centrality)),
            (p, "approx_betweenness", self._approx_betweenness(p.approx_betweenness)),
            (p, "score_message", self.wrap("semantics.score", p.score_message)),
            (p, "window_sentiment", self.wrap("semantics.score", p.window_sentiment)),
            (p, "emotionality", self.wrap("semantics.score", p.emotionality)),
            (p, "complexity", self.wrap("semantics.complexity", p.complexity)),
            (p, "run_battery", self.wrap("econometrics.battery", p.run_battery)),
            (semantics, "tokenize",
             self.wrap("textproc.tokenize", semantics.tokenize, self._lexicon_tokenized)),
            (econometrics, "ols", self.counted("econometrics.ols_fits", econometrics.ols)),
        ]
        for writer in ("write_correlations_csv", "write_granger_csv",
                       "write_regression_terms_csv", "write_regression_models_csv",
                       "write_summary_md"):
            out.append((p, writer, self.wrap("econometrics.write", getattr(p, writer))))
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += end - start - child_time[index]
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        totals: defaultdict[str, float] = defaultdict(float)
        for name, start, end, _parent in self.spans:
            totals[name] += end - start
        return dict(totals)

    def layer_metrics(self, output_dir: str) -> dict[str, float]:
        """Per-layer metrics of the finished run (times in seconds)."""
        self_times = self.self_times()
        totals = self.total_times()
        metrics = {metric: self_times.get(span, 0.0) for span, metric in _SELF_TIME_METRICS.items()}
        metrics["pipeline.features_s"] = totals.get("pipeline.features", 0.0)
        metrics["pipeline.analyze_s"] = totals.get("pipeline.analyze", 0.0)
        metrics["pipeline.self_s"] = self_times.get("pipeline.features", 0.0)
        messages = self.counts["corpus.in_horizon"]
        for name in ("corpus.messages", "corpus.rejected_rows", "corpus.outside_horizon",
                     "textproc.tokens", "graphs.word_arcs_total", "graphs.word_events_total",
                     "graphs.dangling_parents", "centrality.bfs_sources",
                     "centrality.arcs_scanned", "econometrics.ols_fits", "pipeline.windows"):
            metrics[name] = float(self.counts[name])
        metrics["graphs.word_nodes_max"] = float(self.word_nodes_max)
        metrics["textproc.tokenize_calls_per_message"] = (
            self.counts["textproc.tokenize_calls"] / messages if messages else 0.0
        )
        metrics["semantics.lexicon_tokenize_calls_per_message"] = (
            self.counts["semantics.lexicon_tokenize_calls"] / messages if messages else 0.0
        )
        files, size = _tree_size(os.path.join(output_dir, "graphs"))
        metrics["graphs.export_files"] = float(files)
        metrics["graphs.export_bytes"] = float(size)
        return metrics

    def dump(self) -> list[dict]:
        """The spans as JSON-ready records, times relative to the first span;
        ``parent`` is the index of the enclosing span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"run_id": self.run_id, "name": name, "start": start - origin,
             "end": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _tree_size(path: str) -> tuple[int, int]:
    """Number of files under ``path`` and their total size in bytes."""
    count = size = 0
    for root, _dirs, files in os.walk(path):
        count += len(files)
        size += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return count, size


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers for the duration of one run."""
    from forumcast import econometrics, pipeline, semantics

    replacements = tracer.replacements(pipeline, semantics, econometrics)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, wrapper in replacements:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)
