"""Directed weighted graphs: interaction (who replies to whom) and word
co-occurrence networks, plus the weekly activity counts read off them.

The builders take a chunk of consecutive windows at once. Each window's
nodes get global ids, its node base plus its local id; every event is coded
as a pair code ``source_id * N + target_id`` over the chunk's N nodes, and
``graphs_from_pairs`` counts equal codes into integer arc weights with one
sort for the whole chunk and splits the sorted arcs at window boundaries:
each window's graph is a view of the chunk's CSR arrays. A single window is
a chunk of one (``build_word_network``, ``build_interaction_network``).
Self-loops (self-replies; identical-word pairs) are tallied on the graph but
never stored as arcs, so downstream centrality code sees loop-free digraphs.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError

DEFAULT_COOCCURRENCE_WINDOW = 7

EDGE_TABLE_COLUMNS = ("week", "source", "target", "weight")
EDGE_BLOCK_ROWS = 4096


class DirectedWeightedGraph:
    """Immutable digraph with positive integer arc weights.

    Nodes are strings (actor ids or words), kept sorted in ``nodes``; a
    node's id is its position there, so ids follow string order. Arcs are
    stored once, as CSR arrays over those ids: the successors of node ``i``
    are ``indices[indptr[i]:indptr[i + 1]]``, in ascending order, and the
    int64 array ``weights`` runs parallel to ``indices``. Arc weights count events:
    repeated replies or repeated co-occurrences accumulate on one arc.
    """

    __slots__ = (
        "_nodes", "_indptr", "_indices", "_sources", "_weights", "_self_loop_events",
        "_total_weight",
    )

    def __init__(
        self,
        nodes: tuple[str, ...],
        indptr: np.ndarray,
        indices: np.ndarray,
        sources: np.ndarray,
        weights: np.ndarray,
        self_loop_events: int,
        total_weight: int,
    ) -> None:
        """Graph over ``nodes`` from its read-only CSR arrays, taken as they
        are: int32 ``indptr``, ``indices`` and ``sources`` (each arc's source
        id), int64 ``weights``, plus the self-loop tally and the weight sum.

        The caller guarantees ``nodes`` sorted and distinct, arcs in
        (source, target) order with no self-loop, and every weight at least
        1; ``graphs_from_pairs`` builds such arrays from raw pair events.
        """
        self._nodes = nodes
        self._indptr = indptr
        # int32: scipy.sparse's native index width, so a matrix built over
        # these arrays shares them.
        self._indices = indices
        self._sources = sources
        self._weights = weights
        self._self_loop_events = self_loop_events
        self._total_weight = total_weight

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def m(self) -> int:
        return len(self._indices)

    @property
    def total_weight(self) -> int:
        return self._total_weight

    @property
    def self_loop_events(self) -> int:
        return self._self_loop_events

    def node_id(self, node: str) -> int:
        """Position of ``node`` in ``nodes``; KeyError if absent."""
        i = bisect_left(self._nodes, node)
        if i == len(self._nodes) or self._nodes[i] != node:
            raise KeyError(node)
        return i

    def arc_sources(self) -> np.ndarray:
        """Source id of each arc, parallel to ``indices``."""
        return self._sources

    def edge_table_rows(self, week: int, block_rows: int = EDGE_BLOCK_ROWS) -> Iterator[bytes]:
        """The graph's rows of an edge table, ``week,source,target,weight`` in
        (source, target) order, spelled as ``csv.writer``'s default dialect
        spells them and UTF-8 encoded in blocks of at most ``block_rows`` rows.

        Each node name is CSV-quoted once, not once per arc. Blocks stay
        small because a whole window's rows held as one list of strings, plus
        their join, cost a worker several MB on a 35k-arc word graph.
        """
        fields = _csv_fields(self._nodes)
        heads = [f"{week},{field}," for field in fields]
        sources = self.arc_sources()
        for start in range(0, self.m, block_rows):
            stop = start + block_rows
            yield "".join([
                f"{heads[source]}{fields[target]},{weight}\r\n"
                for source, target, weight in zip(
                    sources[start:stop].tolist(),
                    self._indices[start:stop].tolist(),
                    self._weights[start:stop].tolist(),
                )
            ]).encode("utf-8")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedWeightedGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._weights, other._weights)
            and self._self_loop_events == other._self_loop_events
        )

    def __repr__(self) -> str:
        return (
            f"DirectedWeightedGraph(n={self.n}, m={self.m},"
            f" total_weight={self._total_weight})"
        )


class _Echo:
    """A file whose ``write`` hands back what it is given."""

    def write(self, text: str) -> str:
        return text


def _csv_fields(names: Sequence[str]) -> list[str]:
    """Each name as ``csv.writer``'s default dialect spells it as one field
    of a row: quoted only when it holds a comma, a quote or a line break."""
    writer = csv.writer(_Echo())
    # A row of the name and an empty field comes back as "<field>,\r\n"; the
    # empty field keeps an empty name from being quoted as a row of its own.
    return [writer.writerow((name, ""))[:-3] for name in names]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class InteractionTallies(NamedTuple):
    """Bookkeeping from an interaction-network build.

    total arc weight + self_replies + dangling_parents == comments.
    """

    comments: int
    self_replies: int
    dangling_parents: int


def graphs_from_pairs(
    node_lists: Sequence[tuple[str, ...]], codes: np.ndarray
) -> list[DirectedWeightedGraph]:
    """One graph per entry of ``node_lists`` (each sorted and distinct) from
    one int64 code ``source * N + target`` per pair event, over global ids:
    with N nodes in all, node i of graph w has the id base_w + i, base_w
    being the node count of the graphs before w. No event joins two graphs.

    ``codes`` is sorted in place, so counting its runs of equal codes needs no
    second copy of the pairs. A run's length is its arc's weight; runs of
    identical-node pairs are tallied as self-loop events, not stored. Global
    ids follow the graphs' order, so the sorted arcs fall into one slice per
    graph, and each graph's arrays are views of the chunk's.
    """
    sizes = np.array([len(nodes) for nodes in node_lists], dtype=np.int64)
    windows = len(sizes)
    bases = np.zeros(windows + 1, dtype=np.int64)
    np.cumsum(sizes, out=bases[1:])
    total = int(bases[-1])
    codes.sort()
    count = len(codes)
    # The chunk may be a single tiny interaction graph, so this step sticks
    # to the cheapest NumPy calls: empty rather than ones, ndarray.nonzero
    # rather than flatnonzero.
    run_start = np.empty(count + 1, dtype=bool)
    run_start[0] = run_start[count] = True
    np.not_equal(codes[1:], codes[:-1], out=run_start[1:count])
    bounds = run_start.nonzero()[0]
    run_codes = codes[bounds[:-1]]
    arc = run_codes % (total + 1) != 0  # source != target
    weights = (bounds[1:] - bounds[:-1])[arc]
    sources, targets = np.divmod(run_codes[arc], max(total, 1))
    # Row pointers over the global ids; a graph's arcs start at its first
    # node's row, and its events at its first node's code, base_w * N.
    row_starts = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=total), out=row_starts[1:])
    arc_bounds = row_starts[bases]
    event_bounds = np.searchsorted(codes, bases * total)
    totals = np.diff(np.concatenate(([0], np.cumsum(weights)))[arc_bounds])
    base_of_arc = np.repeat(bases[:-1], np.diff(arc_bounds))
    local_sources = _frozen((sources - base_of_arc).astype(np.int32))
    indices = _frozen((targets - base_of_arc).astype(np.int32))
    # Graph w's row pointers are entries bases[w] + w to bases[w + 1] + w of
    # one array: the global row pointers of its nodes and of the next
    # graph's first node, less its first arc.
    node = np.arange(total + windows) - np.repeat(np.arange(windows), sizes + 1)
    indptr = row_starts[node] - np.repeat(arc_bounds[:-1], sizes + 1)
    indptr = _frozen(indptr.astype(np.int32))
    weights = _frozen(weights)
    graphs = []
    for w, (nodes, first, last, events, weight, base) in enumerate(zip(
        node_lists, arc_bounds[:-1].tolist(), arc_bounds[1:].tolist(),
        np.diff(event_bounds).tolist(), totals.tolist(), bases.tolist(),
    )):
        graphs.append(DirectedWeightedGraph(
            nodes, indptr[base + w:base + w + len(nodes) + 1], indices[first:last],
            local_sources[first:last], weights[first:last], events - weight, weight,
        ))
    return graphs


def build_interaction_networks(
    windows: Iterable[tuple[Sequence[str], Sequence[tuple[str, str | None]]]],
) -> list[tuple[DirectedWeightedGraph, InteractionTallies]]:
    """``build_interaction_network`` for each ``(authors, replies)`` window
    of a chunk, with one ``graphs_from_pairs`` for them all."""
    node_lists: list[tuple[str, ...]] = []
    repliers: list[int] = []
    parents: list[int] = []
    counts: list[tuple[int, int]] = []
    base = 0
    for authors, replies in windows:
        resolved = [(replier, parent) for replier, parent in replies if parent is not None]
        nodes = tuple(sorted(set(authors).union(parent for _, parent in resolved)))
        index = dict(zip(nodes, range(base, base + len(nodes))))
        for replier, parent in resolved:
            repliers.append(index[replier])
            parents.append(index[parent])
        node_lists.append(nodes)
        counts.append((len(replies), len(replies) - len(resolved)))
        base += len(nodes)
    codes = np.array(repliers, dtype=np.int64) * base + np.array(parents, dtype=np.int64)
    return [
        (graph, InteractionTallies(comments, graph.self_loop_events, dangling))
        for graph, (comments, dangling) in zip(graphs_from_pairs(node_lists, codes), counts)
    ]


def build_interaction_network(
    authors: Sequence[str],
    replies: Sequence[tuple[str, str | None]],
) -> tuple[DirectedWeightedGraph, InteractionTallies]:
    """Arc replier -> parent author for every resolved cross-actor reply.

    ``authors`` holds the author of each message in the window; ``replies``
    holds one ``(author, parent author)`` pair per comment, with ``None`` as
    the parent author when the parent is unknown. Such dangling replies and
    self-replies create no arc; both are tallied.
    """
    return build_interaction_networks([(authors, replies)])[0]


def build_word_networks(
    windows: Iterable[Sequence[Sequence[str]]],
    window_size: int = DEFAULT_COOCCURRENCE_WINDOW,
) -> list[DirectedWeightedGraph]:
    """``build_word_network`` for each window of token streams in a chunk,
    with one ``graphs_from_pairs`` for them all."""
    if window_size < 1:
        raise DataError(f"window_size must be >= 1, got {window_size}")
    node_lists: list[tuple[str, ...]] = []
    ids = []
    lengths: list[int] = []
    base = 0
    for streams in windows:
        words = [token for tokens in streams for token in tokens]
        lengths.extend(map(len, streams))
        # Ids follow Python string order, the graph's node order, so the pair
        # code source * N + target sorts like the (source, target) strings.
        nodes = tuple(sorted(set(words)))
        ids.append(map(dict(zip(nodes, range(base, base + len(nodes)))).__getitem__, words))
        node_lists.append(nodes)
        base += len(nodes)
    flat = np.fromiter(chain.from_iterable(ids), dtype=np.int64, count=sum(lengths))
    stream_of = np.repeat(np.arange(len(lengths)), lengths)
    # Codes of the pairs (i, i + offset) inside one stream go, offset by
    # offset, into one buffer, which graphs_from_pairs then sorts in place.
    # Pairs never cross streams, so they never cross windows either.
    width = min(window_size, max(lengths, default=1) - 1)
    codes = np.empty(len(flat) * width, dtype=np.int64)
    filled = 0
    for offset in range(1, width + 1):
        same_stream = stream_of[:-offset] == stream_of[offset:]
        sources = flat[:-offset][same_stream]
        sources *= base
        np.add(sources, flat[offset:][same_stream], out=codes[filled:filled + len(sources)])
        filled += len(sources)
    return graphs_from_pairs(node_lists, codes[:filled])


def build_word_network(
    streams: Iterable[Sequence[str]],
    window_size: int = DEFAULT_COOCCURRENCE_WINDOW,
) -> DirectedWeightedGraph:
    """Ordered co-occurrence graph over filtered token streams.

    For each stream, every pair (t_i, t_j) with i < j and j - i <= window_size
    adds one event on arc t_i -> t_j. Pairs never cross stream boundaries.
    Identical-word pairs are tallied as self-loop events, not stored.
    """
    return build_word_networks([list(streams)], window_size)[0]


def activity(authors: Sequence[str]) -> int:
    """Messages posted in the window, given the author of each."""
    return len(authors)


def activity_words(word_graph: DirectedWeightedGraph) -> int:
    """Co-occurrence event count: total arc weight of the word network."""
    return word_graph.total_weight
