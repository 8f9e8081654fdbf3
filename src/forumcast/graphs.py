"""Directed weighted graphs: interaction (who replies to whom) and word
co-occurrence networks, plus the weekly activity counts read off them.

Both builders encode each event as a pair code ``source_id * n +
target_id`` and hand the codes to ``graph_from_pairs``, which counts equal
codes into integer arc weights. Self-loops (self-replies; identical-word
pairs) are tallied on the graph but never stored as arcs, so downstream
centrality code sees loop-free digraphs.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
        codes: np.ndarray,
        weights: np.ndarray,
        self_loop_events: int = 0,
    ) -> None:
        """Graph from arc codes ``source_id * n + target_id`` over ``nodes``.

        The caller guarantees ``nodes`` sorted and distinct, ``codes``
        ascending and distinct with no self-loop, and every weight at least
        1; ``graph_from_pairs`` builds such arrays from raw pair events.
        """
        n = len(nodes)
        sources, targets = np.divmod(codes, n)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
        self._nodes = nodes
        self._indptr = _frozen(indptr)
        # int32: scipy.sparse's native index width, so a matrix built over
        # these arrays shares them.
        self._indices = _frozen(targets.astype(np.int32))
        self._sources = _frozen(sources.astype(np.int32))
        self._weights = _frozen(np.array(weights, dtype=np.int64))
        self._self_loop_events = self_loop_events
        self._total_weight = int(self._weights.sum())

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


@dataclass(frozen=True)
class InteractionTallies:
    """Bookkeeping from an interaction-network build.

    total arc weight + self_replies + dangling_parents == comments.
    """

    comments: int
    self_replies: int
    dangling_parents: int


def graph_from_pairs(nodes: tuple[str, ...], codes: np.ndarray) -> DirectedWeightedGraph:
    """Graph over ``nodes`` (sorted, distinct) from one int64 code
    ``source_id * n + target_id`` per pair event.

    ``codes`` is sorted in place, so counting its runs of equal codes needs no
    second copy of the pairs. A run's length is its arc's weight; runs of
    identical-node pairs are tallied as self-loop events, not stored.
    """
    n = len(nodes)
    codes.sort()
    count = len(codes)
    # Interaction graphs are tiny, so this step sticks to the cheapest NumPy
    # calls: empty rather than ones, ndarray.nonzero rather than flatnonzero.
    run_start = np.empty(count + 1, dtype=bool)
    run_start[0] = run_start[count] = True
    np.not_equal(codes[1:], codes[:-1], out=run_start[1:count])
    bounds = run_start.nonzero()[0]
    arc_codes = codes[bounds[:-1]]
    counts = bounds[1:] - bounds[:-1]
    arc = arc_codes % (n + 1) != 0  # source != target
    weights = counts[arc]
    return DirectedWeightedGraph(
        nodes, arc_codes[arc], weights, self_loop_events=count - int(weights.sum())
    )


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
    resolved = [(replier, parent) for replier, parent in replies if parent is not None]
    nodes = tuple(sorted(set(authors).union(parent for _, parent in resolved)))
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    codes = np.array(
        [index[replier] * n + index[parent] for replier, parent in resolved], dtype=np.int64
    )
    graph = graph_from_pairs(nodes, codes)
    return graph, InteractionTallies(
        len(replies), graph.self_loop_events, len(replies) - len(resolved)
    )


def build_word_network(
    streams: Iterable[Sequence[str]],
    window_size: int = DEFAULT_COOCCURRENCE_WINDOW,
) -> DirectedWeightedGraph:
    """Ordered co-occurrence graph over filtered token streams.

    For each stream, every pair (t_i, t_j) with i < j and j - i <= window_size
    adds one event on arc t_i -> t_j. Pairs never cross stream boundaries.
    Identical-word pairs are tallied as self-loop events, not stored.
    """
    if window_size < 1:
        raise DataError(f"window_size must be >= 1, got {window_size}")
    flat: list[str] = []
    lengths: list[int] = []
    for tokens in streams:
        flat.extend(tokens)
        lengths.append(len(tokens))
    # Ids follow Python string order, the graph's node order, so the pair code
    # source * n + target sorts like the (source, target) strings.
    nodes = tuple(sorted(set(flat)))
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    ids = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=len(flat))
    stream_of = np.repeat(np.arange(len(lengths)), lengths)
    # Codes of the pairs (i, i + offset) inside one stream go, offset by
    # offset, into one buffer, which graph_from_pairs then sorts in place.
    width = min(window_size, max(lengths, default=1) - 1)
    codes = np.empty(len(flat) * width, dtype=np.int64)
    filled = 0
    for offset in range(1, width + 1):
        same_stream = stream_of[:-offset] == stream_of[offset:]
        sources = ids[:-offset][same_stream]
        sources *= n
        np.add(sources, ids[offset:][same_stream], out=codes[filled:filled + len(sources)])
        filled += len(sources)
    return graph_from_pairs(nodes, codes[:filled])


def activity(authors: Sequence[str]) -> int:
    """Messages posted in the window, given the author of each."""
    return len(authors)


def activity_words(word_graph: DirectedWeightedGraph) -> int:
    """Co-occurrence event count: total arc weight of the word network."""
    return word_graph.total_weight
