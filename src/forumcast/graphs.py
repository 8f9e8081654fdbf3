"""Directed weighted graphs: interaction (who replies to whom) and word
co-occurrence networks, plus the weekly activity counts read off them.

Both builders aggregate event counts into integer arc weights. Self-loops
(self-replies; identical-word pairs) are tallied on the graph but never
stored as arcs, so downstream centrality code sees loop-free digraphs.
"""

from __future__ import annotations

import csv
import logging
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Message
from .errors import DataError

logger = logging.getLogger(__name__)

DEFAULT_COOCCURRENCE_WINDOW = 7

EDGE_TABLE_COLUMNS = ("week", "source", "target", "weight")
EDGE_BLOCK_ROWS = 4096


class DirectedWeightedGraph:
    """Immutable digraph with positive integer arc weights.

    Nodes are strings (actor ids or words), kept sorted in ``nodes``; a
    node's id is its position there, so ids follow string order. Arcs are
    stored once, as CSR arrays over those ids: the successors of node ``i``
    are ``indices[indptr[i]:indptr[i + 1]]``, in ascending order, and an
    int64 weight array runs parallel to ``indices``. Arc weights count events:
    repeated replies or repeated co-occurrences accumulate on one arc.
    ``arcs`` is a view derived from the arrays, in (source, target) order.
    """

    __slots__ = (
        "_nodes", "_indptr", "_indices", "_sources", "_weights", "_self_loop_events",
        "_total_weight",
    )

    def __init__(
        self,
        arcs: Mapping[tuple[str, str], int],
        nodes: Iterable[str] = (),
        self_loop_events: int = 0,
    ) -> None:
        node_set = set(nodes)
        for (source, target), weight in arcs.items():
            if source == target:
                raise DataError(f"self-loop arc {source!r} not allowed")
            if weight < 1:
                raise DataError(f"arc {source!r}->{target!r} has non-positive weight {weight}")
            node_set.add(source)
            node_set.add(target)
        ordered = tuple(sorted(node_set))
        index = {v: i for i, v in enumerate(ordered)}
        n = len(ordered)
        keyed = np.array(
            sorted((index[source] * n + index[target], weight)
                   for (source, target), weight in arcs.items()),
            dtype=np.int64,
        ).reshape(-1, 2)
        self._init_from_codes(ordered, keyed[:, 0], keyed[:, 1], self_loop_events)

    @classmethod
    def from_codes(
        cls,
        nodes: tuple[str, ...],
        codes: np.ndarray,
        weights: np.ndarray,
        self_loop_events: int = 0,
    ) -> DirectedWeightedGraph:
        """Graph from arc codes ``source_id * n + target_id`` over ``nodes``.

        The caller guarantees what ``__init__`` checks: ``nodes`` sorted and
        distinct, ``codes`` ascending and distinct with no self-loop, every
        weight at least 1.
        """
        graph = cls.__new__(cls)
        graph._init_from_codes(nodes, codes, weights, self_loop_events)
        return graph

    def _init_from_codes(
        self, nodes: tuple[str, ...], codes: np.ndarray, weights: np.ndarray,
        self_loop_events: int,
    ) -> None:
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

    @property
    def arcs(self) -> Mapping[tuple[str, str], int]:
        """{(source, target): weight}, in (source, target) order."""
        names = self._nodes
        return dict(zip(
            zip(map(names.__getitem__, self.arc_sources().tolist()),
                map(names.__getitem__, self._indices.tolist())),
            self._weights.tolist(),
        ))

    def summary(self) -> dict[str, int]:
        return {
            "n": self.n,
            "m": self.m,
            "total_weight": self._total_weight,
            "self_loop_events": self._self_loop_events,
        }

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


def build_interaction_network(
    messages: Sequence[Message],
    author_by_id: Mapping[str, str] | None = None,
) -> tuple[DirectedWeightedGraph, InteractionTallies]:
    """Arc replier -> parent author for every resolvable cross-actor reply.

    ``author_by_id`` may cover more messages than ``messages`` (replies can
    point outside the window); when omitted it is derived from ``messages``.
    Replies to unknown parents are skipped, with one warning per call that
    counts them; self-replies create no arc.
    """
    if author_by_id is None:
        author_by_id = {msg.id: msg.author_id for msg in messages}
    arc_counts: Counter[tuple[str, str]] = Counter()
    nodes = {msg.author_id for msg in messages}
    comments = 0
    self_replies = 0
    dangling: list[Message] = []
    for msg in messages:
        if msg.parent_id is None:
            continue
        comments += 1
        parent_author = author_by_id.get(msg.parent_id)
        if parent_author is None:
            dangling.append(msg)
            continue
        if parent_author == msg.author_id:
            self_replies += 1
            continue
        arc_counts[(msg.author_id, parent_author)] += 1
    if dangling:
        logger.warning(
            "%d replies point to unknown parents, arcs skipped (first: message %s"
            " replies to %s)", len(dangling), dangling[0].id, dangling[0].parent_id,
        )
    graph = DirectedWeightedGraph(arc_counts, nodes=nodes, self_loop_events=self_replies)
    return graph, InteractionTallies(comments, self_replies, len(dangling))


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
    # offset, into one buffer that is sorted in place: counting its runs of
    # equal codes then needs no second copy of the pairs.
    width = min(window_size, max(lengths, default=1) - 1)
    codes = np.empty(len(flat) * width, dtype=np.int64)
    filled = 0
    for offset in range(1, width + 1):
        same_stream = stream_of[:-offset] == stream_of[offset:]
        sources = ids[:-offset][same_stream]
        sources *= n
        np.add(sources, ids[offset:][same_stream], out=codes[filled:filled + len(sources)])
        filled += len(sources)
    codes = codes[:filled]
    codes.sort()
    run_start = np.ones(filled + 1, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=run_start[1:filled])
    bounds = np.flatnonzero(run_start)
    arc_codes = codes[bounds[:-1]]
    counts = bounds[1:] - bounds[:-1]
    loop = arc_codes % (n + 1) == 0  # source == target: identical-word pairs
    return DirectedWeightedGraph.from_codes(
        nodes, arc_codes[~loop], counts[~loop], self_loop_events=int(counts[loop].sum())
    )


def activity(messages: Sequence[Message]) -> int:
    """Messages posted in the window."""
    return len(messages)


def activity_words(word_graph: DirectedWeightedGraph) -> int:
    """Co-occurrence event count: total arc weight of the word network."""
    return word_graph.total_weight
