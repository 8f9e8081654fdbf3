"""Directed weighted graphs: interaction (who replies to whom) and word
co-occurrence networks, plus the weekly activity counts read off them.

Both builders aggregate event counts into integer arc weights. Self-loops
(self-replies; identical-word pairs) are tallied on the graph but never
stored as arcs, so downstream centrality code sees loop-free digraphs.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import Message
from .errors import DataError
from .tables import write_csv, write_json

logger = logging.getLogger(__name__)

DEFAULT_COOCCURRENCE_WINDOW = 7


class DirectedWeightedGraph:
    """Immutable digraph with positive integer arc weights.

    Nodes are strings (actor ids or words). Arc weights count events:
    repeated replies or repeated co-occurrences accumulate on one arc.
    Adjacency lists are built lazily and sorted, so traversal order is
    deterministic.
    """

    __slots__ = ("_nodes", "_arcs", "_self_loop_events", "_succ", "_pred", "_total_weight")

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
        self._nodes: tuple[str, ...] = tuple(sorted(node_set))
        self._arcs: dict[tuple[str, str], int] = dict(arcs)
        self._self_loop_events = self_loop_events
        self._total_weight = sum(self._arcs.values())
        self._succ: dict[str, tuple[str, ...]] | None = None
        self._pred: dict[str, tuple[str, ...]] | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def arcs(self) -> Mapping[tuple[str, str], int]:
        return self._arcs

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def m(self) -> int:
        return len(self._arcs)

    @property
    def total_weight(self) -> int:
        return self._total_weight

    @property
    def self_loop_events(self) -> int:
        return self._self_loop_events

    def _build_adjacency(self) -> None:
        succ: dict[str, list[str]] = {v: [] for v in self._nodes}
        pred: dict[str, list[str]] = {v: [] for v in self._nodes}
        for source, target in self._arcs:
            succ[source].append(target)
            pred[target].append(source)
        self._succ = {v: tuple(sorted(out)) for v, out in succ.items()}
        self._pred = {v: tuple(sorted(inc)) for v, inc in pred.items()}

    def successors(self, node: str) -> tuple[str, ...]:
        if self._succ is None:
            self._build_adjacency()
        assert self._succ is not None
        return self._succ[node]

    def predecessors(self, node: str) -> tuple[str, ...]:
        if self._pred is None:
            self._build_adjacency()
        assert self._pred is not None
        return self._pred[node]

    def summary(self) -> dict[str, int]:
        return {
            "n": self.n,
            "m": self.m,
            "total_weight": self._total_weight,
            "self_loop_events": self._self_loop_events,
        }

    def write_edge_list(self, path: str) -> None:
        """CSV export: source,target,weight, rows sorted by (source, target)."""
        rows = sorted((source, target, weight) for (source, target), weight in self._arcs.items())
        write_csv(path, ("source", "target", "weight"), rows)

    def write_summary(self, path: str) -> None:
        write_json(path, self.summary())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedWeightedGraph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._arcs == other._arcs
            and self._self_loop_events == other._self_loop_events
        )

    def __repr__(self) -> str:
        return (
            f"DirectedWeightedGraph(n={self.n}, m={self.m},"
            f" total_weight={self._total_weight})"
        )


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
    Dangling parent ids are logged and skipped; self-replies create no arc.
    """
    if author_by_id is None:
        author_by_id = {msg.id: msg.author_id for msg in messages}
    arc_counts: Counter[tuple[str, str]] = Counter()
    nodes = {msg.author_id for msg in messages}
    comments = 0
    self_replies = 0
    dangling = 0
    for msg in messages:
        if msg.parent_id is None:
            continue
        comments += 1
        parent_author = author_by_id.get(msg.parent_id)
        if parent_author is None:
            dangling += 1
            logger.warning(
                "message %s replies to unknown parent %s; arc skipped", msg.id, msg.parent_id
            )
            continue
        if parent_author == msg.author_id:
            self_replies += 1
            continue
        arc_counts[(msg.author_id, parent_author)] += 1
    graph = DirectedWeightedGraph(arc_counts, nodes=nodes, self_loop_events=self_replies)
    return graph, InteractionTallies(comments, self_replies, dangling)


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
    pair_counts: Counter[tuple[str, str]] = Counter()
    nodes: set[str] = set()
    for tokens in streams:
        length = len(tokens)
        if length == 0:
            continue
        nodes.update(tokens)
        pair_counts.update(
            (tokens[i], tokens[j])
            for i in range(length - 1)
            for j in range(i + 1, min(length, i + window_size + 1))
        )
    self_pairs = 0
    for key in [k for k in pair_counts if k[0] == k[1]]:
        self_pairs += pair_counts.pop(key)
    return DirectedWeightedGraph(pair_counts, nodes=nodes, self_loop_events=self_pairs)


def activity(messages: Sequence[Message]) -> int:
    """Messages posted in the window."""
    return len(messages)


def activity_words(word_graph: DirectedWeightedGraph) -> int:
    """Co-occurrence event count: total arc weight of the word network."""
    return word_graph.total_weight
