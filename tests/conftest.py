from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from typing import Iterable, Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from forumcast.corpus import Message
from forumcast.graphs import DirectedWeightedGraph

settings.register_profile(
    "deterministic",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

EPOCH = datetime(2020, 1, 6, tzinfo=timezone.utc)


def make_message(
    msg_id: str,
    author: str,
    body: str = "hello dolly",
    parent: str | None = None,
    week: int = 0,
    offset_hours: int = 0,
) -> Message:
    return Message(
        id=msg_id,
        author_id=author,
        timestamp=EPOCH + timedelta(weeks=week, hours=offset_hours),
        body=body,
        parent_id=parent,
    )


def graph_from_arcs(
    arc_weights: Mapping[tuple[str, str], int], nodes: Iterable[str] = ()
) -> DirectedWeightedGraph:
    """The graph of ``{(source, target): weight}`` over its endpoints and
    ``nodes``; arcs must be loop-free with weights of at least 1."""
    ordered = tuple(sorted({*nodes, *(v for arc in arc_weights for v in arc)}))
    index = {v: i for i, v in enumerate(ordered)}
    n = len(ordered)
    keyed = sorted((index[a] * n + index[b], w) for (a, b), w in arc_weights.items())
    assert all(w >= 1 for _, w in keyed)
    assert all(code % (n + 1) for code, _ in keyed)
    codes = np.array([code for code, _ in keyed], dtype=np.int64)
    weights = np.array([w for _, w in keyed], dtype=np.int64)
    return DirectedWeightedGraph(ordered, codes, weights)


def arcs(g: DirectedWeightedGraph) -> dict[tuple[str, str], int]:
    """{(source, target): weight}, in (source, target) order."""
    names = g.nodes
    return {
        (names[a], names[b]): w
        for a, b, w in zip(g.arc_sources().tolist(), g.indices.tolist(), g.weights.tolist())
    }


def random_digraph(rng: random.Random, n: int, p: float) -> DirectedWeightedGraph:
    nodes = [f"v{i}" for i in range(n)]
    arc_weights = {}
    for a in nodes:
        for b in nodes:
            if a != b and rng.random() < p:
                arc_weights[(a, b)] = 1 + rng.randrange(3)
    return graph_from_arcs(arc_weights, nodes=nodes)


def bidirectional_star(leaves: int) -> DirectedWeightedGraph:
    arc_weights = {}
    for i in range(1, leaves + 1):
        arc_weights[("hub", f"v{i}")] = 1
        arc_weights[(f"v{i}", "hub")] = 1
    return graph_from_arcs(arc_weights)


def directed_cycle(n: int) -> DirectedWeightedGraph:
    return graph_from_arcs({(f"v{i}", f"v{(i + 1) % n}"): 1 for i in range(n)})


def bidirectional_cycle(n: int) -> DirectedWeightedGraph:
    arc_weights = {}
    for i in range(n):
        arc_weights[(f"v{i}", f"v{(i + 1) % n}")] = 1
        arc_weights[(f"v{(i + 1) % n}", f"v{i}")] = 1
    return graph_from_arcs(arc_weights)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(2024)
