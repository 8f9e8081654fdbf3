from __future__ import annotations

import os
import random
from datetime import datetime, timedelta, timezone
from typing import Iterable, Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from forumcast.centrality import vertex_betweennesses
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


def children(pid: int | None = None) -> list[int]:
    """The pids of the children of process ``pid`` (by default this one),
    live or zombie, read from each process's ``/proc/<pid>/stat``."""
    parent = os.getpid() if pid is None else pid
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # a process that ended meanwhile
            continue
        # the fields after the parenthesised command name: state, ppid, ...
        if int(stat.rpartition(")")[2].split()[1]) == parent:
            found.append(int(entry))
    return found


def graph_from_arcs(
    arc_weights: Mapping[tuple[str, str], int], nodes: Iterable[str] = ()
) -> DirectedWeightedGraph:
    """The graph of ``{(source, target): weight}`` over its endpoints and
    ``nodes``; arcs must be loop-free with weights of at least 1."""
    ordered = tuple(sorted({*nodes, *(v for arc in arc_weights for v in arc)}))
    index = {v: i for i, v in enumerate(ordered)}
    keyed = sorted((index[a], index[b], w) for (a, b), w in arc_weights.items())
    assert all(w >= 1 and a != b for a, b, w in keyed)
    out_degree = [0] * len(ordered)
    for a, _b, _w in keyed:
        out_degree[a] += 1
    indptr = np.cumsum([0, *out_degree], dtype=np.int32)
    sources, targets, weights = (
        np.array([arc[column] for arc in keyed], dtype=dtype)
        for column, dtype in ((0, np.int32), (1, np.int32), (2, np.int64))
    )
    for array in (indptr, sources, targets, weights):
        array.flags.writeable = False
    return DirectedWeightedGraph(
        ordered, indptr, targets, sources, weights, 0, int(weights.sum())
    )


def arcs(g: DirectedWeightedGraph) -> dict[tuple[str, str], int]:
    """{(source, target): weight}, in (source, target) order."""
    names = g.nodes
    return {
        (names[a], names[b]): w
        for a, b, w in zip(g.sources.tolist(), g.indices.tolist(), g.weights.tolist())
    }


def same_graph(a: DirectedWeightedGraph, b: DirectedWeightedGraph) -> bool:
    """Equal nodes, CSR arrays, weights and tallies; a graph is a tuple of
    arrays, whose own ``==`` would compare the arrays element-wise."""
    return (
        a.nodes == b.nodes
        and all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in ("indptr", "indices", "sources", "weights")
        )
        and (a.self_loop_events, a.total_weight) == (b.self_loop_events, b.total_weight)
    )


def vertex_score(g: DirectedWeightedGraph, node: int, sources, scale: float) -> float:
    """The focal kernel's score of node id ``node`` in ``g`` alone, over the
    source ids ``sources``."""
    return vertex_betweennesses([g], [node], [sources], [scale])[0]


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
