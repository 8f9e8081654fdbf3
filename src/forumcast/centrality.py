"""Freeman centralities and group centralization on directed graphs.

Degree counts distinct incident arcs (in + out); betweenness accumulates
geodesic pair dependencies over unweighted directed shortest paths (arc
weights are ignored by both metrics). Betweenness uses Brandes' per-source
dependency accumulation; ``approx_betweenness`` runs the same accumulation
over a uniform sample of sources, scaled by n / sample_count, so a full
sample is bit-identical to the exact computation.

Two kernels compute the accumulation. Small jobs (sources x arcs below
``SCALAR_WORK_LIMIT``) run a per-source BFS over integer lists taken from
the graph's CSR arrays; larger ones run the same algorithm
level-synchronously over a batch of sources at once, as sparse-matrix
products over those arrays (Kepner & Gilbert, Graph Algorithms in the
Language of Linear Algebra, 2011). Both add per-source dependencies into the score in sorted source
order, and the batched kernel uses only CSR products, whose summation order
is fixed by the graph, so results never depend on the batch width.

``vertex_betweenness`` scores one node v without back-propagation: a single
forward sweep from the sources, plus one BFS column from v, gives every
d(s, t) and sigma_st, and v's score is the sum of sigma_sv sigma_vt /
sigma_st over the pairs with d(s, v) + d(v, t) = d(s, t). Graphs of at most
``DENSE_NODE_LIMIT`` nodes run that sweep as dense matrix products, larger
ones as the CSR products above. Path counts are exact integers in floats
(a graph of 64 nodes has far fewer than 2**53 geodesics between two nodes),
so both forms give the same counts whatever their summation order, and the
same score bit for bit. It sums the pairs in another order than Brandes'
accumulation, so the two agree to a few units in the last place, not
bitwise.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError
from .graphs import DirectedWeightedGraph

DEGREE = "degree"
BETWEENNESS = "betweenness"

# Below this many source x arc scans the batched kernel's fixed cost per call
# (two CSR matrices, a few array passes per BFS level; ~0.2 ms) exceeds the
# scalar loop's whole run; the two broke even near 1000 on forum interaction
# and word graphs.
SCALAR_WORK_LIMIT = 1000
# Cap on n x batch width: each (n x S) float array of the batched kernel stays
# within 2 MiB whatever the graph size.
BATCH_CELLS = 1 << 18
# Largest graph whose forward sweep in vertex_betweenness runs as dense
# products. On a 2-vCPU x86-64 VM, dense sweeps took the focal word's score
# on 783 word graphs of 6-40 nodes from 63 to 44 ms; with the cap at 128,
# 93 graphs of 66-122 nodes went dense and took 42 ms instead of 38.
DENSE_NODE_LIMIT = 64

_PATH_COUNT_OVERFLOW = (
    "shortest-path counts exceed the float range; betweenness cannot be computed"
)


@dataclass(frozen=True)
class CentralityVector:
    metric: str
    raw: Mapping[str, float]
    normalized: Mapping[str, float]
    graph_n: int


@dataclass(frozen=True)
class CentralizationScore:
    metric: str
    value: float


def normalize(metric: str, raw: float, n: int) -> float:
    """Freeman's normalized score of one node: degree over 2(n-1) for
    n >= 2, betweenness over (n-1)(n-2) for n >= 3, and 0.0 on graphs too
    small for the denominator."""
    if metric == DEGREE:
        return raw / (2.0 * (n - 1)) if n >= 2 else 0.0
    return raw / float((n - 1) * (n - 2)) if n >= 3 else 0.0


def degree_centrality(g: DirectedWeightedGraph) -> CentralityVector:
    """raw(v) = distinct in-arcs + distinct out-arcs; normalized by 2(n-1)."""
    n = g.n
    degree = (np.diff(g.indptr) + np.bincount(g.indices, minlength=n)).astype(float)
    raw = dict(zip(g.nodes, degree.tolist()))
    normalized = {v: normalize(DEGREE, d, n) for v, d in raw.items()}
    return CentralityVector(metric=DEGREE, raw=raw, normalized=normalized, graph_n=n)


def vertex_degree(g: DirectedWeightedGraph, node: str) -> int:
    """``degree_centrality(g).raw[node]``, read off the CSR arrays alone."""
    i = g.node_id(node)
    return int(g.indptr[i + 1] - g.indptr[i]) + int(np.count_nonzero(g.indices == i))


def _scalar_betweenness(
    g: DirectedWeightedGraph, sources: Sequence[str], scale: float
) -> dict[str, float]:
    # Brandes (2001): one BFS + dependency back-propagation per source, over
    # node ids. Sources must arrive sorted; accumulation order is then fixed,
    # which makes exact and full-sample runs bit-identical.
    n = g.n
    indptr = g.indptr.tolist()
    indices = g.indices.tolist()
    score = [0.0] * n
    for s in map(g.node_id, sources):
        order: list[int] = []
        preds: dict[int, list[int]] = {}
        sigma = [0] * n
        dist = [-1] * n
        sigma[s] = 1
        dist[s] = 0
        queue: deque[int] = deque((s,))
        while queue:
            v = queue.popleft()
            order.append(v)
            next_dist = dist[v] + 1
            sigma_v = sigma[v]
            for w in indices[indptr[v]:indptr[v + 1]]:
                if dist[w] < 0:
                    dist[w] = next_dist
                    preds[w] = []
                    queue.append(w)
                if dist[w] == next_dist:
                    sigma[w] += sigma_v
                    preds[w].append(v)
        delta = [0.0] * n
        try:
            while order:
                w = order.pop()
                coefficient = (1.0 + delta[w]) / sigma[w]
                for v in preds.get(w, ()):
                    delta[v] += sigma[v] * coefficient
                if w != s:
                    score[w] += delta[w] * scale
        except OverflowError:
            raise AnalysisError(_PATH_COUNT_OVERFLOW) from None
    return dict(zip(g.nodes, score))


def _source_ids(g: DirectedWeightedGraph, sources: Sequence[str]) -> np.ndarray:
    if sources is g.nodes:  # every node, the exact computation: no lookups
        return np.arange(g.n)
    return np.fromiter(map(g.node_id, sources), dtype=np.int64, count=len(sources))


def _path_counts(pred, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Level-synchronous BFS from each node of ``columns`` at once.

    ``pred`` is the predecessor matrix (dense or sparse, n x n). Returns
    sigma and dist, (n x S) arrays whose column j holds the shortest-path
    counts and hop distances from ``columns[j]`` (dist 0: the source itself,
    or unreached, where sigma is 0), and the depth of the deepest level.
    Each level is one product pred @ frontier, which sums the path counts of
    a node's predecessors on the previous level.
    """
    n = pred.shape[0]
    sigma = np.zeros((n, len(columns)))
    sigma[columns, np.arange(len(columns))] = 1.0
    dist = np.zeros((n, len(columns)), dtype=np.int32)
    frontier = sigma
    depth = 0
    while True:
        paths = pred @ frontier
        paths[sigma > 0.0] = 0.0
        reached = paths > 0.0
        if not reached.any():
            break
        depth += 1
        dist[reached] = depth
        sigma += paths
        frontier = paths
    if not np.isfinite(sigma).all():
        raise AnalysisError(_PATH_COUNT_OVERFLOW)
    return sigma, dist, depth


def _batched_betweenness(
    g: DirectedWeightedGraph,
    sources: Sequence[str],
    scale: float,
    batch_cells: int = BATCH_CELLS,
) -> dict[str, float]:
    # Brandes (2001) over a batch of S sources at once. Node i is g.nodes[i];
    # sigma, dist and delta are (n x S) arrays, column j for source batch[j].
    # Backward, each level is one product succ @ coef with coef =
    # (1 + delta) / sigma on that level, which hands every parent its
    # children's dependency.
    n = g.n
    succ = g.adjacency_matrix()
    pred = succ.T
    rows = _source_ids(g, sources)
    score = np.zeros(n)
    width = max(1, batch_cells // n)
    for start in range(0, len(rows), width):
        sigma, dist, depth = _path_counts(pred, rows[start:start + width])
        # Level 1 hands its dependency only to the sources, whose dependency
        # on themselves is not a pair, so the sweep stops above it.
        delta = np.zeros_like(sigma)
        for level in range(depth, 1, -1):
            coef = np.zeros_like(sigma)
            np.divide(1.0 + delta, sigma, out=coef, where=dist == level)
            np.multiply(sigma, succ @ coef, out=delta, where=dist == level - 1)
        # Sequential sum over the columns: the scalar loop's source order.
        score = np.add.accumulate(np.column_stack((score, delta * scale)), axis=1)[:, -1]
    return dict(zip(g.nodes, score.tolist()))


def _accumulate_betweenness(
    g: DirectedWeightedGraph, sources: Sequence[str], scale: float
) -> dict[str, float]:
    if len(sources) * g.m < SCALAR_WORK_LIMIT:
        return _scalar_betweenness(g, sources, scale)
    return _batched_betweenness(g, sources, scale)


def _betweenness_vector(g: DirectedWeightedGraph, raw: dict[str, float]) -> CentralityVector:
    normalized = {v: normalize(BETWEENNESS, score, g.n) for v, score in raw.items()}
    return CentralityVector(metric=BETWEENNESS, raw=raw, normalized=normalized, graph_n=g.n)


def betweenness_centrality(g: DirectedWeightedGraph) -> CentralityVector:
    """Exact directed betweenness: raw(v) = sum over ordered pairs s != t != v
    of sigma_st(v) / sigma_st on hop-count shortest paths. Unreachable pairs
    contribute zero. Normalized by (n-1)(n-2) for n >= 3."""
    raw = _accumulate_betweenness(g, g.nodes, 1.0)
    return _betweenness_vector(g, raw)


def sample_sources(
    g: DirectedWeightedGraph, sample_count: int, seed: int
) -> tuple[Sequence[str], float]:
    """The sorted uniform source sample of sampled betweenness and its
    n / sample_count scale. A full sample is ``g.nodes`` at scale 1.0, the
    sources and scale of the exact computation."""
    n = g.n
    if not 1 <= sample_count <= n:
        raise AnalysisError(f"sample_count must be in [1, {n}], got {sample_count}")
    if sample_count == n:
        return g.nodes, 1.0
    rng = random.Random(seed)
    return sorted(rng.sample(g.nodes, sample_count)), n / sample_count


def approx_betweenness(
    g: DirectedWeightedGraph, sample_count: int, seed: int
) -> CentralityVector:
    """Source-sampled betweenness estimate, unbiased via the n/k scaling.

    sample_count = n degenerates to the exact computation, bit for bit.
    """
    sources, scale = sample_sources(g, sample_count, seed)
    raw = _accumulate_betweenness(g, sources, scale)
    return _betweenness_vector(g, raw)


def vertex_betweenness(
    g: DirectedWeightedGraph,
    node: str,
    sources: Sequence[str],
    scale: float,
    batch_cells: int = BATCH_CELLS,
) -> float:
    """Raw betweenness of ``node`` alone: ``scale`` times the sum over s in
    ``sources`` (sorted) and every target t, both other than ``node`` and
    each other, of sigma_st(node) / sigma_st.

    It equals the Brandes score of ``node`` for the same sources and scale
    to a few units in the last place. With ``sources = g.nodes`` and scale
    1.0 it is the exact score; with ``sample_sources`` it is the sampled one.
    """
    n = g.n
    v = g.node_id(node)
    if n <= DENSE_NODE_LIMIT:
        pred = np.zeros((n, n))
        pred[g.indices, g.arc_sources()] = 1.0
    else:
        pred = g.adjacency_matrix().T
    rows = _source_ids(g, sources)
    score = 0.0
    # Each batch carries one more column, the BFS from v.
    width = max(1, batch_cells // n)
    for start in range(0, len(rows), width):
        batch = rows[start:start + width]
        sigma, dist, _depth = _path_counts(pred, np.append(batch, v))
        sigma_v = sigma[:, -1]
        # Hops v -> t, and -n where t is v or unreached from v: no d(s, t)
        # matches d(s, v) plus that.
        after = np.where(sigma_v > 0.0, dist[:, -1], -n)
        after[v] = -n
        sigma_sv = np.where(batch == v, 0.0, sigma[v, :-1])
        on_path = dist[:, :-1] == dist[v, :-1] + after[:, None]
        # Sources as rows: each row's sum runs over the targets in one fixed
        # order, whatever the batch width.
        ratios = np.zeros((len(batch), n))
        np.divide(sigma_v, sigma[:, :-1].T, out=ratios, where=on_path.T)
        for dependency in (ratios.sum(axis=1) * sigma_sv).tolist():
            score += dependency * scale
    return score


def centralization(cv: CentralityVector) -> CentralizationScore:
    """Freeman group centralization from normalized scores.

    sum(c* - c_i) over the graph, divided by (n-1) for betweenness and
    (n-2) for degree: the constants that put the bidirectional star at
    exactly 1 and any equal-score graph at exactly 0.
    """
    n = cv.graph_n
    if n < 3:
        raise AnalysisError(f"centralization undefined for n={n} (need n >= 3)")
    scores = list(cv.normalized.values())
    c_star = max(scores)
    spread = sum(c_star - c for c in scores)
    denom = float(n - 1) if cv.metric == BETWEENNESS else float(n - 2)
    return CentralizationScore(metric=cv.metric, value=spread / denom)
