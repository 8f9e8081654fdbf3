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


def degree_centrality(g: DirectedWeightedGraph) -> CentralityVector:
    """raw(v) = distinct in-arcs + distinct out-arcs; normalized by 2(n-1)."""
    n = g.n
    degree = (np.diff(g.indptr) + np.bincount(g.indices, minlength=n)).astype(float)
    raw = dict(zip(g.nodes, degree.tolist()))
    if n >= 2:
        normalized = dict(zip(g.nodes, (degree / (2.0 * (n - 1))).tolist()))
    else:
        normalized = {v: 0.0 for v in raw}
    return CentralityVector(metric=DEGREE, raw=raw, normalized=normalized, graph_n=n)


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


def _batched_betweenness(
    g: DirectedWeightedGraph,
    sources: Sequence[str],
    scale: float,
    batch_cells: int = BATCH_CELLS,
) -> dict[str, float]:
    # Brandes (2001) over a batch of S sources at once. Node i is g.nodes[i];
    # sigma, dist and delta are (n x S) arrays, column j for source batch[j].
    # Forward, each BFS level is one product pred @ frontier, which sums the
    # path counts of a node's predecessors on the previous level. Backward,
    # each level is one product succ @ coef with coef = (1 + delta) / sigma on
    # that level, which hands every parent its children's dependency.
    n = g.n
    succ, pred = g.adjacency_matrices()
    rows = np.fromiter(map(g.node_id, sources), dtype=np.int64, count=len(sources))
    score = np.zeros(n)
    width = max(1, batch_cells // n)
    for start in range(0, len(rows), width):
        batch = rows[start:start + width]
        sigma = np.zeros((n, len(batch)))
        sigma[batch, np.arange(len(batch))] = 1.0
        dist = np.zeros((n, len(batch)), dtype=np.int32)  # 0: source or unreached
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
        if np.isinf(sigma).any():
            raise AnalysisError(_PATH_COUNT_OVERFLOW)
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
    n = g.n
    if n >= 3:
        denom = float((n - 1) * (n - 2))
        normalized = {v: score / denom for v, score in raw.items()}
    else:
        normalized = {v: 0.0 for v in raw}
    return CentralityVector(metric=BETWEENNESS, raw=raw, normalized=normalized, graph_n=n)


def betweenness_centrality(g: DirectedWeightedGraph) -> CentralityVector:
    """Exact directed betweenness: raw(v) = sum over ordered pairs s != t != v
    of sigma_st(v) / sigma_st on hop-count shortest paths. Unreachable pairs
    contribute zero. Normalized by (n-1)(n-2) for n >= 3."""
    raw = _accumulate_betweenness(g, g.nodes, 1.0)
    return _betweenness_vector(g, raw)


def approx_betweenness(
    g: DirectedWeightedGraph, sample_count: int, seed: int
) -> CentralityVector:
    """Source-sampled betweenness estimate, unbiased via the n/k scaling.

    sample_count = n degenerates to the exact computation, bit for bit.
    """
    n = g.n
    if not 1 <= sample_count <= n:
        raise AnalysisError(f"sample_count must be in [1, {n}], got {sample_count}")
    if sample_count == n:
        sources: Sequence[str] = g.nodes
    else:
        rng = random.Random(seed)
        sources = sorted(rng.sample(g.nodes, sample_count))
    raw = _accumulate_betweenness(g, sources, n / sample_count)
    return _betweenness_vector(g, raw)


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
