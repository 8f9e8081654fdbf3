"""Freeman centralities and group centralization on directed graphs.

Degree counts distinct incident arcs (in + out); betweenness accumulates
geodesic pair dependencies over unweighted directed shortest paths (arc
weights are ignored by both metrics). Betweenness uses Brandes' per-source
dependency accumulation; ``approx_betweenness`` runs the same accumulation
over a uniform sample of sources, scaled by n / sample_count, so a full
sample is bit-identical to the exact computation.

The accumulation runs level-synchronously over a batch of sources at once,
in the matrix form of Kepner & Gilbert (Graph Algorithms in the Language of
Linear Algebra, 2011): the forward sweep is one matrix product per BFS level.
The backward step pulls: each (node, source) cell on a level sums its
successors' coefficients in CSR order, starting from 0.0, the order of a
product with the CSR successor matrix, with NumPy alone. Per-source
dependencies are added into the score in sorted source order, so results
never depend on the batch width.

``vertex_betweenness`` scores one node v without back-propagation: a single
forward sweep from the sources, plus one BFS column from v, gives every
d(s, t) and sigma_st, and v's score is the sum of sigma_sv sigma_vt /
sigma_st over the pairs with d(s, v) + d(v, t) = d(s, t). It sums the pairs
in another order than Brandes' accumulation, so the two agree to a few
units in the last place, not bitwise.

The Brandes accumulation and ``vertex_betweenness`` share one forward
sweep, ``_path_counts``, and one choice of predecessor matrix,
``_predecessor_matrix``: dense products for graphs of at most
``DENSE_NODE_LIMIT`` nodes, sparse CSC products (``scipy.sparse``, loaded
only then) above. Path counts are integers in floats, so the two forms give
the same counts whatever their summation order, and the same scores bit for
bit, as long as every count and partial sum stays below 2**53. That holds on
every graph of at most 102 nodes: two nodes of an n-node graph have at most
3**((n - 2) / 3) geodesics, which is below 2**53 for n <= 102.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError
from .graphs import DirectedWeightedGraph

DEGREE = "degree"
BETWEENNESS = "betweenness"

# Cap on n x batch width: each (n x S) float array of the batched kernel stays
# within 2 MiB whatever the graph size.
BATCH_CELLS = 1 << 18
# Largest graph whose forward sweep runs as dense products, with no SciPy.
# On a 2-vCPU x86-64 VM, dense sweeps took the focal word's score on 783
# word graphs of 6-40 nodes from 63 to 44 ms, and on 93 graphs of 66-122
# nodes cost 42 ms against the sparse sweep's 38; a run whose graphs all stay
# within the cap never imports scipy.sparse.
DENSE_NODE_LIMIT = 128

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


def _source_ids(g: DirectedWeightedGraph, sources: Sequence[str]) -> np.ndarray:
    if sources is g.nodes:  # every node, the exact computation: no lookups
        return np.arange(g.n)
    return np.fromiter(map(g.node_id, sources), dtype=np.int64, count=len(sources))


def _predecessor_matrix(g: DirectedWeightedGraph):
    """The n x n predecessor matrix that ``_path_counts`` sweeps: a dense
    array for graphs of at most ``DENSE_NODE_LIMIT`` nodes, else a sparse
    matrix in CSC form over the graph's own CSR arrays (the transpose of the
    0/1 successor matrix), which sums each node's predecessors in ascending
    order."""
    n = g.n
    if n <= DENSE_NODE_LIMIT:
        pred = np.zeros((n, n))
        pred[g.indices, g.arc_sources()] = 1.0
        return pred
    from scipy.sparse import csc_matrix

    return csc_matrix((np.ones(g.m), g.indices, g.indptr), shape=(n, n))


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
    # Backward, each cell (i, j) on a level pulls sum_k coef[k, j] over i's
    # successors k, with coef = (1 + delta) / sigma on the next level out,
    # which hands every parent its children's dependency.
    n = g.n
    pred = _predecessor_matrix(g)
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
            parents = dist == level - 1
            sums = _successor_sums(g, np.flatnonzero(parents), coef)
            np.multiply(sigma, sums, out=delta, where=parents)
        # Sequential sum over the columns, in sorted source order.
        score = np.add.accumulate(np.column_stack((score, delta * scale)), axis=1)[:, -1]
    return dict(zip(g.nodes, score.tolist()))


def _successor_sums(g: DirectedWeightedGraph, cells: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """An (n x S) array that holds, at each flat index c = i * S + j of
    ``cells``, the sum of coef[k, j] over the successors k of node i, taken
    in CSR order and starting from 0.0, and 0.0 elsewhere. At ``cells`` it
    equals ``succ @ coef`` for the 0/1 successor matrix succ, bit for bit:
    ``np.bincount`` adds its weights in input order, as a CSR row product
    does. ``np.add.reduceat`` would not (it adds runs of eight or more with
    unrolled partial sums)."""
    width = coef.shape[1]
    parent = cells // width
    counts = np.diff(g.indptr)[parent]
    first = np.cumsum(counts) - counts
    # Each (cell, successor) pair: its arc's position in g.indices, and the
    # cell it adds into. coef[k, j] lies (k - i) * S after the cell (i, j).
    arc = np.arange(counts.sum()) + np.repeat(g.indptr[parent] - first, counts)
    target = np.repeat(cells, counts)
    shift = (g.indices - g.arc_sources()) * width
    sums = np.bincount(target, weights=coef.ravel()[target + shift[arc]], minlength=coef.size)
    return sums.reshape(coef.shape)


def _betweenness_vector(g: DirectedWeightedGraph, raw: dict[str, float]) -> CentralityVector:
    normalized = {v: normalize(BETWEENNESS, score, g.n) for v, score in raw.items()}
    return CentralityVector(metric=BETWEENNESS, raw=raw, normalized=normalized, graph_n=g.n)


def betweenness_centrality(g: DirectedWeightedGraph) -> CentralityVector:
    """Exact directed betweenness: raw(v) = sum over ordered pairs s != t != v
    of sigma_st(v) / sigma_st on hop-count shortest paths. Unreachable pairs
    contribute zero. Normalized by (n-1)(n-2) for n >= 3."""
    raw = _batched_betweenness(g, g.nodes, 1.0)
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
    raw = _batched_betweenness(g, sources, scale)
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
    pred = _predecessor_matrix(g)
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
