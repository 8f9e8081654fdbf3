"""Freeman centralities and group centralization on directed graphs.

Degree counts distinct incident arcs (in + out); betweenness accumulates
geodesic pair dependencies over unweighted directed shortest paths (arc
weights are ignored by both metrics). Betweenness uses Brandes' per-source
dependency accumulation; ``approx_betweenness`` runs the same accumulation
over a uniform sample of sources, scaled by n / sample_count, so a full
sample is bit-identical to the exact computation. Each returns its raw
scores as one float array indexed by node id, and ``centralization``
reduces such an array to the graph's one number.

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
``_predecessors``: dense products for graphs of at most
``DENSE_NODE_LIMIT`` nodes, sparse CSC products (``scipy.sparse``, loaded
only then) above. Path counts are integers in floats, so the two forms give
the same counts whatever their summation order, and the same scores bit for
bit, as long as every count and partial sum stays below 2**53. That holds on
every graph of at most 102 nodes: two nodes of an n-node graph have at most
3**((n - 2) / 3) geodesics, which is below 2**53 for n <= 102.

Both kernels take many graphs at once (``betweenness_centralities``,
``vertex_betweennesses``) and sweep the dense graphs of equal n and equal
source count as one (G x n x n) stack: one product per level for the whole
stack, and a backward pull over the stack's block-diagonal CSR arrays. A
graph above ``DENSE_NODE_LIMIT`` is a stack of one, and so is the graph of
a one-graph call. Each row of ratios and dependencies is still summed over
its own graph's n nodes, in the order of a graph swept alone, because
NumPy's pairwise sum groups a row by its length; so a stacked score is bit
for bit the score of its graph alone.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .errors import AnalysisError
from .graphs import DirectedWeightedGraph

DEGREE = "degree"
BETWEENNESS = "betweenness"

# Cap on stacked graphs x n x batch width: each (G x n x S) float array of the
# batched kernels stays within 2 MiB whatever the graph size.
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


def normalize(metric: str, raw: float, n: int) -> float:
    """Freeman's normalized score of one node: degree over 2(n-1) for
    n >= 2, betweenness over (n-1)(n-2) for n >= 3, and 0.0 on graphs too
    small for the denominator."""
    if metric == DEGREE:
        return raw / (2.0 * (n - 1)) if n >= 2 else 0.0
    return raw / float((n - 1) * (n - 2)) if n >= 3 else 0.0


def degree_centrality(g: DirectedWeightedGraph) -> np.ndarray:
    """Raw degree of each node, indexed by node id: distinct in-arcs plus
    distinct out-arcs."""
    return (np.diff(g.indptr) + np.bincount(g.indices, minlength=g.n)).astype(float)


def vertex_degree(g: DirectedWeightedGraph, node: str) -> int:
    """``degree_centrality(g)[g.node_id(node)]``, read off the CSR arrays
    alone."""
    i = g.node_id(node)
    return int(g.indptr[i + 1] - g.indptr[i]) + int(np.count_nonzero(g.indices == i))


class PathCountOverflow(AnalysisError):
    """Shortest-path counts beyond the float range. ``graph`` is the
    position, among the graphs a kernel was given, of the graph whose counts
    overflowed."""

    def __init__(self, message: str = _PATH_COUNT_OVERFLOW, graph: int = 0) -> None:
        super().__init__(message)
        self.graph = graph


def _stacks(graphs: Sequence[DirectedWeightedGraph], widths: Sequence[int]) -> list[list[int]]:
    """The positions of ``graphs`` in stacks, in order of first appearance:
    graphs of at most ``DENSE_NODE_LIMIT`` nodes with equal n and equal
    source count (``widths``) share a stack; a larger graph is a stack of
    one."""
    stacks: list[list[int]] = []
    dense: dict[tuple[int, int], list[int]] = {}
    for position, (g, width) in enumerate(zip(graphs, widths)):
        if g.n > DENSE_NODE_LIMIT:
            stacks.append([position])
            continue
        stack = dense.get((g.n, width))
        if stack is None:
            stack = dense[g.n, width] = []
            stacks.append(stack)
        stack.append(position)
    return stacks


def _source_rows(stack: Sequence[DirectedWeightedGraph], sources) -> np.ndarray:
    """The (G x S) ids of each stacked graph's sources."""
    n = stack[0].n
    if all(s is g.nodes for g, s in zip(stack, sources)):
        # every node, the exact computation: no lookups
        return np.broadcast_to(np.arange(n), (len(stack), n))
    return np.array([[g.node_id(v) for v in s] for g, s in zip(stack, sources)], dtype=np.int64)


def _predecessors(stack: Sequence[DirectedWeightedGraph]):
    """The product with the stack's n x n predecessor matrices that
    ``_path_counts`` sweeps, taking (G x n x S) arrays: dense products over
    a (G x n x n) array for graphs of at most ``DENSE_NODE_LIMIT`` nodes,
    else (a stack of one) a sparse matrix in CSC form over the graph's own
    CSR arrays (the transpose of the 0/1 successor matrix), which sums each
    node's predecessors in ascending order."""
    n = stack[0].n
    if n <= DENSE_NODE_LIMIT:
        pred = np.zeros((len(stack), n, n))
        graph = np.repeat(np.arange(len(stack)), [g.m for g in stack])
        pred[
            graph,
            np.concatenate([g.indices for g in stack]),
            np.concatenate([g.arc_sources() for g in stack]),
        ] = 1.0
        return pred.__matmul__
    from scipy.sparse import csc_matrix

    (g,) = stack
    pred = csc_matrix((np.ones(g.m), g.indices, g.indptr), shape=(n, n))
    return lambda frontier: (pred @ frontier[0])[None]


def _path_counts(product, n: int, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Level-synchronous BFS in each graph of a stack from each node of its
    row of ``columns`` (G x S) at once.

    ``product`` multiplies (G x n x S) arrays by the graphs' predecessor
    matrices (``_predecessors``). Returns sigma and dist, (G x n x S) arrays
    whose column j of graph k holds the shortest-path counts and hop
    distances from ``columns[k, j]`` (dist 0: the source itself, or
    unreached, where sigma is 0), and the depth of the deepest level. Each
    level is one product pred @ frontier, which sums the path counts of a
    node's predecessors on the previous level. A graph whose levels end
    earlier than the others' gets empty levels, which change nothing.
    """
    stacked, width = columns.shape
    sigma = np.zeros((stacked, n, width))
    sigma[np.arange(stacked)[:, None], columns, np.arange(width)] = 1.0
    dist = np.zeros((stacked, n, width), dtype=np.int32)
    frontier = sigma
    depth = 0
    while True:
        paths = product(frontier)
        paths[sigma > 0.0] = 0.0
        reached = paths > 0.0
        if not reached.any():
            break
        depth += 1
        dist[reached] = depth
        sigma += paths
        frontier = paths
    finite = np.isfinite(sigma).reshape(stacked, -1).all(axis=1)
    if not finite.all():
        raise PathCountOverflow(graph=int(np.argmin(finite)))
    return sigma, dist, depth


def _block_diagonal(stack: Sequence[DirectedWeightedGraph]) -> tuple[np.ndarray, ...]:
    """CSR arrays (indptr, indices, arc sources) of the disjoint union of the
    stack's graphs, node i of graph k being node k * n + i: the graph's own
    arrays for a stack of one."""
    if len(stack) == 1:
        g = stack[0]
        return g.indptr, g.indices, g.arc_sources()
    n = stack[0].n
    offset = np.repeat(np.arange(0, len(stack) * n, n, dtype=np.int32), [g.m for g in stack])
    indices = np.concatenate([g.indices for g in stack]) + offset
    sources = np.concatenate([g.arc_sources() for g in stack]) + offset
    indptr = np.zeros(len(stack) * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=len(stack) * n), out=indptr[1:])
    return indptr, indices, sources


def _stacked_betweenness(
    stack: Sequence[DirectedWeightedGraph], rows: np.ndarray, scale: float, batch_cells: int
) -> np.ndarray:
    # Brandes (2001) over a batch of S sources of each graph at once. Node i
    # of graph k is stack[k].nodes[i]; sigma, dist and delta are (G * n x S)
    # arrays, row k * n + i for that node, column j for source rows[k, j].
    # Backward, each cell (i, j) on a level pulls sum_c coef[c, j] over i's
    # successors c, with coef = (1 + delta) / sigma on the next level out,
    # which hands every parent its children's dependency.
    stacked, n = len(stack), stack[0].n
    product = _predecessors(stack)
    csr = _block_diagonal(stack)
    score = np.zeros(stacked * n)
    width = max(1, batch_cells // (stacked * n))
    for start in range(0, rows.shape[1], width):
        sigma, dist, depth = _path_counts(product, n, rows[:, start:start + width])
        sigma = sigma.reshape(stacked * n, -1)
        dist = dist.reshape(stacked * n, -1)
        # Level 1 hands its dependency only to the sources, whose dependency
        # on themselves is not a pair, so the sweep stops above it.
        delta = np.zeros_like(sigma)
        for level in range(depth, 1, -1):
            coef = np.zeros_like(sigma)
            np.divide(1.0 + delta, sigma, out=coef, where=dist == level)
            parents = dist == level - 1
            sums = _successor_sums(*csr, np.flatnonzero(parents), coef)
            np.multiply(sigma, sums, out=delta, where=parents)
        # Sequential sum over the columns, in sorted source order.
        score = np.add.accumulate(np.column_stack((score, delta * scale)), axis=1)[:, -1]
    return score.reshape(stacked, n)


def _batched_betweenness(
    g: DirectedWeightedGraph,
    sources: Sequence[str],
    scale: float,
    batch_cells: int = BATCH_CELLS,
) -> np.ndarray:
    """Brandes scores of every node of ``g`` over ``sources`` (sorted),
    times ``scale``: the Brandes kernel on a stack of one."""
    return _stacked_betweenness([g], _source_rows([g], [sources]), scale, batch_cells)[0]


def _successor_sums(
    indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, cells: np.ndarray,
    coef: np.ndarray,
) -> np.ndarray:
    """An (n x S) array that holds, at each flat index c = i * S + j of
    ``cells``, the sum of coef[k, j] over the successors k of node i in the
    CSR arrays ``indptr``, ``indices`` and arc ``sources``, taken in CSR
    order and starting from 0.0, and 0.0 elsewhere. At ``cells`` it equals
    ``succ @ coef`` for the 0/1 successor matrix succ, bit for bit:
    ``np.bincount`` adds its weights in input order, as a CSR row product
    does. ``np.add.reduceat`` would not (it adds runs of eight or more with
    unrolled partial sums)."""
    width = coef.shape[1]
    parent = cells // width
    counts = np.diff(indptr)[parent]
    first = np.cumsum(counts) - counts
    # Each (cell, successor) pair: its arc's position in indices, and the
    # cell it adds into. coef[k, j] lies (k - i) * S after the cell (i, j).
    arc = np.arange(counts.sum()) + np.repeat(indptr[parent] - first, counts)
    target = np.repeat(cells, counts)
    shift = (indices - sources) * width
    sums = np.bincount(target, weights=coef.ravel()[target + shift[arc]], minlength=coef.size)
    return sums.reshape(coef.shape)


def _stacked_kernel(kernel, graphs, widths, *per_graph):
    """``kernel(stack, *args)`` on each stack of ``graphs``, with each
    argument of ``per_graph`` cut to the stack's graphs; the results in the
    order of ``graphs``. An overflow names its graph's position in
    ``graphs``."""
    results: list = [None] * len(graphs)
    for positions in _stacks(graphs, widths):
        stack = [graphs[p] for p in positions]
        try:
            scores = kernel(stack, *([values[p] for p in positions] for values in per_graph))
        except PathCountOverflow as exc:
            raise PathCountOverflow(graph=positions[exc.graph]) from None
        for p, score in zip(positions, scores):
            results[p] = score
    return results


def betweenness_centralities(graphs: Sequence[DirectedWeightedGraph]) -> list[np.ndarray]:
    """``betweenness_centrality`` of each graph, the dense graphs of equal n
    swept as one stack. Each score is bit for bit that graph's alone."""
    return _stacked_kernel(
        lambda stack: list(_stacked_betweenness(
            stack, _source_rows(stack, [g.nodes for g in stack]), 1.0, BATCH_CELLS
        )),
        graphs, [g.n for g in graphs],
    )


def betweenness_centrality(g: DirectedWeightedGraph) -> np.ndarray:
    """Exact directed betweenness of each node, indexed by node id: the sum
    over ordered pairs s != t != v of sigma_st(v) / sigma_st on hop-count
    shortest paths. Unreachable pairs contribute zero."""
    return betweenness_centralities([g])[0]


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


def approx_betweenness(g: DirectedWeightedGraph, sample_count: int, seed: int) -> np.ndarray:
    """Source-sampled betweenness estimate of each node, indexed by node id,
    unbiased via the n/k scaling.

    sample_count = n degenerates to the exact computation, bit for bit.
    """
    sources, scale = sample_sources(g, sample_count, seed)
    return _batched_betweenness(g, sources, scale)


def _stacked_vertex_betweenness(
    stack: Sequence[DirectedWeightedGraph],
    nodes: Sequence[str],
    sources: Sequence[Sequence[str]],
    scales: Sequence[float],
    batch_cells: int,
) -> list[float]:
    stacked, n = len(stack), stack[0].n
    graph = np.arange(stacked)
    v = np.array([g.node_id(node) for g, node in zip(stack, nodes)], dtype=np.int64)
    rows = _source_rows(stack, sources)
    product = _predecessors(stack)
    score = np.zeros(stacked)
    # Each batch carries one more column, the BFS from v.
    width = max(1, batch_cells // (stacked * n))
    for start in range(0, rows.shape[1], width):
        batch = rows[:, start:start + width]
        sigma, dist, _depth = _path_counts(product, n, np.column_stack((batch, v)))
        sigma_v = sigma[:, :, -1]
        # Hops v -> t, and -n where t is v or unreached from v: no d(s, t)
        # matches d(s, v) plus that.
        after = np.where(sigma_v > 0.0, dist[:, :, -1], -n)
        after[graph, v] = -n
        sigma_sv = np.where(batch == v[:, None], 0.0, sigma[graph, v, :-1])
        on_path = dist[:, :, :-1] == dist[graph, v, :-1][:, None, :] + after[:, :, None]
        # Sources as rows: each row's sum runs over its graph's n targets in
        # one fixed order, whatever the batch width or the stack.
        ratios = np.zeros((stacked, batch.shape[1], n))
        np.divide(
            sigma_v[:, None, :], sigma[:, :, :-1].transpose(0, 2, 1), out=ratios,
            where=on_path.transpose(0, 2, 1),
        )
        dependency = ratios.sum(axis=2) * sigma_sv * np.array(scales)[:, None]
        # Sequential sum over the sources, in sorted source order.
        score = np.add.accumulate(np.column_stack((score, dependency)), axis=1)[:, -1]
    return score.tolist()


def vertex_betweennesses(
    graphs: Sequence[DirectedWeightedGraph],
    nodes: Sequence[str],
    sources: Sequence[Sequence[str]],
    scales: Sequence[float],
    batch_cells: int = BATCH_CELLS,
) -> list[float]:
    """``vertex_betweenness`` of ``nodes[k]`` in ``graphs[k]`` over
    ``sources[k]`` at ``scales[k]``, for every k; the dense graphs of equal
    n and source count are swept as one stack. Each score is bit for bit
    that graph's alone."""
    return _stacked_kernel(
        lambda stack, *args: _stacked_vertex_betweenness(stack, *args, batch_cells),
        graphs, [len(s) for s in sources], nodes, sources, scales,
    )


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
    return vertex_betweennesses([g], [node], [sources], [scale], batch_cells)[0]


def centralization(metric: str, raw: np.ndarray) -> float:
    """Freeman group centralization of ``metric`` from the raw scores of
    every node of a graph.

    Each score is normalized with ``normalize``; sum(c* - c_i) over the
    graph, in node order, is divided by (n-1) for betweenness and (n-2) for
    degree: the constants that put the bidirectional star at exactly 1 and
    any equal-score graph at exactly 0.
    """
    n = len(raw)
    if n < 3:
        raise AnalysisError(f"centralization undefined for n={n} (need n >= 3)")
    scores = [normalize(metric, score, n) for score in raw.tolist()]
    c_star = max(scores)
    spread = sum(c_star - c for c in scores)
    denom = float(n - 1) if metric == BETWEENNESS else float(n - 2)
    return spread / denom
