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
Linear Algebra, 2011). Its forward sweep records each BFS level as the
sorted flat indices of its (node, source) cells. The backward step walks
those levels and pulls: each cell on a level sums its successors'
coefficients in CSR order, starting from 0.0, the order of a product with
the CSR successor matrix, with NumPy alone, and touches no cell off the
level. Per-source dependencies are added into the score in sorted source
order, so results never depend on the batch width.

Nodes are ids here: a graph's node ``i`` is ``g.nodes[i]``, and the kernels
take their sources, and ``vertex_betweennesses`` its scored nodes, as ids;
only the caller ever looks a name up.

``vertex_betweennesses`` scores one node v of each graph without
back-propagation: a single forward sweep from the sources, plus one BFS
column from v, gives every d(s, t) and sigma_st, and v's score is the sum
of sigma_sv sigma_vt / sigma_st over the pairs with d(s, v) + d(v, t) =
d(s, t). It sums the pairs in another order than Brandes' accumulation, so
the two agree to a few units in the last place, not bitwise.

The Brandes accumulation and ``vertex_betweennesses`` share one forward
sweep, ``_path_counts``, of three kinds, which ``_predecessors`` picks once
per graph:

- dense: graphs of at most ``DENSE_NODE_LIMIT`` nodes, one dense product
  per level;
- light: a larger graph whose sweep's columns (sources, plus the focal
  column) times arcs are at most ``LIGHT_SWEEP_ARCS``. Each level pushes
  from its own cells alone (Beamer, Asanovic & Patterson, SC 2012; Yang,
  Buluc & Owens, ICPP 2018): its out-arcs, in the order of its cells, go
  into one ``np.bincount``, which sums each new cell's predecessors in
  ascending order from 0.0, the order of the CSC product, bit for bit;
- heavy: the other large graphs, one sparse CSC product per level
  (``scipy.sparse``, loaded only when a heavy sweep starts).

Path counts are integers in floats, so the dense and the other forms give
the same counts whatever their summation order, and the same scores bit for
bit, as long as every count and partial sum stays below 2**53. That holds on
every graph of at most 102 nodes: two nodes of an n-node graph have at most
3**((n - 2) / 3) geodesics, which is below 2**53 for n <= 102.

Both kernels take many graphs at once (``betweenness_centralities``,
``vertex_betweennesses``) and sweep the dense graphs of equal n and equal
source count as one (G x n x n) stack: one product per level for the whole
stack, and a backward pull over the stack's block-diagonal CSR arrays. A
graph above ``DENSE_NODE_LIMIT`` is a stack of one, and so is the graph of
a one-graph call (``betweenness_centrality``, ``approx_betweenness``). Each
row of ratios and dependencies is still summed over its own graph's n
nodes, in the order of a graph swept alone, because NumPy's pairwise sum
groups a row by its length; so a stacked score is bit for bit the score of
its graph alone.
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
# Largest graph whose forward sweep runs as dense products. On a 2-vCPU
# x86-64 VM, dense sweeps took the focal word's score on 783 word graphs of
# 6-40 nodes from 63 to 44 ms, and on 93 graphs of 66-122 nodes cost 42 ms
# against the sparse sweep's 38. Neither a dense nor a light sweep needs
# SciPy: a run with no heavy sweep never imports scipy.sparse.
DENSE_NODE_LIMIT = 128
# Largest light sweep above the dense cap, in columns x arcs of its graph:
# one that pushes from each BFS level's cells instead of running a CSC
# product per level. On a 2-vCPU VM, a 9-column sweep of a 1.9k-node,
# 38k-arc word graph took 4.3 ms pushed against 1.8 ms as CSC products, but
# needs no SciPy (+22 MB and about 0.2 s per process), and exact Brandes on
# a 440-node, 380-arc reply graph took 3-4 ms instead of 15-22. A pushed
# 64-column batch on a 4k-node, 75k-arc graph took 67 ms against 17 ms.
LIGHT_SWEEP_ARCS = 1 << 19

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


def _predecessors(stack: Sequence[DirectedWeightedGraph], columns: int):
    """The product with the stack's n x n predecessor matrices that
    ``_path_counts`` sweeps, taking (G x n x S) arrays, for a sweep of
    ``columns`` columns in all: dense products over a (G x n x n) array for
    graphs of at most ``DENSE_NODE_LIMIT`` nodes; else (a stack of one)
    None for a light sweep, ``columns`` x m at most ``LIGHT_SWEEP_ARCS``,
    which pushes from each level's cells instead; else a sparse matrix in CSC
    form over the graph's own CSR arrays (the transpose of the 0/1 successor
    matrix), which sums each node's predecessors in ascending order."""
    n = stack[0].n
    if n <= DENSE_NODE_LIMIT:
        pred = np.zeros((len(stack), n, n))
        graph = np.repeat(np.arange(len(stack)), [g.m for g in stack])
        pred[
            graph,
            np.concatenate([g.indices for g in stack]),
            np.concatenate([g.sources for g in stack]),
        ] = 1.0
        return pred.__matmul__
    (g,) = stack
    if columns * g.m <= LIGHT_SWEEP_ARCS:
        return None
    from scipy.sparse import csc_matrix

    pred = csc_matrix((np.ones(g.m), g.indices, g.indptr), shape=(n, n))
    return lambda frontier: (pred @ frontier[0])[None]


def _arc_heads(
    indptr: np.ndarray, heads: np.ndarray, cells: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each arc out of the node of each flat cell c = i * S + j of
    ``cells`` (S = ``width``), over CSR arrays ``indptr`` and ``heads``, the
    column-0 cell k * S of each arc i -> k: the arc count of each cell, and
    the cell (k, j) at the head of each arc, cell by cell in the order of
    ``cells`` and in CSR order within a cell."""
    node, column = np.divmod(cells, width)
    start = indptr[node]
    counts = indptr[node + 1] - start
    first = np.cumsum(counts) - counts
    arc = np.repeat(start - first, counts)
    arc += np.arange(arc.size)
    cell_heads = np.repeat(column, counts)
    cell_heads += heads[arc]
    return counts, cell_heads


def _push(
    indptr: np.ndarray, heads: np.ndarray, sigma: np.ndarray, cells: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The BFS level after ``cells``, the sorted flat cells of a level of
    the flat (n * S) path counts ``sigma``, over the graph's arcs as in
    ``_arc_heads``: its cells, sorted, and their path counts. Every arc out
    of the level adds its tail's count into its head, in one
    ``np.bincount`` whose weights run in the order of ``cells``; so each
    head sums its predecessors on the level in ascending order from 0.0,
    the order of the CSC product, bit for bit. A thin level groups its
    heads by sorting them; a thick one counts into all n * S cells (on a
    2-vCPU VM, the two cost the same at heads about n * S / 4 to n * S / 8)."""
    counts, cell_heads = _arc_heads(indptr, heads, cells, width)
    weights = np.repeat(sigma[cells], counts)
    if cell_heads.size * 8 < sigma.size:
        cell_heads, group = np.unique(cell_heads, return_inverse=True)
        paths = np.bincount(group, weights=weights, minlength=cell_heads.size)
    else:
        paths = np.bincount(cell_heads, weights=weights, minlength=sigma.size)
        cell_heads = np.flatnonzero(paths)
        paths = paths[cell_heads]
    fresh = sigma[cell_heads] == 0.0
    return cell_heads[fresh], paths[fresh]


def _path_counts(
    product,
    stack: Sequence[DirectedWeightedGraph],
    columns: np.ndarray,
    levels: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS in each graph of a stack from each node of its
    row of ``columns`` (G x S) at once.

    ``product`` multiplies (G x n x S) arrays by the graphs' predecessor
    matrices, or is None for a light sweep (``_predecessors``). Returns
    sigma and dist, (G x n x S) arrays whose column j of graph k holds the
    shortest-path counts and hop distances from ``columns[k, j]`` (dist 0:
    the source itself, or unreached, where sigma is 0). Each level sums the
    path counts of a node's predecessors on the previous level: one product
    pred @ frontier, whose unvisited positive cells are the level, or for a
    light sweep a push from the previous level's cells alone (``_push``). A
    graph whose levels end earlier than the others' gets empty levels, which
    change nothing. Given a list ``levels``, the sweep appends each level's
    cells to it as sorted flat indices into sigma and dist, level 0 the
    sources.
    """
    stacked, width = columns.shape
    n = stack[0].n
    cells = np.sort(
        ((np.arange(stacked)[:, None] * n + columns) * width + np.arange(width)).ravel()
    )
    sigma = np.zeros(stacked * n * width)
    sigma[cells] = 1.0
    dist = np.zeros(stacked * n * width, dtype=np.int32)
    if product is None:
        (g,) = stack
        heads = g.indices * np.int64(width)
    frontier = sigma
    depth = 0
    while True:
        if levels is not None:
            levels.append(cells)
        depth += 1
        if product is None:
            cells, paths = _push(g.indptr, heads, sigma, cells, width)
            if not cells.size:
                break
            sigma[cells] = paths
            dist[cells] = depth
        else:
            frontier = product(frontier.reshape(stacked, n, width)).ravel()
            frontier[sigma > 0.0] = 0.0
            reached = frontier > 0.0
            if not reached.any():
                break
            dist[reached] = depth
            sigma += frontier
            if levels is not None:
                cells = np.flatnonzero(reached)
    finite = np.isfinite(sigma).reshape(stacked, -1).all(axis=1)
    if not finite.all():
        raise PathCountOverflow(graph=int(np.argmin(finite)))
    return sigma.reshape(stacked, n, width), dist.reshape(stacked, n, width)


def _block_diagonal(stack: Sequence[DirectedWeightedGraph]) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices) of the disjoint union of the stack's
    graphs, node i of graph k being node k * n + i: the graph's own arrays
    for a stack of one."""
    if len(stack) == 1:
        return stack[0].indptr, stack[0].indices
    n = stack[0].n
    offset = np.repeat(np.arange(0, len(stack) * n, n, dtype=np.int32), [g.m for g in stack])
    indices = np.concatenate([g.indices for g in stack]) + offset
    sources = np.concatenate([g.sources for g in stack]) + offset
    indptr = np.zeros(len(stack) * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=len(stack) * n), out=indptr[1:])
    return indptr, indices


def _stacked_betweenness(
    stack: Sequence[DirectedWeightedGraph], rows: np.ndarray, scale: float
) -> np.ndarray:
    # Brandes (2001) over a batch of S sources of each graph at once, the
    # (G x S) ids ``rows``. sigma, coef and delta are (G * n x S) arrays, row
    # k * n + i for node i of graph k, column j for source rows[k, j].
    # Backward, each cell (i, j) on a level pulls sum_c coef[c, j] over i's
    # successors c, with coef = (1 + delta) / sigma on the next level out,
    # which hands every parent its children's dependency. Only the levels'
    # cells are touched: the successors of a parent on level L - 1 lie on
    # level L, where coef is set, or nearer the sources, where it is still 0.
    stacked, n = len(stack), stack[0].n
    product = _predecessors(stack, rows.shape[1])
    indptr, indices = _block_diagonal(stack)
    score = np.zeros(stacked * n)
    width = max(1, BATCH_CELLS // (stacked * n))
    for start in range(0, rows.shape[1], width):
        levels: list[np.ndarray] = []
        sigma = _path_counts(product, stack, rows[:, start:start + width], levels)[0]
        sigma = sigma.reshape(stacked * n, -1)
        coef = np.zeros_like(sigma)
        delta = np.zeros_like(sigma)
        flat_sigma, flat_coef, flat_delta = sigma.ravel(), coef.ravel(), delta.ravel()
        # Level 1 hands its dependency only to the sources, whose dependency
        # on themselves is not a pair, so the sweep stops above it.
        for level in range(len(levels) - 1, 1, -1):
            cells, parents = levels[level], levels[level - 1]
            flat_coef[cells] = (1.0 + flat_delta[cells]) / flat_sigma[cells]
            sums = _successor_sums(indptr, indices, parents, coef)
            flat_delta[parents] = flat_sigma[parents] * sums
        # Sequential sum over the columns, in sorted source order.
        score = np.add.accumulate(np.column_stack((score, delta * scale)), axis=1)[:, -1]
    return score.reshape(stacked, n)


def _successor_sums(
    indptr: np.ndarray, indices: np.ndarray, cells: np.ndarray, coef: np.ndarray
) -> np.ndarray:
    """At each flat index c = i * S + j of ``cells`` into the (n x S) array
    ``coef``, the sum of coef[k, j] over the successors k of node i in the
    CSR arrays ``indptr`` and ``indices``, taken in CSR order and starting
    from 0.0. It equals ``(succ @ coef).ravel()[cells]`` for the 0/1
    successor matrix succ, bit for bit: ``np.bincount`` adds its weights in
    input order, as a CSR row product does. ``np.add.reduceat`` would not
    (it adds runs of eight or more with unrolled partial sums)."""
    width = coef.shape[1]
    counts, heads = _arc_heads(indptr, indices * np.int64(width), cells, width)
    return np.bincount(
        np.repeat(np.arange(cells.size), counts), weights=coef.ravel()[heads],
        minlength=cells.size,
    )


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
    """Exact directed betweenness of each node of each graph, indexed by node
    id: the sum over ordered pairs s != t != v of sigma_st(v) / sigma_st on
    hop-count shortest paths, unreachable pairs contributing zero. The dense
    graphs of equal n are swept as one stack, and each score is bit for bit
    that graph's alone."""
    return _stacked_kernel(
        lambda stack: list(_stacked_betweenness(
            stack, np.broadcast_to(np.arange(stack[0].n), (len(stack), stack[0].n)), 1.0
        )),
        graphs, [g.n for g in graphs],
    )


def betweenness_centrality(g: DirectedWeightedGraph) -> np.ndarray:
    """``betweenness_centralities`` of one graph."""
    return betweenness_centralities([g])[0]


def sample_sources(
    g: DirectedWeightedGraph, sample_count: int, seed: int
) -> tuple[np.ndarray, float]:
    """The ids of sampled betweenness's uniform source sample, ascending,
    and its n / sample_count scale. ``random.Random(seed).sample`` over
    ``range(n)`` picks the positions it would pick from ``g.nodes``, so the
    ids name the nodes that a draw of names picks. A full sample is every id
    at scale 1.0, the sources and scale of the exact computation."""
    n = g.n
    if not 1 <= sample_count <= n:
        raise AnalysisError(f"sample_count must be in [1, {n}], got {sample_count}")
    if sample_count == n:
        return np.arange(n), 1.0
    rng = random.Random(seed)
    return np.array(sorted(rng.sample(range(n), sample_count))), n / sample_count


def approx_betweenness(g: DirectedWeightedGraph, sample_count: int, seed: int) -> np.ndarray:
    """Source-sampled betweenness estimate of each node, indexed by node id,
    unbiased via the n/k scaling.

    sample_count = n degenerates to the exact computation, bit for bit.
    """
    sources, scale = sample_sources(g, sample_count, seed)
    return _stacked_betweenness([g], sources[None], scale)[0]


def _stacked_vertex_betweenness(
    stack: Sequence[DirectedWeightedGraph],
    nodes: Sequence[int],
    sources: Sequence[Sequence[int]],
    scales: Sequence[float],
) -> list[float]:
    stacked, n = len(stack), stack[0].n
    graph = np.arange(stacked)
    v = np.array(nodes, dtype=np.int64)
    rows = np.array(sources, dtype=np.int64)
    product = _predecessors(stack, rows.shape[1] + 1)  # and the column from v
    score = np.zeros(stacked)
    # Each batch carries one more column, the BFS from v.
    width = max(1, BATCH_CELLS // (stacked * n))
    for start in range(0, rows.shape[1], width):
        batch = rows[:, start:start + width]
        sigma, dist = _path_counts(product, stack, np.column_stack((batch, v)))
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
    nodes: Sequence[int],
    sources: Sequence[Sequence[int]],
    scales: Sequence[float],
) -> list[float]:
    """Raw betweenness of node id ``nodes[k]`` alone in ``graphs[k]``, for
    every k: ``scales[k]`` times the sum over the source ids s in
    ``sources[k]`` (ascending) and every target t, both other than the node
    and each other, of sigma_st(node) / sigma_st.

    Each equals the Brandes score of its node for the same sources and scale
    to a few units in the last place. With every id, ``np.arange(g.n)``, as
    sources and scale 1.0 it is the exact score; with ``sample_sources`` it
    is the sampled one. The dense graphs of equal n and source count are
    swept as one stack, and each score is bit for bit that graph's alone.
    """
    return _stacked_kernel(
        _stacked_vertex_betweenness, graphs, [len(s) for s in sources], nodes, sources, scales
    )


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
