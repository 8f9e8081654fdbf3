"""Independent brute-force reference implementations.

Nothing here imports the library's algorithm code paths beyond plain data
types. These are deliberately slow, direct translations of the definitions,
used to verify the real implementations on small instances.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np


def enumerate_shortest_paths(
    nodes: Sequence[str], arcs: Mapping[tuple[str, str], int], s: str, t: str
) -> list[list[str]]:
    """All geodesics s -> t by exhaustive DFS over hop-count distances."""
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    for (a, b) in arcs:
        succ[a].append(b)
    # BFS distances from s
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    if t not in dist:
        return []
    paths: list[list[str]] = []

    def extend(path: list[str]) -> None:
        v = path[-1]
        if v == t:
            paths.append(list(path))
            return
        for w in succ[v]:
            if w in dist and dist[w] == dist[v] + 1 and dist[w] <= dist[t]:
                path.append(w)
                extend(path)
                path.pop()

    extend([s])
    return [p for p in paths if len(p) - 1 == dist[t]]


def brute_force_betweenness(
    nodes: Sequence[str],
    arcs: Mapping[tuple[str, str], int],
    sources: Sequence[str] | None = None,
) -> dict[str, Fraction]:
    """raw(v) = sum over ordered s != t != v of (geodesics through v) / (all
    geodesics), with exact rational arithmetic; s runs over ``sources`` when
    given, else over every node."""
    score: dict[str, Fraction] = {v: Fraction(0) for v in nodes}
    for s in nodes if sources is None else sources:
        for t in nodes:
            if s == t:
                continue
            paths = enumerate_shortest_paths(nodes, arcs, s, t)
            if not paths:
                continue
            total = len(paths)
            through: Counter[str] = Counter()
            for path in paths:
                for v in path[1:-1]:
                    through[v] += 1
            for v, count in through.items():
                score[v] += Fraction(count, total)
    return score


def enumerate_cooccurrences(
    streams: Sequence[Sequence[str]], window: int
) -> tuple[Counter, int]:
    """(ordered distinct-word pair counts, identical-word pair count) by
    direct double loop."""
    pairs: Counter[tuple[str, str]] = Counter()
    identical = 0
    for stream in streams:
        for i in range(len(stream)):
            for j in range(i + 1, len(stream)):
                if j - i > window:
                    break
                if stream[i] == stream[j]:
                    identical += 1
                else:
                    pairs[(stream[i], stream[j])] += 1
    return pairs, identical


def normal_equations_ols(y: np.ndarray, design: np.ndarray) -> np.ndarray:
    """Solve (X'X) beta = X'y directly."""
    return np.linalg.solve(design.T @ design, design.T @ y)


def textbook_pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """r from the product-moment formula; two-sided p from t(n-2)."""
    from scipy import stats

    n = len(x)
    mx, my = x.mean(), y.mean()
    num = float(((x - mx) * (y - my)).sum())
    den = float(np.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum()))
    r = num / den
    if abs(r) >= 1.0:
        return r, 0.0
    t = r * np.sqrt((n - 2) / (1 - r * r))
    return r, float(2 * stats.t.sf(abs(t), n - 2))


def two_ols_granger(
    y: np.ndarray, x: np.ndarray, max_lag: int, difference: bool
) -> tuple[float, float]:
    """(chi2, p) assembled from two explicit lag-matrix regressions."""
    from scipy import stats

    dep = np.diff(y) if difference else np.asarray(y, dtype=float)
    xx = np.asarray(x, dtype=float)
    if difference:
        xx = xx[1:]  # keep x aligned with dep's time index
    rows = []
    for t in range(max_lag, len(dep)):
        own = [dep[t - i] for i in range(1, max_lag + 1)]
        cross = [xx[t - i] for i in range(1, max_lag + 1)]
        rows.append((dep[t], own, cross))
    n = len(rows)
    target = np.array([r[0] for r in rows])
    own_mat = np.array([r[1] for r in rows])
    cross_mat = np.array([r[2] for r in rows])
    ones = np.ones((n, 1))
    restricted = np.hstack([ones, own_mat])
    unrestricted = np.hstack([ones, own_mat, cross_mat])

    def rss(design: np.ndarray) -> float:
        beta, *_ = np.linalg.lstsq(design, target, rcond=None)
        resid = target - design @ beta
        return float(resid @ resid)

    rss_r = rss(restricted)
    rss_u = rss(unrestricted)
    chi2 = n * (rss_r - rss_u) / rss_u
    return chi2, float(stats.chi2.sf(chi2, max_lag))
