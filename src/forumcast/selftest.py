"""Quick built-in checks over hand-verifiable fixtures.

Exposed as ``forumcast selftest``; runs in well under a second and touches
every computational module. Each check returns (name, passed, detail).
"""

from __future__ import annotations

import math

import numpy as np

from .centrality import (
    approx_betweenness,
    betweenness_centrality,
    centralization,
    degree_centrality,
)
from .corpus import Message, parse_timestamp
from .econometrics import Series, durbin_watson, ols, pearson
from .graphs import DirectedWeightedGraph, build_word_network
from .semantics import LexiconScorer, SentimentScore, emotionality, score_message
from .semantics import complexity as window_complexity
from .textproc import build_vocabulary, tokenize

Check = tuple[str, bool, str]


def _bidirectional_star(leaves: int) -> DirectedWeightedGraph:
    arcs = {}
    for i in range(1, leaves + 1):
        arcs[("hub", f"v{i}")] = 1
        arcs[(f"v{i}", "hub")] = 1
    return DirectedWeightedGraph(arcs)


def _directed_cycle(n: int) -> DirectedWeightedGraph:
    return DirectedWeightedGraph({(f"v{i}", f"v{(i + 1) % n}"): 1 for i in range(n)})


def run_selftest() -> list[Check]:
    checks: list[Check] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        checks.append((name, passed, detail))

    g = build_word_network([tokenize("Hello Dolly!")])
    check(
        "two-word post yields one arc",
        g.nodes == ("dolly", "hello") and g.arcs == {("hello", "dolly"): 1},
        f"nodes={g.nodes} arcs={dict(g.arcs)}",
    )

    stream = [f"t{i}" for i in range(20)]
    total = build_word_network([stream], 7).total_weight
    check("co-occurrence closed form 7L-28", total == 7 * 20 - 28, f"total={total}")

    star = _bidirectional_star(6)
    dc = centralization(degree_centrality(star)).value
    bc = centralization(betweenness_centrality(star)).value
    check(
        "star centralization is 1",
        abs(dc - 1.0) <= 1e-12 and abs(bc - 1.0) <= 1e-12,
        f"degree={dc} betweenness={bc}",
    )

    cycle = _directed_cycle(4)
    cc = centralization(betweenness_centrality(cycle)).value
    check("cycle betweenness centralization is 0", abs(cc) <= 1e-12, f"value={cc}")

    exact = betweenness_centrality(cycle)
    sampled = approx_betweenness(cycle, cycle.n, seed=1)
    check(
        "full-sample betweenness equals exact",
        exact.raw == sampled.raw,
        f"exact={dict(exact.raw)} sampled={dict(sampled.raw)}",
    )

    x = Series("x", np.arange(10.0))
    y = Series("y", 1.0 + 2.0 * np.arange(10.0))
    fit = ols(y, [x])
    check(
        "exact linear fit recovered",
        fit.r2 == 1.0 and abs(fit.coefficient("x") - 2.0) < 1e-10,
        f"r2={fit.r2} slope={fit.coefficient('x')}",
    )

    dw_flat = durbin_watson([1.0, 1.0, 1.0, 1.0])
    dw_alt = durbin_watson([1.0, -1.0, 1.0, -1.0])
    check("durbin-watson hand cases", dw_flat == 0.0 and dw_alt == 3.0,
          f"flat={dw_flat} alternating={dw_alt}")

    corr = pearson(x, y)
    check("perfect correlation", corr.r == 1.0 and corr.p == 0.0, f"r={corr.r} p={corr.p}")

    msg = Message(
        id="s1",
        author_id="a",
        timestamp=parse_timestamp("2020-01-01T00:00:00Z"),
        body="platform deadline agenda",
    )
    neutral = score_message(msg, tokenize(msg.body), LexiconScorer({"gain": 0.8}))
    check("no lexicon match scores neutral", neutral.value == 0.5, f"value={neutral.value}")

    emo = emotionality([SentimentScore(0.7), SentimentScore(0.7), SentimentScore(0.7)])
    check("constant sentiment has zero emotionality", emo == 0.0, f"value={emo}")

    vocab = build_vocabulary([["a", "b", "c", "d"]])
    comp = window_complexity([["a", "b"]], vocab)
    check(
        "uniform 4-word corpus has complexity log2 4",
        comp is not None and abs(comp - 2.0) <= 1e-12,
        f"value={comp}",
    )

    single = build_vocabulary([["echo", "echo", "echo"]])
    comp_single = window_complexity([["echo"]], single)
    check(
        "single-word corpus has complexity 0",
        comp_single is not None and abs(comp_single) <= 1e-12,
        f"value={comp_single}",
    )

    return checks
