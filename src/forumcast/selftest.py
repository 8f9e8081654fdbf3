"""Quick built-in checks over hand-verifiable fixtures.

Exposed as ``forumcast selftest``; runs in well under a second and touches
every computational module. Each check returns (name, passed, detail).
"""

from __future__ import annotations

import math

import numpy as np

from .centrality import (
    BETWEENNESS,
    DEGREE,
    betweenness_centrality,
    centralization,
    degree_centrality,
    sample_sources,
    vertex_betweennesses,
)
from .corpus import Message, parse_timestamp
from .econometrics import Series, _chi2_tail, _t_tail, durbin_watson, ols, pearson
from .graphs import build_word_network
from .semantics import LexiconScorer, emotionality, score_message
from .semantics import complexity as window_complexity
from .textproc import build_vocabulary, tokenize

Check = tuple[str, bool, str]


def run_selftest() -> list[Check]:
    checks: list[Check] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        checks.append((name, passed, detail))

    g = build_word_network([tokenize("Hello Dolly!")])
    rows = b"".join(g.edge_table_rows(0))
    check(
        "two-word post yields one arc",
        g.nodes == ("dolly", "hello") and rows == b"0,hello,dolly,1\r\n",
        f"nodes={g.nodes} rows={rows!r}",
    )

    stream = [f"t{i}" for i in range(20)]
    total = build_word_network([stream], 7).total_weight
    check("co-occurrence closed form 7L-28", total == 7 * 20 - 28, f"total={total}")

    # Each two-token stream at window_size 1 adds one arc.
    spokes = [f"v{i}" for i in range(1, 7)]
    star = build_word_network(
        [["hub", v] for v in spokes] + [[v, "hub"] for v in spokes], window_size=1
    )
    dc = centralization(DEGREE, degree_centrality(star))
    bc = centralization(BETWEENNESS, betweenness_centrality(star))
    check(
        "star centralization is 1",
        abs(dc - 1.0) <= 1e-12 and abs(bc - 1.0) <= 1e-12,
        f"degree={dc} betweenness={bc}",
    )

    cycle = build_word_network([[f"v{i}", f"v{(i + 1) % 4}"] for i in range(4)], window_size=1)
    cc = centralization(BETWEENNESS, betweenness_centrality(cycle))
    check("cycle betweenness centralization is 0", abs(cc) <= 1e-12, f"value={cc}")

    sources, scale = sample_sources(cycle, cycle.n, seed=1)
    graphs = [cycle] * cycle.n
    ids = range(cycle.n)
    exact = vertex_betweennesses(graphs, ids, [ids] * cycle.n, [1.0] * cycle.n)
    sampled = vertex_betweennesses(graphs, ids, [sources] * cycle.n, [scale] * cycle.n)
    check(
        "full-sample betweenness equals exact",
        exact == sampled,
        f"exact={exact} sampled={sampled}",
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

    # Closed forms: t(1) is the Cauchy law, P(T > t) = atan(1/t) / pi, and
    # chi-square(2) is the exponential law with mean 2.
    t_tails = [(_t_tail(1, t), math.atan2(1.0, t) / math.pi) for t in (0.5, 3.0, 40.0)]
    check(
        "Cauchy tail is atan(1/t)/pi",
        all(abs(got - want) <= 1e-13 * want for got, want in t_tails),
        f"(got, want)={t_tails}",
    )
    chi2_tails = [(_chi2_tail(2, x), math.exp(-x / 2)) for x in (0.5, 3.0, 40.0)]
    check(
        "chi-square(2) tail is exp(-x/2)",
        all(abs(got - want) <= 1e-13 * want for got, want in chi2_tails),
        f"(got, want)={chi2_tails}",
    )

    msg = Message(
        id="s1",
        author_id="a",
        timestamp=parse_timestamp("2020-01-01T00:00:00Z"),
        body="platform deadline agenda",
    )
    neutral = score_message(msg, tokenize(msg.body), LexiconScorer({"gain": 0.8}))
    check("no lexicon match scores neutral", neutral == 0.5, f"value={neutral}")

    emo = emotionality([0.7, 0.7, 0.7])
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
