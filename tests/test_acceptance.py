"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing gives
one PASSED/FAILED line per criterion. Several criteria carry wall-clock
budgets, asserted inside the test.
"""
from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np
import pytest

from forumcast.centrality import (
    approx_betweenness,
    betweenness_centrality,
    centralization,
    degree_centrality,
)
from forumcast.config import load_config
from forumcast.econometrics import Series, durbin_watson, granger_test, ols
from forumcast.graphs import build_word_network
from forumcast.pipeline import run_all
from forumcast.semantics import (
    LexiconScorer,
    SentimentScore,
    complexity,
    emotionality,
    score_message,
)
from forumcast.synth import generate_demo
from forumcast.textproc import build_vocabulary, tokenize

from conftest import (
    arcs,
    bidirectional_cycle,
    bidirectional_star,
    directed_cycle,
    make_message,
    random_digraph,
)
from oracles import (
    brute_force_betweenness,
    enumerate_cooccurrences,
    normal_equations_ols,
    two_ols_granger,
)


def test_criterion_01_exact_betweenness_matches_enumeration():
    start = time.perf_counter()
    rng = random.Random(101)
    checked = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, rng.uniform(0.1, 0.9))
        got = betweenness_centrality(g).raw
        want = brute_force_betweenness(g.nodes, arcs(g))
        for v in g.nodes:
            assert abs(got[v] - float(want[v])) <= 1e-12
            checked += 1
    assert checked > 0
    assert time.perf_counter() - start < 30.0


def test_criterion_02_centralization_anchor_graphs():
    for size in range(3, 21):
        star = bidirectional_star(size - 1)
        for vector in (degree_centrality(star), betweenness_centrality(star)):
            assert abs(centralization(vector).value - 1.0) <= 1e-12
    for size in range(3, 21):
        for g in (directed_cycle(size), bidirectional_cycle(size)):
            for vector in (degree_centrality(g), betweenness_centrality(g)):
                assert abs(centralization(vector).value - 0.0) <= 1e-12


def test_criterion_03_two_word_message():
    g = build_word_network([["hello", "dolly"]])
    assert g.nodes == ("dolly", "hello")
    assert arcs(g) == {("hello", "dolly"): 1}


def test_criterion_04_cooccurrence_closed_form():
    for length in (7, 8, 20, 100):
        tokens = [f"w{i}" for i in range(length)]
        g = build_word_network([tokens], window_size=7)
        assert g.total_weight == 7 * length - 28
        pairs, identical = enumerate_cooccurrences([tokens], 7)
        assert identical == 0
        assert sum(pairs.values()) == g.total_weight


def test_criterion_05_ols_against_normal_equations():
    rng = np.random.default_rng(505)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        X = rng.normal(size=(50, k))
        beta = rng.normal(size=k)
        y = 1.5 + X @ beta + rng.normal(scale=0.3, size=50)
        fit = ols(Series("y", y), [Series(f"x{j}", X[:, j]) for j in range(k)])
        design = np.column_stack([np.ones(50), X])
        ref = normal_equations_ols(y, design)
        assert np.allclose(fit.params, ref, rtol=1e-8, atol=1e-10)
        expected_adj = 1.0 - (1.0 - fit.r2) * (50 - 1) / (50 - k - 1)
        assert abs(fit.adj_r2 - expected_adj) <= 1e-12

    x = np.arange(10.0)
    exact = ols(Series("y", 1.0 + 2.0 * x), [Series("x", x)])
    assert exact.r2 == 1.0


def test_criterion_06_granger_power_size_and_identity():
    start = time.perf_counter()

    rng = np.random.default_rng(606)
    n = 200
    x = rng.normal(size=n)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.9 * x[t - 1] + rng.normal(scale=0.1)
    planted = granger_test(Series("y", y), Series("x", x), max_lag=2)
    assert planted.p < 0.01

    reps = 500
    rejections = 0
    for _ in range(reps):
        yv = rng.normal(size=120)
        xv = rng.normal(size=120)
        res = granger_test(Series("y", yv), Series("x", xv), max_lag=2)
        rejections += res.p < 0.05
    assert 0.02 <= rejections / reps <= 0.09

    for difference in (False, True):
        res = granger_test(
            Series("y", y), Series("x", x), max_lag=3, difference_dependent=difference
        )
        chi2_ref, p_ref = two_ols_granger(y, x, max_lag=3, difference=difference)
        assert math.isclose(res.chi2, chi2_ref, rel_tol=1e-8)
        assert math.isclose(res.p, p_ref, rel_tol=1e-8, abs_tol=1e-12)

    assert time.perf_counter() - start < 60.0


def test_criterion_07_durbin_watson_anchors():
    assert durbin_watson([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert durbin_watson([1.0, -1.0, 1.0, -1.0]) == 3.0
    rng = np.random.default_rng(707)
    dw = durbin_watson(rng.normal(size=500))
    assert 1.7 <= dw <= 2.3


def test_criterion_08_sampled_betweenness_exactness_and_error():
    rng = random.Random(808)
    for _ in range(5):
        g = random_digraph(rng, 30, 0.15)
        exact = betweenness_centrality(g)
        full = approx_betweenness(g, g.n, seed=1234)
        assert full.raw == exact.raw
        assert full.normalized == exact.normalized

    maes = []
    for graph_seed in range(4):
        g = random_digraph(random.Random(9000 + graph_seed), 200, 0.03)
        exact = betweenness_centrality(g).normalized
        for sample_seed in range(5):
            est = approx_betweenness(g, 100, seed=sample_seed).normalized
            mae = sum(abs(est[v] - exact[v]) for v in g.nodes) / g.n
            maes.append(mae)
    assert len(maes) == 20
    assert all(mae < 0.02 for mae in maes)


def test_criterion_09_semantic_anchors():
    msg = make_message("m", "u", body="nothing matches here")
    neutral = score_message(msg, tokenize(msg.body), LexiconScorer({"gain": 1.0}))
    assert neutral.value == 0.5

    constant = [SentimentScore(0.7)] * 5
    assert emotionality(constant) == 0.0

    single = build_vocabulary([["echo"] * 3])
    assert complexity([["echo"]], single) == pytest.approx(0.0, abs=1e-12)

    for k in (2, 8, 32):
        vocab = build_vocabulary([[f"w{i}" for i in range(k)]])
        value = complexity([[f"w{i}" for i in range(k)]], vocab)
        assert value == pytest.approx(math.log2(k), abs=1e-12)


def test_criterion_10_planted_pipeline_end_to_end(tmp_path):
    start = time.perf_counter()
    paths = generate_demo(str(tmp_path / "demo"), seed=7, weeks=94)
    config = load_config(paths["config"])
    config.output_dir = str(tmp_path / "out")
    report = run_all(config)

    cell = next(
        c for c in report.correlations if c.predictor == "activity_words" and c.lag == 1
    )
    assert cell.result is not None
    assert cell.result.r > 0
    assert cell.result.p < 0.05

    granger = next(c for c in report.granger if c.predictor == "activity_words")
    assert granger.result is not None
    assert granger.result.p < 0.05

    models = {m.spec.name: m for m in report.models}
    baseline = models["model_1"].result
    combined = models["model_8"].result
    assert baseline is not None and combined is not None
    assert combined.adj_r2 > baseline.adj_r2
    assert report.incremental_adj_r2 is not None
    assert report.incremental_adj_r2 > 0

    assert time.perf_counter() - start < 120.0


def test_criterion_11_word_network_at_scale():
    vocab_size = 16000
    target_events = 6_000_000
    rng = random.Random(1111)
    vocab = [f"w{i:05d}" for i in range(vocab_size)]
    cum_weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** 1.5 for rank in range(vocab_size))
    )

    # one pass over the full vocabulary pins n; Zipf-weighted streams supply
    # volume, overshooting because identical-word pairs are tallied, not stored
    streams = [list(vocab)]
    raw_events = 7 * vocab_size - 28
    budget = int(target_events * 1.3)
    while raw_events < budget:
        length = rng.randint(80, 159)
        streams.append(rng.choices(vocab, cum_weights=cum_weights, k=length))
        raw_events += 7 * length - 28

    start = time.perf_counter()
    g = build_word_network(streams, window_size=7)
    elapsed = time.perf_counter() - start

    assert g.n >= 16000
    assert g.total_weight >= 6_000_000
    assert elapsed < 60.0
