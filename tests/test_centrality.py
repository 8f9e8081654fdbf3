from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumcast import centrality
from forumcast.centrality import (
    BETWEENNESS,
    DEGREE,
    SCALAR_WORK_LIMIT,
    _batched_betweenness,
    _scalar_betweenness,
    approx_betweenness,
    betweenness_centrality,
    centralization,
    degree_centrality,
    normalize,
    sample_sources,
    vertex_betweenness,
    vertex_degree,
)
from forumcast.errors import AnalysisError
from forumcast.graphs import DirectedWeightedGraph

from conftest import bidirectional_cycle, bidirectional_star, directed_cycle, random_digraph
from oracles import brute_force_betweenness


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    nodes = [f"v{i}" for i in range(n)]
    arcs = {}
    for a in nodes:
        for b in nodes:
            if a != b and draw(st.booleans()):
                arcs[(a, b)] = draw(st.integers(min_value=1, max_value=3))
    return DirectedWeightedGraph(arcs, nodes=nodes)


@st.composite
def kernel_jobs(draw):
    """A random digraph with a sorted source sample and its n / k scale."""
    n = draw(st.integers(min_value=1, max_value=24))
    p = draw(st.sampled_from([0.05, 0.15, 0.4]))
    g = random_digraph(random.Random(draw(st.integers(min_value=0, max_value=2**32))), n, p)
    sources = sorted(draw(st.lists(st.sampled_from(g.nodes), min_size=1, unique=True)))
    return g, sources, n / len(sources)


def layered_dag(layers: int) -> DirectedWeightedGraph:
    """Two nodes per layer, every arc from one layer to the next: a0000 has
    2**(k-1) geodesics to each node of layer k."""
    arcs = {}
    for k in range(layers - 1):
        for a in "ab":
            for b in "ab":
                arcs[(f"{a}{k:04d}", f"{b}{k + 1:04d}")] = 1
    return DirectedWeightedGraph(arcs)


class TestDegree:
    def test_bidirectional_star_n4(self):
        cv = degree_centrality(bidirectional_star(3))
        assert cv.raw["hub"] == 6
        assert cv.normalized["hub"] == 1.0
        assert cv.raw["v1"] == 2
        assert cv.normalized["v1"] == pytest.approx(1 / 3)

    def test_single_node(self):
        cv = degree_centrality(DirectedWeightedGraph({}, nodes={"x"}))
        assert cv.raw == {"x": 0.0}
        assert cv.normalized == {"x": 0.0}

    def test_two_node_arc(self):
        cv = degree_centrality(DirectedWeightedGraph({("hello", "dolly"): 1}))
        assert cv.raw == {"dolly": 1.0, "hello": 1.0}
        assert cv.normalized == {"dolly": 0.5, "hello": 0.5}

    def test_weights_ignored(self):
        light = degree_centrality(DirectedWeightedGraph({("a", "b"): 1}))
        heavy = degree_centrality(DirectedWeightedGraph({("a", "b"): 9}))
        assert light.raw == heavy.raw

    @given(small_digraphs())
    def test_vertex_degree_matches_vector(self, g):
        cv = degree_centrality(g)
        for v in g.nodes:
            assert vertex_degree(g, v) == cv.raw[v]
            assert normalize(DEGREE, vertex_degree(g, v), g.n) == cv.normalized[v]


class TestBetweennessExact:
    def test_directed_four_cycle(self):
        cv = betweenness_centrality(directed_cycle(4))
        assert all(cv.raw[v] == pytest.approx(3.0) for v in cv.raw)

    def test_bidirectional_star_center_max(self):
        cv = betweenness_centrality(bidirectional_star(3))
        assert cv.raw["hub"] == pytest.approx(6.0)  # (n-1)(n-2)
        assert cv.normalized["hub"] == pytest.approx(1.0)
        assert cv.raw["v1"] == 0.0

    def test_single_arc_no_interior(self):
        cv = betweenness_centrality(DirectedWeightedGraph({("a", "b"): 1}))
        assert cv.raw == {"a": 0.0, "b": 0.0}

    def test_disconnected_pairs_contribute_zero(self):
        g = DirectedWeightedGraph({("a", "b"): 1}, nodes={"c"})
        cv = betweenness_centrality(g)
        assert all(v == 0.0 for v in cv.raw.values())

    @settings(max_examples=60, deadline=None)
    @given(small_digraphs())
    def test_matches_path_enumeration_oracle(self, g):
        cv = betweenness_centrality(g)
        oracle = brute_force_betweenness(g.nodes, g.arcs)
        for v in g.nodes:
            assert abs(cv.raw[v] - float(oracle[v])) <= 1e-12

    @given(small_digraphs())
    def test_weights_never_matter(self, g):
        unweighted = DirectedWeightedGraph({arc: 1 for arc in g.arcs}, nodes=g.nodes)
        assert betweenness_centrality(g).raw == betweenness_centrality(unweighted).raw


class TestKernels:
    """The batched sparse-matrix kernel against the scalar loop it replaces
    on large jobs; both are called directly, whatever the job size."""

    @settings(max_examples=80, deadline=None)
    @given(kernel_jobs())
    def test_batched_matches_scalar(self, job):
        g, sources, scale = job
        scalar = _scalar_betweenness(g, sources, scale)
        batched = _batched_betweenness(g, sources, scale)
        for v in g.nodes:
            assert (scalar[v] == 0.0) == (batched[v] == 0.0)
            assert abs(scalar[v] - batched[v]) <= 1e-12 * abs(scalar[v])
        # three sources per batch: several batches, same summation order
        assert _batched_betweenness(g, sources, scale, batch_cells=3 * g.n) == batched

    @pytest.mark.parametrize("n,p", [(200, 0.02), (300, 0.01)])
    def test_batched_matches_networkx(self, n, p):
        nx = pytest.importorskip("networkx")
        g = random_digraph(random.Random(n), n, p)
        assert g.n * g.m >= SCALAR_WORK_LIMIT
        reference = nx.DiGraph()
        reference.add_nodes_from(g.nodes)
        reference.add_edges_from(g.arcs)
        expected = nx.betweenness_centrality(reference, normalized=False)
        raw = betweenness_centrality(g).raw
        for v in g.nodes:
            assert raw[v] == pytest.approx(expected[v], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kernel", [_scalar_betweenness, _batched_betweenness])
    def test_path_count_overflow_is_analysis_error(self, kernel):
        g = layered_dag(1100)
        with pytest.raises(AnalysisError, match="float range"):
            kernel(g, ["a0000"], 1.0)

    def test_path_counts_near_float_max_agree(self):
        g = layered_dag(1000)
        scalar = _scalar_betweenness(g, ["a0000"], 1.0)
        batched = _batched_betweenness(g, ["a0000"], 1.0)
        for v in g.nodes:
            assert batched[v] == pytest.approx(scalar[v], rel=1e-12)


class TestVertexBetweenness:
    """The one-node kernel against the path-enumeration oracle and against
    the Brandes vector of both kernels, for the same sources and scale."""

    @settings(max_examples=60, deadline=None)
    @given(small_digraphs())
    def test_matches_path_enumeration_oracle(self, g):
        oracle = brute_force_betweenness(g.nodes, g.arcs)
        for v in g.nodes:
            assert vertex_betweenness(g, v, g.nodes, 1.0) == pytest.approx(
                float(oracle[v]), rel=1e-12, abs=0.0
            )

    @settings(max_examples=80, deadline=None)
    @given(kernel_jobs())
    def test_matches_both_brandes_kernels(self, job):
        g, sources, scale = job
        scalar = _scalar_betweenness(g, sources, scale)
        batched = _batched_betweenness(g, sources, scale)
        for v in g.nodes:
            score = vertex_betweenness(g, v, sources, scale)
            for brandes in (scalar[v], batched[v]):
                assert (score == 0.0) == (brandes == 0.0)
                assert abs(score - brandes) <= 1e-12 * abs(brandes)
            # one source per batch: the same score, bit for bit
            assert vertex_betweenness(g, v, sources, scale, batch_cells=g.n) == score

    def test_full_sample_bit_identical(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_digraph(rng, 30, 0.15)
            sources, scale = sample_sources(g, g.n, seed=rng.randrange(1 << 30))
            for v in g.nodes:
                assert vertex_betweenness(g, v, sources, scale) == vertex_betweenness(
                    g, v, g.nodes, 1.0
                )

    def test_sampled_matches_approx_betweenness(self):
        g = random_digraph(random.Random(12), 50, 0.08)
        sources, scale = sample_sources(g, 15, seed=99)
        approx = approx_betweenness(g, 15, seed=99)
        for v in g.nodes:
            score = vertex_betweenness(g, v, sources, scale)
            assert score == pytest.approx(approx.raw[v], rel=1e-12, abs=0.0)
            assert normalize(BETWEENNESS, score, g.n) == pytest.approx(
                approx.normalized[v], rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("n,p", [(20, 0.15), (64, 0.05), (65, 0.05), (120, 0.03)])
    def test_dense_and_sparse_sweeps_bit_identical(self, monkeypatch, n, p):
        g = random_digraph(random.Random(n), n, p)
        scores = []
        for limit in (0, 1000):
            monkeypatch.setattr(centrality, "DENSE_NODE_LIMIT", limit)
            scores.append([vertex_betweenness(g, v, g.nodes, 1.0) for v in g.nodes])
        assert scores[0] == scores[1]
        assert any(scores[0])

    def test_path_count_overflow_is_analysis_error(self):
        g = layered_dag(1100)
        with pytest.raises(AnalysisError, match="float range"):
            vertex_betweenness(g, "a0500", ["a0000"], 1.0)

    def test_path_counts_near_float_max_agree(self):
        g = layered_dag(1000)
        scalar = _scalar_betweenness(g, ["a0000"], 1.0)
        for v in ("a0000", "b0001", "a0500", "b0998", "a0999"):
            assert vertex_betweenness(g, v, ["a0000"], 1.0) == pytest.approx(
                scalar[v], rel=1e-12
            )


class TestApproxBetweenness:
    def test_full_sample_bit_identical(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_digraph(rng, 30, 0.15)
            exact = betweenness_centrality(g)
            sampled = approx_betweenness(g, g.n, seed=rng.randrange(1 << 30))
            assert exact.raw == sampled.raw
            assert exact.normalized == sampled.normalized

    def test_seed_reproducible(self):
        g = random_digraph(random.Random(11), 40, 0.1)
        a = approx_betweenness(g, 10, seed=123)
        b = approx_betweenness(g, 10, seed=123)
        c = approx_betweenness(g, 10, seed=124)
        assert a.raw == b.raw
        assert a.raw != c.raw

    def test_sample_count_bounds(self):
        g = directed_cycle(5)
        with pytest.raises(AnalysisError):
            approx_betweenness(g, 0, seed=1)
        with pytest.raises(AnalysisError):
            approx_betweenness(g, 6, seed=1)

    def test_estimator_close_at_half_sample(self):
        rng = random.Random(31)
        g = random_digraph(rng, 120, 0.04)
        exact = betweenness_centrality(g)
        errors = []
        for seed in range(5):
            est = approx_betweenness(g, 60, seed=seed)
            errors.append(
                sum(abs(est.normalized[v] - exact.normalized[v]) for v in g.nodes) / g.n
            )
        assert sum(errors) / len(errors) < 0.02


class TestCentralization:
    def test_stars_hit_one_exactly(self):
        for leaves in (2, 4, 9):
            star = bidirectional_star(leaves)
            assert centralization(degree_centrality(star)).value == pytest.approx(1.0, abs=1e-12)
            assert centralization(betweenness_centrality(star)).value == pytest.approx(
                1.0, abs=1e-12
            )

    def test_cycles_hit_zero_exactly(self):
        four = directed_cycle(4)
        assert centralization(betweenness_centrality(four)).value == pytest.approx(0.0, abs=1e-12)
        both_ways = bidirectional_cycle(5)
        assert centralization(degree_centrality(both_ways)).value == pytest.approx(0.0, abs=1e-12)
        assert centralization(betweenness_centrality(both_ways)).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_small_graphs_undefined(self):
        g = DirectedWeightedGraph({("a", "b"): 1})
        with pytest.raises(AnalysisError):
            centralization(degree_centrality(g))

    @settings(max_examples=40, deadline=None)
    @given(small_digraphs())
    def test_bounded_between_zero_and_one(self, g):
        if g.n < 3:
            return
        for cv in (degree_centrality(g), betweenness_centrality(g)):
            value = centralization(cv).value
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_relabeling_invariance(self):
        g = random_digraph(random.Random(3), 12, 0.3)
        mapping = {v: f"node-{i:02d}" for i, v in enumerate(reversed(g.nodes))}
        relabeled = DirectedWeightedGraph(
            {(mapping[a], mapping[b]): w for (a, b), w in g.arcs.items()},
            nodes=[mapping[v] for v in g.nodes],
        )
        for metric in (degree_centrality, betweenness_centrality):
            original = centralization(metric(g)).value
            renamed = centralization(metric(relabeled)).value
            assert original == pytest.approx(renamed, abs=1e-12)
