from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumcast import centrality
from forumcast.centrality import (
    BETWEENNESS,
    DEGREE,
    PathCountOverflow,
    _path_counts,
    _predecessors,
    _stacked_betweenness,
    _successor_sums,
    approx_betweenness,
    betweenness_centralities,
    betweenness_centrality,
    centralization,
    degree_centrality,
    normalize,
    sample_sources,
    vertex_betweennesses,
)
from forumcast.errors import AnalysisError
from forumcast.graphs import DirectedWeightedGraph, build_word_network

from conftest import (
    arcs,
    bidirectional_cycle,
    bidirectional_star,
    directed_cycle,
    graph_from_arcs,
    random_digraph,
    vertex_score,
)
from oracles import brute_force_betweenness


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    nodes = [f"v{i}" for i in range(n)]
    arc_weights = {}
    for a in nodes:
        for b in nodes:
            if a != b and draw(st.booleans()):
                arc_weights[(a, b)] = draw(st.integers(min_value=1, max_value=3))
    return graph_from_arcs(arc_weights, nodes=nodes)


@st.composite
def kernel_jobs(draw):
    """A random digraph with a sorted sample of source ids and its n / k
    scale."""
    n = draw(st.integers(min_value=1, max_value=24))
    p = draw(st.sampled_from([0.05, 0.15, 0.4]))
    g = random_digraph(random.Random(draw(st.integers(min_value=0, max_value=2**32))), n, p)
    sources = sorted(draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True)))
    return g, sources, n / len(sources)


@st.composite
def backward_steps(draw):
    """A digraph in which node v00 has at least 8 successors and the last
    node none, a coefficient array over it with some zero cells and values
    of mixed magnitude, and the flat indices of one backward step's cells."""
    n = draw(st.integers(min_value=10, max_value=40))
    width = draw(st.integers(min_value=1, max_value=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    nodes = [f"v{i:02d}" for i in range(n)]
    arc_weights = {(nodes[0], nodes[k]): 1 for k in rng.sample(range(1, n), 8)}
    for a in nodes[:-1]:
        for b in nodes:
            if a != b and rng.random() < 0.3:
                arc_weights[(a, b)] = 1
    g = graph_from_arcs(arc_weights, nodes=nodes)
    coef = np.array([
        [rng.random() * 2.0 ** rng.randint(-30, 30) if rng.random() < 0.8 else 0.0
         for _ in range(width)]
        for _ in range(n)
    ])
    on_level = np.array([[rng.random() < 0.5 for _ in range(width)] for _ in range(n)])
    on_level[[0, -1], :] = True
    return g, np.flatnonzero(on_level), coef


def layered_dag(layers: int) -> DirectedWeightedGraph:
    """Two nodes per layer, every arc from one layer to the next: a0000 has
    2**(k-1) geodesics to each node of layer k, and each node of layer k
    lies on half of those to any later node. So from a0000 alone a node on
    layer k >= 1 scores layers - 1 - k, and layer 0 scores 0."""
    arc_weights = {}
    for k in range(layers - 1):
        for a in "ab":
            for b in "ab":
                arc_weights[(f"{a}{k:04d}", f"{b}{k + 1:04d}")] = 1
    return graph_from_arcs(arc_weights)


def brandes(g: DirectedWeightedGraph, sources, scale: float) -> np.ndarray:
    """The Brandes kernel's scores of every node of ``g`` over the source ids
    ``sources`` (sorted), times ``scale``."""
    return _stacked_betweenness([g], np.array([sources]), scale)[0]


def by_node(g: DirectedWeightedGraph, scores: np.ndarray) -> dict[str, float]:
    """A score array indexed by node id, keyed by node name."""
    assert scores.shape == (g.n,) and scores.dtype == np.float64
    return dict(zip(g.nodes, scores.tolist()))


class TestDegree:
    def test_bidirectional_star_n4(self):
        star = bidirectional_star(3)
        raw = by_node(star, degree_centrality(star))
        assert raw["hub"] == 6
        assert normalize(DEGREE, raw["hub"], star.n) == 1.0
        assert raw["v1"] == 2
        assert normalize(DEGREE, raw["v1"], star.n) == pytest.approx(1 / 3)

    def test_single_node(self):
        g = graph_from_arcs({}, nodes={"x"})
        assert by_node(g, degree_centrality(g)) == {"x": 0.0}
        assert normalize(DEGREE, 0.0, g.n) == 0.0

    def test_two_node_arc(self):
        g = graph_from_arcs({("hello", "dolly"): 1})
        raw = by_node(g, degree_centrality(g))
        assert raw == {"dolly": 1.0, "hello": 1.0}
        assert {v: normalize(DEGREE, d, g.n) for v, d in raw.items()} == {
            "dolly": 0.5, "hello": 0.5
        }

    def test_weights_ignored(self):
        light = degree_centrality(graph_from_arcs({("a", "b"): 1}))
        heavy = degree_centrality(graph_from_arcs({("a", "b"): 9}))
        assert light.tolist() == heavy.tolist()


class TestBetweennessExact:
    def test_directed_four_cycle(self):
        raw = betweenness_centrality(directed_cycle(4))
        assert len(raw) == 4
        assert all(score == pytest.approx(3.0) for score in raw.tolist())

    def test_bidirectional_star_center_max(self):
        star = bidirectional_star(3)
        raw = by_node(star, betweenness_centrality(star))
        assert raw["hub"] == pytest.approx(6.0)  # (n-1)(n-2)
        assert normalize(BETWEENNESS, raw["hub"], star.n) == pytest.approx(1.0)
        assert raw["v1"] == 0.0

    def test_single_arc_no_interior(self):
        g = graph_from_arcs({("a", "b"): 1})
        assert by_node(g, betweenness_centrality(g)) == {"a": 0.0, "b": 0.0}

    def test_disconnected_pairs_contribute_zero(self):
        g = graph_from_arcs({("a", "b"): 1}, nodes={"c"})
        raw = betweenness_centrality(g)
        assert len(raw) == 3
        assert all(v == 0.0 for v in raw.tolist())

    @settings(max_examples=60, deadline=None)
    @given(small_digraphs())
    def test_matches_path_enumeration_oracle(self, g):
        raw = by_node(g, betweenness_centrality(g))
        oracle = brute_force_betweenness(g.nodes, arcs(g))
        for v in g.nodes:
            assert abs(raw[v] - float(oracle[v])) <= 1e-12

    @given(small_digraphs())
    def test_weights_never_matter(self, g):
        unweighted = graph_from_arcs({arc: 1 for arc in arcs(g)}, nodes=g.nodes)
        assert (
            betweenness_centrality(g).tolist() == betweenness_centrality(unweighted).tolist()
        )


def sampled_oracle(g: DirectedWeightedGraph, sources, scale: float) -> dict[str, float]:
    """The path-enumeration oracle over the source ids ``sources``, times
    ``scale``."""
    oracle = brute_force_betweenness(g.nodes, arcs(g), [g.nodes[s] for s in sources])
    return {v: float(score * Fraction(scale)) for v, score in oracle.items()}


class TestKernels:
    """The Brandes kernel, called directly with a source sample, against the
    path-enumeration oracle, networkx and a closed form."""

    @settings(max_examples=80, deadline=None)
    @given(kernel_jobs())
    def test_batched_matches_oracle(self, job):
        g, sources, scale = job
        expected = sampled_oracle(g, sources, scale)
        batched = by_node(g, brandes(g, sources, scale))
        for v in g.nodes:
            assert (expected[v] == 0.0) == (batched[v] == 0.0)
            assert abs(expected[v] - batched[v]) <= 1e-12 * abs(expected[v])
        # three sources per batch: several batches, same summation order
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(centrality, "BATCH_CELLS", 3 * g.n)
            assert by_node(g, brandes(g, sources, scale)) == batched

    @settings(max_examples=80, deadline=None)
    @given(backward_steps())
    def test_successor_sums_match_csr_product(self, step):
        # The backward step must sum in the CSR product's order, bit for bit.
        from scipy.sparse import csr_matrix

        g, cells, coef = step
        succ = csr_matrix((np.ones(g.m), g.indices, g.indptr), shape=(g.n, g.n))
        expected = (succ @ coef).ravel()[cells]
        got = _successor_sums(g.indptr, g.indices, cells, coef)
        assert got.shape == cells.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n,p", [(200, 0.02), (300, 0.01)])
    def test_batched_matches_networkx(self, n, p):
        nx = pytest.importorskip("networkx")
        g = random_digraph(random.Random(n), n, p)
        reference = nx.DiGraph()
        reference.add_nodes_from(g.nodes)
        reference.add_edges_from(arcs(g))
        expected = nx.betweenness_centrality(reference, normalized=False)
        raw = by_node(g, betweenness_centrality(g))
        for v in g.nodes:
            assert raw[v] == pytest.approx(expected[v], rel=1e-12, abs=1e-12)

    def test_path_count_overflow_is_analysis_error(self):
        g = layered_dag(1100)
        with pytest.raises(AnalysisError, match="float range"):
            brandes(g, [g.node_id("a0000")], 1.0)

    def test_path_counts_near_float_max_agree(self):
        # up to 2**998 geodesics per pair, and the closed form bit for bit
        layers = 1000
        g = layered_dag(layers)
        batched = by_node(g, brandes(g, [g.node_id("a0000")], 1.0))
        for v, score in batched.items():
            k = int(v[1:])
            assert score == (layers - 1 - k if k >= 1 else 0)


class TestVertexBetweenness:
    """The one-node kernel against the path-enumeration oracle and against
    the Brandes vector, for the same sources and scale."""

    @settings(max_examples=60, deadline=None)
    @given(small_digraphs())
    def test_matches_path_enumeration_oracle(self, g):
        oracle = brute_force_betweenness(g.nodes, arcs(g))
        for v, name in enumerate(g.nodes):
            assert vertex_score(g, v, range(g.n), 1.0) == pytest.approx(
                float(oracle[name]), rel=1e-12, abs=0.0
            )

    @settings(max_examples=80, deadline=None)
    @given(kernel_jobs())
    def test_matches_oracle_and_brandes(self, job):
        g, sources, scale = job
        expected = sampled_oracle(g, sources, scale)
        batched = by_node(g, brandes(g, sources, scale))
        scores = [vertex_score(g, v, sources, scale) for v in range(g.n)]
        for v, score in zip(g.nodes, scores):
            for reference in (expected[v], batched[v]):
                assert (score == 0.0) == (reference == 0.0)
                assert abs(score - reference) <= 1e-12 * abs(reference)
        # one source per batch: the same scores, bit for bit
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(centrality, "BATCH_CELLS", g.n)
            assert [vertex_score(g, v, sources, scale) for v in range(g.n)] == scores

    def test_full_sample_bit_identical(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_digraph(rng, 30, 0.15)
            sources, scale = sample_sources(g, g.n, seed=rng.randrange(1 << 30))
            assert sources.tolist() == list(range(g.n)) and scale == 1.0
            for v in range(g.n):
                assert vertex_score(g, v, sources, scale) == vertex_score(g, v, range(g.n), 1.0)

    def test_sampled_matches_approx_betweenness(self):
        g = random_digraph(random.Random(12), 50, 0.08)
        sources, scale = sample_sources(g, 15, seed=99)
        approx = approx_betweenness(g, 15, seed=99).tolist()
        for v in range(g.n):
            score = vertex_score(g, v, sources, scale)
            assert score == pytest.approx(approx[v], rel=1e-12, abs=0.0)
            assert normalize(BETWEENNESS, score, g.n) == pytest.approx(
                normalize(BETWEENNESS, approx[v], g.n), rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("n,p", [(20, 0.15), (64, 0.05), (65, 0.05), (120, 0.03)])
    def test_dense_and_sparse_sweeps_bit_identical(self, monkeypatch, n, p):
        g = random_digraph(random.Random(n), n, p)
        scores = []
        for limit in (0, 1000):
            monkeypatch.setattr(centrality, "DENSE_NODE_LIMIT", limit)
            scores.append((
                [vertex_score(g, v, range(g.n), 1.0) for v in range(g.n)],
                betweenness_centrality(g).tolist(),
            ))
        assert scores[0] == scores[1]
        assert any(scores[0][0])

    def test_path_count_overflow_is_analysis_error(self):
        g = layered_dag(1100)
        with pytest.raises(AnalysisError, match="float range"):
            vertex_score(g, g.node_id("a0500"), [g.node_id("a0000")], 1.0)

    def test_path_counts_near_float_max_agree(self):
        # up to 2**998 geodesics per pair, and the closed form bit for bit
        layers = 1000
        g = layered_dag(layers)
        for v in ("a0000", "b0000", "b0001", "a0500", "b0998", "a0999"):
            k = int(v[1:])
            expected = layers - 1 - k if k >= 1 else 0
            assert vertex_score(g, g.node_id(v), [g.node_id("a0000")], 1.0) == expected


SWEEP_KINDS = ("dense", "light", "heavy")


def force_sweep(patch: pytest.MonkeyPatch, kind: str) -> None:
    """Send every graph the kernels take through ``kind``'s forward sweep."""
    patch.setattr(centrality, "DENSE_NODE_LIMIT", 1 << 20 if kind == "dense" else 0)
    patch.setattr(centrality, "LIGHT_SWEEP_ARCS", 1 << 40 if kind == "light" else -1)


@st.composite
def sweep_jobs(draw):
    """A random digraph of up to 60 nodes, its source ids (every node, or a
    sorted sample) with their scale, and a cap of one or many batches."""
    n = draw(st.integers(min_value=1, max_value=60))
    p = draw(st.sampled_from([0.02, 0.08, 0.3]))
    g = random_digraph(random.Random(draw(st.integers(min_value=0, max_value=2**32))), n, p)
    if draw(st.booleans()):
        sources, scale = range(g.n), 1.0
    else:
        sources = sorted(draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True)))
        scale = n / len(sources)
    return g, sources, scale, draw(st.sampled_from([centrality.BATCH_CELLS, 3 * n]))


class TestSweepKinds:
    """The light sweep, which pushes from each level's cells, against the
    dense and the CSC (heavy) sweeps: the same path counts, levels and
    scores, bit for bit, and the same overflow."""

    @settings(max_examples=60, deadline=None)
    @given(sweep_jobs())
    def test_light_sweep_bit_identical(self, job):
        g, sources, scale, batch_cells = job
        rows = np.array([sources])
        seen = {}
        for kind in SWEEP_KINDS:
            with pytest.MonkeyPatch.context() as patch:
                force_sweep(patch, kind)
                patch.setattr(centrality, "BATCH_CELLS", batch_cells)
                product = _predecessors([g], rows.shape[1])
                assert (product is None) == (kind == "light")
                levels = []
                sigma, dist = _path_counts(product, [g], rows, levels)
                seen[kind] = (
                    sigma.tobytes(),
                    dist.tobytes(),
                    [cells.tolist() for cells in levels],
                    brandes(g, sources, scale).tobytes(),
                    [vertex_score(g, v, sources, scale).hex() for v in range(min(g.n, 4))],
                )
        assert seen["light"] == seen["heavy"] == seen["dense"]
        levels = []
        dist = _path_counts(None, [g], rows, levels)[1]
        for depth, cells in enumerate(levels):
            assert cells.tolist() == sorted(set(cells.tolist()))
            assert (dist.ravel()[cells] == depth).all()

    @pytest.mark.parametrize("kind", ["light", "heavy"])
    def test_overflow_names_the_same_graph(self, kind):
        small = random_digraph(random.Random(1), 6, 0.5)
        dag = layered_dag(1100)
        with pytest.MonkeyPatch.context() as patch:
            force_sweep(patch, kind)
            with pytest.raises(PathCountOverflow, match="float range") as caught:
                vertex_betweennesses(
                    [small, dag, small], [0, dag.node_id("a0500"), 1],
                    [range(small.n), [dag.node_id("a0000")], range(small.n)], [1.0, 1.0, 1.0],
                )
            assert caught.value.graph == 1
            with pytest.raises(PathCountOverflow, match="float range"):
                brandes(dag, [dag.node_id("a0000"), dag.node_id("b0001")], 1.0)
            # and just below the float range, the closed form bit for bit
            near = layered_dag(1000)
            scores = by_node(near, brandes(near, [near.node_id("a0000")], 1.0))
            for v, score in scores.items():
                k = int(v[1:])
                assert score == (999 - k if k >= 1 else 0)

    def test_light_sweep_runs_without_scipy(self):
        # A graph above the dense cap whose exact sweep is light: with SciPy
        # blocked, both kernels run to the scores the CSC sweep gives.
        rng = random.Random(4)
        words = [f"w{i:03d}" for i in range(300)]
        streams = [rng.sample(words, 12) for _ in range(60)]
        code = textwrap.dedent("""
            import json, sys
            sys.modules["scipy"] = None
            from forumcast import centrality
            from forumcast.graphs import build_word_network

            g = build_word_network(json.load(sys.stdin), 2)
            assert g.n > centrality.DENSE_NODE_LIMIT
            assert centrality._predecessors([g], g.n + 1) is None
            print(json.dumps([
                centrality.betweenness_centrality(g).tobytes().hex(),
                centrality.vertex_betweennesses([g], [0], [range(g.n)], [1.0])[0].hex(),
            ]))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], input=json.dumps(streams), capture_output=True,
            text=True, check=True, env=env,
        ).stdout
        g = build_word_network(streams, 2)
        with pytest.MonkeyPatch.context() as patch:
            force_sweep(patch, "heavy")
            expected = [
                betweenness_centrality(g).tobytes().hex(),
                vertex_score(g, 0, range(g.n), 1.0).hex(),
            ]
        assert json.loads(out) == expected
        assert betweenness_centralities([g])[0].tobytes().hex() == expected[0]


@st.composite
def sampling_jobs(draw):
    """A graph of the dense, light or heavy size class, with node names in
    random order, a sample size and a seed."""
    kind = draw(st.sampled_from(SWEEP_KINDS))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if kind == "dense":
        n = draw(st.integers(min_value=1, max_value=centrality.DENSE_NODE_LIMIT))
        k = draw(st.integers(min_value=1, max_value=n))
        arcs_per_node = 1
    elif kind == "light":
        n = draw(st.integers(min_value=centrality.DENSE_NODE_LIMIT + 1, max_value=400))
        k = draw(st.integers(min_value=1, max_value=n))
        arcs_per_node = 1
    else:
        n = draw(st.integers(min_value=700, max_value=1000))
        k = draw(st.integers(min_value=200, max_value=n))
        arcs_per_node = 4
    names = sorted({f"{rng.getrandbits(48):x}" for _ in range(n)}, key=lambda _: rng.random())
    n = len(names)
    k = min(k, n)
    g = graph_from_arcs(
        {(names[i], names[(i + step) % n]): 1
         for i in range(n) for step in range(1, arcs_per_node + 1) if n > step},
        nodes=names,
    )
    # The class the sweep picks for the sample's columns, plus the focal one.
    columns_arcs = (k + 1) * g.m
    assert (g.n <= centrality.DENSE_NODE_LIMIT) == (kind == "dense")
    if kind != "dense":
        assert (columns_arcs <= centrality.LIGHT_SWEEP_ARCS) == (kind == "light")
    return g, k, draw(st.integers(min_value=0, max_value=2**32))


class TestSampleSources:
    @settings(max_examples=60, deadline=None)
    @given(sampling_jobs())
    def test_ids_name_the_nodes_a_draw_of_names_picks(self, job):
        # The draw from g.nodes itself, sorted, is what the sampled scores
        # were computed over when the kernels took names.
        g, k, seed = job
        ids, scale = sample_sources(g, k, seed)
        assert ids.dtype.kind == "i" and ids.shape == (k,)
        assert [g.nodes[i] for i in ids.tolist()] == sorted(random.Random(seed).sample(g.nodes, k))
        assert scale == (g.n / k if k < g.n else 1.0)


class TestApproxBetweenness:
    def test_full_sample_bit_identical(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_digraph(rng, 30, 0.15)
            exact = betweenness_centrality(g)
            sampled = approx_betweenness(g, g.n, seed=rng.randrange(1 << 30))
            assert exact.tolist() == sampled.tolist()

    def test_seed_reproducible(self):
        g = random_digraph(random.Random(11), 40, 0.1)
        a = approx_betweenness(g, 10, seed=123)
        b = approx_betweenness(g, 10, seed=123)
        c = approx_betweenness(g, 10, seed=124)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_sample_count_bounds(self):
        g = directed_cycle(5)
        with pytest.raises(AnalysisError):
            approx_betweenness(g, 0, seed=1)
        with pytest.raises(AnalysisError):
            approx_betweenness(g, 6, seed=1)

    def test_estimator_close_at_half_sample(self):
        rng = random.Random(31)
        g = random_digraph(rng, 120, 0.04)
        exact = betweenness_centrality(g).tolist()
        errors = []
        for seed in range(5):
            est = approx_betweenness(g, 60, seed=seed).tolist()
            errors.append(sum(
                abs(normalize(BETWEENNESS, e, g.n) - normalize(BETWEENNESS, x, g.n))
                for e, x in zip(est, exact)
            ) / g.n)
        assert sum(errors) / len(errors) < 0.02


def group_degree(g: DirectedWeightedGraph) -> float:
    return centralization(DEGREE, degree_centrality(g))


def group_betweenness(g: DirectedWeightedGraph) -> float:
    return centralization(BETWEENNESS, betweenness_centrality(g))


class TestCentralization:
    def test_stars_hit_one_exactly(self):
        for leaves in (2, 4, 9):
            star = bidirectional_star(leaves)
            assert group_degree(star) == pytest.approx(1.0, abs=1e-12)
            assert group_betweenness(star) == pytest.approx(1.0, abs=1e-12)

    def test_cycles_hit_zero_exactly(self):
        four = directed_cycle(4)
        assert group_betweenness(four) == pytest.approx(0.0, abs=1e-12)
        both_ways = bidirectional_cycle(5)
        assert group_degree(both_ways) == pytest.approx(0.0, abs=1e-12)
        assert group_betweenness(both_ways) == pytest.approx(0.0, abs=1e-12)

    def test_small_graphs_undefined(self):
        g = graph_from_arcs({("a", "b"): 1})
        with pytest.raises(AnalysisError):
            group_degree(g)

    def test_sums_normalized_scores_in_node_order(self):
        # c* - c_i in node order with Python floats, over (n - 2) for degree
        raw = np.array([3.0, 1.0, 7.0, 2.0])
        scores = [normalize(DEGREE, r, 4) for r in raw.tolist()]
        expected = sum(max(scores) - c for c in scores) / 2.0
        value = centralization(DEGREE, raw)
        assert type(value) is float
        assert value == expected

    @settings(max_examples=40, deadline=None)
    @given(small_digraphs())
    def test_bounded_between_zero_and_one(self, g):
        if g.n < 3:
            return
        for value in (group_degree(g), group_betweenness(g)):
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_relabeling_invariance(self):
        g = random_digraph(random.Random(3), 12, 0.3)
        mapping = {v: f"node-{i:02d}" for i, v in enumerate(reversed(g.nodes))}
        relabeled = graph_from_arcs(
            {(mapping[a], mapping[b]): w for (a, b), w in arcs(g).items()},
            nodes=[mapping[v] for v in g.nodes],
        )
        for group in (group_degree, group_betweenness):
            assert group(g) == pytest.approx(group(relabeled), abs=1e-12)
