"""A chunk of windows, built by one pair-code sort per graph kind and swept
as stacks of equal-size graphs, gives each window what that window alone
gives, bit for bit, and what the brute-force oracles give."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumcast import centrality
from forumcast.centrality import (
    PathCountOverflow,
    betweenness_centralities,
    betweenness_centrality,
    sample_sources,
    vertex_betweennesses,
)
from forumcast.config import PipelineConfig
from forumcast.errors import AnalysisError
from forumcast.graphs import (
    build_interaction_network,
    build_interaction_networks,
    build_word_network,
    build_word_networks,
)
from forumcast.pipeline import CHUNK_TOKENS, _chunks, _compute_chunk, _WindowTask

from conftest import arcs, random_digraph, same_graph, vertex_score
from oracles import brute_force_betweenness, enumerate_cooccurrences

FOCAL = "w0"
# Few words and authors, so that windows share graph sizes and stacks form.
words = st.sampled_from([f"w{i}" for i in range(12)])
authors = st.sampled_from([f"u{i}" for i in range(5)])


@st.composite
def window_tasks(draw, first: int, count: int) -> list[_WindowTask]:
    """``count`` consecutive windows from ``first``: some empty, some without
    the focal word, reply graphs of every size from 0 nodes up, and some
    replies to unknown parents."""
    tasks = []
    for index in range(first, first + count):
        streams = draw(st.lists(st.lists(words, max_size=12), max_size=4))
        posters = draw(st.lists(authors, max_size=6))
        parents = [
            (poster, draw(st.one_of(st.none(), authors)))
            for poster in posters if draw(st.booleans())
        ]
        replies = tuple((poster, parent) for poster, parent in parents if parent is not None)
        tasks.append(_WindowTask(
            index, tuple(posters), replies, len(parents) - len(replies), tuple(streams), FOCAL,
            None, None,
        ))
    return tasks


def chunk_config(mode: str, samples: int, seed: int, window_size: int) -> PipelineConfig:
    return PipelineConfig(
        betweenness_mode=mode, betweenness_samples=samples, seed=seed,
        window_size=window_size, export_graphs=True,
    )


def freeman_betweenness_centralization(raw: dict) -> float:
    """The textbook formula: each raw score over (n-1)(n-2), then the spread
    around the largest over n - 1."""
    n = len(raw)
    scores = [float(score) / ((n - 1) * (n - 2)) for score in raw.values()]
    return sum(max(scores) - c for c in scores) / (n - 1)


def assert_close(got: float, expected: float) -> None:
    assert (got == 0.0) == (expected == 0.0)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestChunkMatchesWindowsAlone:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        count=st.integers(min_value=1, max_value=6),
        mode=st.sampled_from(["exact", "sampled"]),
        samples=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
        window_size=st.integers(min_value=1, max_value=3),
        # 4: graphs of 5 or more nodes are stacks of one, next to the
        # stacked small ones, and sweep light, or heavy (CSC) at -1.
        dense_limit=st.sampled_from([centrality.DENSE_NODE_LIMIT, 4]),
        light_arcs=st.sampled_from([centrality.LIGHT_SWEEP_ARCS, -1]),
    )
    def test_chunk_equals_windows_alone_and_oracles(
        self, data, count, mode, samples, seed, window_size, dense_limit, light_arcs
    ):
        tasks = data.draw(window_tasks(first=3, count=count))
        config = chunk_config(mode, samples, seed, window_size)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(centrality, "DENSE_NODE_LIMIT", dense_limit)
            patch.setattr(centrality, "LIGHT_SWEEP_ARCS", light_arcs)
            chunk = _compute_chunk(tasks, config)
            alone = [_compute_chunk([task], config)[0] for task in tasks]
            word_graphs = build_word_networks([t.streams for t in tasks], window_size)
            interactions = build_interaction_networks((t.authors, t.replies) for t in tasks)
            grouped = [g for g in interactions if g.n >= 3]
            group_scores = betweenness_centralities(grouped)
            jobs = []
            for task, g in zip(tasks, word_graphs):
                if FOCAL in g.nodes:
                    if mode == "sampled":
                        sources, scale = sample_sources(g, min(samples, g.n), seed + task.index)
                    else:
                        sources, scale = range(g.n), 1.0
                    jobs.append((g, g.node_id(FOCAL), sources, scale))
            focal_scores = vertex_betweennesses(
                [g for g, _, _, _ in jobs], [v for _, v, _, _ in jobs],
                [s for _, _, s, _ in jobs], [scale for _, _, _, scale in jobs],
            )
            # bit for bit what each window gives alone
            assert repr(chunk) == repr(alone)
            for task, g, h in zip(tasks, word_graphs, interactions):
                assert same_graph(g, build_word_network(task.streams, window_size))
                assert same_graph(h, build_interaction_network(task.authors, task.replies))
            for g, scores in zip(grouped, group_scores):
                assert scores.tobytes() == betweenness_centrality(g).tobytes()
            for (g, focal, sources, scale), score in zip(jobs, focal_scores):
                assert score.hex() == vertex_score(g, focal, sources, scale).hex()

        # and what the oracles give
        for task, result, g in zip(tasks, chunk, word_graphs):
            pairs, identical = enumerate_cooccurrences(task.streams, window_size)
            assert arcs(g) == dict(sorted(pairs.items()))
            assert g.self_loop_events == identical
            activity, activity_words, group_degree, group_betweenness, _, focal, present = (
                result.graph_features
            )
            assert (activity, activity_words) == (len(task.authors), sum(pairs.values()))
            assert present == (FOCAL in g.nodes)
            if not present:
                assert focal == 0.0
        for task, h, result in zip(tasks, interactions, chunk):
            comments, self_replies, dangling = result.diagnostics[-3:]
            assert (comments, dangling) == (len(task.replies) + task.dangling, task.dangling)
            assert self_replies == sum(replier == parent for replier, parent in task.replies)
            group_betweenness = result.graph_features[3]
            if h.n < 3:
                assert group_betweenness is None
            else:
                raw = brute_force_betweenness(h.nodes, arcs(h))
                assert_close(group_betweenness, freeman_betweenness_centralization(raw))
        present = [result for result in chunk if result.graph_features[6]]
        for (g, _, sources, scale), result in zip(jobs, present):
            names = [g.nodes[s] for s in sources]
            raw = brute_force_betweenness(g.nodes, arcs(g), names)[FOCAL] * scale
            expected = float(raw) / ((g.n - 1) * (g.n - 2)) if g.n >= 3 else 0.0
            assert_close(result.graph_features[5], expected)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_many_windows_of_equal_size(self, mode):
        # 40 windows of 10-16 words: stacks of several graphs each, with rows
        # long enough that NumPy's summation would group a padded row apart.
        rng = random.Random(5)
        tasks = []
        for index in range(40):
            vocabulary = [FOCAL, *rng.sample([f"w{i:02d}" for i in range(1, 30)], 15)]
            streams = tuple(
                [rng.choice(vocabulary) for _ in range(rng.randrange(2, 9))]
                for _ in range(rng.randrange(2, 8))
            )
            posters = tuple(rng.choice("abcdef") for _ in range(6))
            replies = tuple((p, rng.choice("abcdef")) for p in posters)
            tasks.append(_WindowTask(index, posters, replies, 0, streams, FOCAL, None, None))
        config = chunk_config(mode, 6, 3, 3)
        chunk = _compute_chunk(tasks, config)
        assert repr(chunk) == repr([_compute_chunk([task], config)[0] for task in tasks])
        sizes = [result.diagnostics[2] for result in chunk if result.graph_features[6]]
        assert max(map(sizes.count, sizes)) >= 4

    def test_graph_above_dense_limit_in_a_chunk(self):
        # One 150-word chain among small windows: a light stack of one.
        chain = [[f"c{i:03d}" for i in range(150)] + [FOCAL]]
        tasks = [
            _WindowTask(0, ("u0",), (), 0, (("w0", "w1", "w2"),), FOCAL, None, None),
            _WindowTask(1, ("u1",), (), 0, tuple(chain), FOCAL, None, None),
            _WindowTask(2, ("u2",), (), 0, (("w1", "w0", "w2"),), FOCAL, None, None),
        ]
        config = chunk_config("sampled", 5, 11, 2)
        chunk = _compute_chunk(tasks, config)
        assert repr(chunk) == repr([_compute_chunk([task], config)[0] for task in tasks])
        big = build_word_network(chain, 2)
        assert big.n > centrality.DENSE_NODE_LIMIT
        sources, scale = sample_sources(big, 5, 11 + 1)
        names = [big.nodes[s] for s in sources]
        raw = brute_force_betweenness(big.nodes, arcs(big), names)[FOCAL] * scale
        assert_close(chunk[1].graph_features[5], float(raw) / ((big.n - 1) * (big.n - 2)))


class TestStackedKernels:
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_stacks_of_random_digraphs(self, mode):
        # Sums of many unlike fractions: a row summed over other than its own
        # n targets, or dependencies added in another order, would show.
        rng = random.Random(17)
        graphs = [random_digraph(rng, n, 0.12) for n in (20, 30, 20, 30, 20, 9, 20, 30)]
        for node in range(9):
            nodes = [node] * len(graphs)
            if mode == "exact":
                sources, scales = [range(g.n) for g in graphs], [1.0] * len(graphs)
            else:
                drawn = [sample_sources(g, 7, seed) for seed, g in enumerate(graphs)]
                sources, scales = [s for s, _ in drawn], [scale for _, scale in drawn]
            stacked = vertex_betweennesses(graphs, nodes, sources, scales)
            for g, v, s, scale, score in zip(graphs, nodes, sources, scales, stacked):
                assert score.hex() == vertex_score(g, v, s, scale).hex()
        for g, scores in zip(graphs, betweenness_centralities(graphs)):
            assert scores.tobytes() == betweenness_centrality(g).tobytes()


def layered_dag_streams(layers: int) -> list[list[str]]:
    """Two words per layer, each followed once by each word of the next
    layer: at window size 1, a0000 has 2**(k-1) geodesics to layer k."""
    return [
        [f"{a}{k:04d}", f"{b}{k + 1:04d}"]
        for k in range(layers - 1) for a in "ab" for b in "ab"
    ]


class TestOverflowNamesItsWindow:
    def test_kernel_names_the_graph(self):
        small = build_word_network([["a", "b", "c"]], 1)
        dag = build_word_network(layered_dag_streams(1100), 1)
        with pytest.raises(PathCountOverflow, match="float range") as caught:
            vertex_betweennesses(
                [small, dag, small], [1, dag.node_id("a0500"), 1],
                [[0], [dag.node_id("a0000")], [0]], [1.0, 1.0, 1.0],
            )
        assert caught.value.graph == 1

    def test_chunk_names_the_window(self):
        streams = layered_dag_streams(1100)
        dag = build_word_network(streams, 1)
        # A seed whose one-source sample in window 8 lies on layer 50 or
        # above it, from where some count passes 2**1024.
        seed = next(
            s for s in range(1000)
            if int(dag.nodes[sample_sources(dag, 1, s + 8)[0][0]][1:]) <= 50
        )
        tasks = [
            _WindowTask(7, (), (), 0, (("a0500", "x"), ("x", "a0500")), "a0500", None, None),
            _WindowTask(8, (), (), 0, tuple(streams), "a0500", None, None),
            _WindowTask(9, (), (), 0, (("a0500", "x"),), "a0500", None, None),
        ]
        with pytest.raises(AnalysisError, match="^window 8: shortest-path counts exceed"):
            _compute_chunk(tasks, chunk_config("sampled", 1, seed, 1))


class TestChunking:
    def test_chunk_closes_before_it_passes_the_cap(self):
        def task(index, tokens):
            return _WindowTask(index, (), (), 0, (["w"] * tokens,), FOCAL, None, None)

        sizes = [CHUNK_TOKENS // 2, CHUNK_TOKENS // 2, 1, CHUNK_TOKENS + 1, 0, 3, CHUNK_TOKENS]
        chunks = list(_chunks([task(i, size) for i, size in enumerate(sizes)]))
        assert [[t.index for t in chunk] for chunk in chunks] == [[0, 1], [2], [3], [4, 5], [6]]
