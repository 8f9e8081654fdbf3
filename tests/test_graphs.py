from __future__ import annotations

import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from forumcast import graphs
from forumcast.config import PipelineConfig
from forumcast.errors import DataError
from forumcast.graphs import (
    build_interaction_network,
    build_word_network,
    graphs_from_pairs,
)
from forumcast.pipeline import _compute_chunk, _WindowTask

from conftest import arcs, graph_from_arcs, same_graph
from oracles import enumerate_cooccurrences

token = st.sampled_from(["a", "b", "c", "d", "e", "f"])
streams_strategy = st.lists(st.lists(token, max_size=12), max_size=6)
# Short strings over an alphabet with non-ASCII letters, the characters that
# make csv.writer quote a field (a comma, a quote, CR and LF), a space and NUL
# (which a NumPy unicode array would drop when trailing); few enough that
# tokens repeat, and that some graphs name no node that needs quoting.
wide_token = st.text(alphabet="aAzé日ß,\"\r\n \x00", min_size=1, max_size=3)


@st.composite
def arc_maps(draw, weights=st.integers(min_value=1, max_value=5)):
    """{(source, target): weight} over wide_token names, plus isolated nodes."""
    names = draw(st.lists(wide_token, min_size=1, max_size=8, unique=True))
    arc_weights = {}
    for a in names:
        for b in names:
            if a != b and draw(st.booleans()):
                arc_weights[(a, b)] = draw(weights)
    isolated = draw(st.lists(wide_token, max_size=3))
    return arc_weights, isolated


class TestGraphType:
    def test_counts_and_nodes(self):
        g = graph_from_arcs({("a", "b"): 2, ("b", "c"): 1}, nodes={"d"})
        assert g.n == 4
        assert g.m == 2
        assert g.total_weight == 3
        assert g.nodes == ("a", "b", "c", "d")

    def test_adjacency_sorted(self):
        g = graph_from_arcs({("a", "c"): 1, ("a", "b"): 1, ("d", "a"): 1})
        assert list(arcs(g)) == [("a", "b"), ("a", "c"), ("d", "a")]

    @given(arc_maps(), st.integers(min_value=0, max_value=4), st.integers(0, 2**32 - 1))
    def test_counted_pairs_equal_given_weights(self, drawn, loops, seed):
        # Each arc as `weight` pair events plus `loops` identical-node events,
        # shuffled: counting them gives back the arcs and the loop tally.
        arc_weights, isolated = drawn
        given = graph_from_arcs(arc_weights, nodes=isolated)
        n = given.n
        if n == 0:
            loops = 0
        codes = given.sources.astype(np.int64) * n + given.indices
        rng = np.random.default_rng(seed)
        events = np.concatenate([
            np.repeat(codes, given.weights), rng.integers(0, n, size=loops) * (n + 1)
        ])
        (counted,) = graphs_from_pairs([given.nodes], rng.permutation(events))
        assert same_graph(counted, given._replace(self_loop_events=loops))
        assert arcs(counted) == arc_weights
        assert counted.self_loop_events == loops
        assert counted.total_weight == sum(arc_weights.values())

    @given(arc_maps())
    def test_adjacency_views_sorted(self, drawn):
        arc_weights, isolated = drawn
        g = graph_from_arcs(arc_weights, nodes=isolated)
        assert list(arcs(g)) == sorted(arc_weights)

    @given(arc_maps())
    def test_arc_sources_frozen_int32(self, drawn):
        arc_weights, isolated = drawn
        given = graph_from_arcs(arc_weights, nodes=isolated)
        n = given.n
        (g,) = graphs_from_pairs([given.nodes], given.sources.astype(np.int64) * n + given.indices)
        assert g.sources.dtype == np.int32
        assert not g.sources.flags.writeable
        np.testing.assert_array_equal(g.sources, np.repeat(np.arange(n), np.diff(g.indptr)))

    def test_unknown_node_is_key_error(self):
        g = graph_from_arcs({("a", "c"): 1})
        for node in ("b", "", "d"):
            with pytest.raises(KeyError):
                g.node_id(node)

    @given(
        # Weight 1 often, so that some graphs have only rows of weight 1.
        arc_maps(weights=st.one_of(st.just(1), st.integers(min_value=1, max_value=10**12))),
        st.integers(min_value=0, max_value=1100),
        st.integers(1, 4),
    )
    def test_edge_list_bytes_match_sorted_rendering(self, drawn, week, block_rows):
        arc_weights, isolated = drawn
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerows(sorted((week, a, b, w) for (a, b), w in arc_weights.items()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graphs, "EDGE_BLOCK_ROWS", block_rows)
            blocks = list(graph_from_arcs(arc_weights, nodes=isolated).edge_table_rows(week))
        assert b"".join(blocks) == expected.getvalue().encode("utf-8")
        # A quoted name may hold a line break, so the rows are counted by
        # parsing each block.
        for block in blocks:
            assert len(list(csv.reader(io.StringIO(block.decode("utf-8"), newline="")))) <= block_rows

    @given(st.lists(st.text(alphabet="ab,\"\r\n \x00é", max_size=3), max_size=6))
    def test_csv_fields_match_csv_writer(self, names):
        # Each name as a middle field of a row, which is how an edge table
        # row holds it.
        expected = []
        for name in names:
            row = io.StringIO(newline="")
            csv.writer(row).writerow(("x", name, "x"))
            expected.append(row.getvalue()[2:-4])
        assert list(graphs._csv_fields(tuple(names))) == expected

    def test_edge_list_export_sorted(self):
        g = graph_from_arcs({("b", "a"): 2, ("a", "b"): 1})
        assert b"".join(g.edge_table_rows(7)).decode().splitlines() == [
            "7,a,b,1",
            "7,b,a,2",
        ]


class TestWordNetwork:
    def test_two_token_stream(self):
        g = build_word_network([["hello", "dolly"]])
        assert g.nodes == ("dolly", "hello")
        assert arcs(g) == {("hello", "dolly"): 1}

    def test_three_tokens_all_ordered_pairs(self):
        g = build_word_network([["a", "b", "c"]])
        assert arcs(g) == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
        assert g.total_weight == 3

    def test_repeated_words_tally_self_pairs(self):
        # [a,b,a,b]: six raw ordered pairs, two of them identical-word
        g = build_word_network([["a", "b", "a", "b"]])
        pairs, identical = enumerate_cooccurrences([["a", "b", "a", "b"]], 7)
        assert arcs(g) == dict(pairs)
        assert g.self_loop_events == identical == 2
        assert g.total_weight == 4

    def test_window_limits_distance(self):
        g = build_word_network([["a", "b", "c", "d"]], window_size=1)
        assert arcs(g) == {("a", "b"): 1, ("b", "c"): 1, ("c", "d"): 1}

    def test_closed_form_distinct_tokens(self):
        for length in (7, 8, 20, 100):
            stream = [f"t{i}" for i in range(length)]
            g = build_word_network([stream], 7)
            pairs, identical = enumerate_cooccurrences([stream], 7)
            assert g.total_weight == 7 * length - 28
            assert g.total_weight == sum(pairs.values())
            assert identical == 0

    def test_streams_do_not_bridge(self):
        split = build_word_network([["a", "b"], ["c", "d"]])
        joined = build_word_network([["a", "b", "c", "d"]])
        assert ("b", "c") not in arcs(split)
        assert ("b", "c") in arcs(joined)

    def test_empty_and_single_token_streams(self):
        g = build_word_network([[], ["only"]])
        assert g.nodes == ("only",)
        assert g.m == 0

    def test_bad_window_size(self):
        with pytest.raises(DataError):
            build_word_network([["a", "b"]], 0)

    @given(streams_strategy, st.integers(min_value=1, max_value=9))
    def test_matches_bruteforce_enumeration(self, streams, window):
        g = build_word_network(streams, window)
        pairs, identical = enumerate_cooccurrences(streams, window)
        assert arcs(g) == dict(pairs)
        assert g.self_loop_events == identical

    @given(
        st.lists(st.lists(wide_token, max_size=14), max_size=6),
        st.integers(min_value=1, max_value=10),
    )
    def test_matches_bruteforce_wide_tokens(self, streams, window):
        # empty and one-token streams, repeats, non-ASCII and NUL-ended tokens
        g = build_word_network(streams, window)
        pairs, identical = enumerate_cooccurrences(streams, window)
        assert arcs(g) == dict(pairs)
        assert g.self_loop_events == identical
        assert g.nodes == tuple(sorted({t for stream in streams for t in stream}))

    @given(streams_strategy)
    def test_stream_order_irrelevant(self, streams):
        forward = build_word_network(streams)
        backward = build_word_network(list(reversed(streams)))
        assert same_graph(forward, backward)


class TestInteractionNetwork:
    def test_reply_creates_reversed_arc(self):
        g = build_interaction_network(["alice", "bob"], [("bob", "alice")])
        assert arcs(g) == {("bob", "alice"): 1}
        assert g.self_loop_events == 0

    def test_self_reply_tally_no_arc(self):
        g = build_interaction_network(["alice", "alice"], [("alice", "alice")])
        assert g.m == 0
        assert g.nodes == ("alice",)
        assert g.self_loop_events == 1

    def test_repeat_replies_accumulate_weight(self):
        g = build_interaction_network(
            ["alice", "bob", "bob"], [("bob", "alice"), ("bob", "alice")]
        )
        assert arcs(g) == {("bob", "alice"): 2}
        assert g.m == 1 and g.total_weight == 2

    def test_unknown_parent_skipped_and_counted(self):
        # The text pass keeps a reply to an unknown parent out of the
        # window's replies and counts it; the diagnostics row adds it back.
        task = _WindowTask(0, ("bob", "carol"), (("carol", "bob"),), 1, ([], []), "x", None, None)
        (result,) = _compute_chunk([task], PipelineConfig(), ())
        assert result.diagnostics[6:] == (2, 1, 1, 2, 0, 1)

    def test_parent_author_outside_the_window_is_a_node(self):
        g = build_interaction_network(["bob"], [("bob", "alice")])
        assert g.nodes == ("alice", "bob")
        assert arcs(g) == {("bob", "alice"): 1}

    def test_message_order_irrelevant(self):
        authors = ["alice", "bob", "carol"]
        replies = [("bob", "alice"), ("carol", "bob")]
        a = build_interaction_network(authors, replies)
        b = build_interaction_network(authors[::-1], replies[::-1])
        assert same_graph(a, b)

    def test_weight_conservation_random_threads(self):
        rng = random.Random(99)
        for trial in range(40):
            users = [f"u{i}" for i in range(rng.randrange(2, 6))]
            authors = [rng.choice(users) for _ in range(rng.randrange(2, 25))]
            replies = [
                (author, rng.choice(users)) for author in authors[1:] if rng.random() < 0.7
            ]
            g = build_interaction_network(authors, replies)
            assert g.total_weight + g.self_loop_events == len(replies)
            assert g.self_loop_events == sum(a == p for a, p in replies)


class TestActivity:
    """The two activity cells of a window's feature row."""

    @staticmethod
    def activity_cells(authors, streams) -> tuple[int, int]:
        task = _WindowTask(0, tuple(authors), (), 0, tuple(streams), "hello", None, None)
        (result,) = _compute_chunk([task], PipelineConfig(), ())
        return result.graph_features[:2]

    def test_activity_counts_messages(self):
        assert self.activity_cells([], [])[0] == 0
        assert self.activity_cells(["u", "v", "u", "u", "w"], [[]] * 5)[0] == 5

    def test_activity_words_reads_total_weight(self):
        assert self.activity_cells([], [])[1] == 0
        assert self.activity_cells(["u"], [["hello", "dolly"]])[1] == 1
        assert self.activity_cells(["u"], [["a", "b", "a", "b"]])[1] == 4
