from __future__ import annotations

import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from forumcast.errors import DataError
from forumcast.graphs import (
    DirectedWeightedGraph,
    activity,
    activity_words,
    build_interaction_network,
    build_word_network,
    graph_from_pairs,
)

from conftest import arcs, graph_from_arcs, make_message
from oracles import enumerate_cooccurrences

token = st.sampled_from(["a", "b", "c", "d", "e", "f"])
streams_strategy = st.lists(st.lists(token, max_size=12), max_size=6)
# Short strings over an alphabet with non-ASCII letters, a comma, a quote and
# NUL (which a NumPy unicode array would drop when trailing); few enough that
# tokens repeat.
wide_token = st.text(alphabet="aAzé日ß,\"\x00", min_size=1, max_size=3)


@st.composite
def arc_maps(draw):
    """{(source, target): weight} over wide_token names, plus isolated nodes."""
    names = draw(st.lists(wide_token, min_size=1, max_size=8, unique=True))
    arc_weights = {}
    for a in names:
        for b in names:
            if a != b and draw(st.booleans()):
                arc_weights[(a, b)] = draw(st.integers(min_value=1, max_value=5))
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
        codes = given.arc_sources().astype(np.int64) * n + given.indices
        rng = np.random.default_rng(seed)
        events = np.concatenate([
            np.repeat(codes, given.weights), rng.integers(0, n, size=loops) * (n + 1)
        ])
        counted = graph_from_pairs(given.nodes, rng.permutation(events))
        assert counted == DirectedWeightedGraph(
            given.nodes, codes, given.weights, self_loop_events=loops
        )
        assert arcs(counted) == arc_weights
        assert counted.self_loop_events == loops
        assert counted.total_weight == sum(arc_weights.values())

    @given(arc_maps())
    def test_adjacency_views_sorted(self, drawn):
        arc_weights, isolated = drawn
        g = graph_from_arcs(arc_weights, nodes=isolated)
        assert list(arcs(g)) == sorted(arc_weights)

    @given(arc_maps())
    def test_arc_sources_computed_once_and_frozen(self, drawn):
        arc_weights, isolated = drawn
        g = graph_from_arcs(arc_weights, nodes=isolated)
        sources = g.arc_sources()
        assert sources is g.arc_sources()
        assert sources.dtype == np.int32
        assert not sources.flags.writeable
        np.testing.assert_array_equal(sources, np.repeat(np.arange(g.n), np.diff(g.indptr)))

    def test_unknown_node_is_key_error(self):
        g = graph_from_arcs({("a", "c"): 1})
        for node in ("b", "", "d"):
            with pytest.raises(KeyError):
                g.node_id(node)

    @given(arc_maps(), st.integers(min_value=0, max_value=1100), st.integers(1, 4))
    def test_edge_list_bytes_match_sorted_rendering(self, drawn, week, block_rows):
        arc_weights, isolated = drawn
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerows(sorted((week, a, b, w) for (a, b), w in arc_weights.items()))
        blocks = list(
            graph_from_arcs(arc_weights, nodes=isolated).edge_table_rows(week, block_rows)
        )
        assert b"".join(blocks) == expected.getvalue().encode("utf-8")
        assert all(block.count(b"\r\n") <= block_rows for block in blocks)

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
        assert forward == backward


class TestInteractionNetwork:
    def test_reply_creates_reversed_arc(self):
        post = make_message("p", "alice")
        comment = make_message("c", "bob", parent="p", offset_hours=1)
        g, tallies = build_interaction_network([post, comment])
        assert arcs(g) == {("bob", "alice"): 1}
        assert tallies.comments == 1
        assert tallies.self_replies == 0
        assert tallies.dangling_parents == 0

    def test_self_reply_tally_no_arc(self):
        post = make_message("p", "alice")
        own = make_message("c", "alice", parent="p", offset_hours=1)
        g, tallies = build_interaction_network([post, own])
        assert g.m == 0
        assert g.nodes == ("alice",)
        assert tallies.self_replies == 1
        assert g.self_loop_events == 1

    def test_repeat_replies_accumulate_weight(self):
        msgs = [
            make_message("p", "alice"),
            make_message("c1", "bob", parent="p", offset_hours=1),
            make_message("c2", "bob", parent="p", offset_hours=2),
        ]
        g, tallies = build_interaction_network(msgs)
        assert arcs(g) == {("bob", "alice"): 2}
        assert g.m == 1 and g.total_weight == 2
        assert tallies.comments == 2

    def test_dangling_parent_skipped_and_counted(self, caplog):
        msgs = [make_message("c", "bob", parent="ghost")]
        with caplog.at_level("WARNING"):
            g, tallies = build_interaction_network(msgs)
        assert g.m == 0
        assert tallies.dangling_parents == 1
        assert any("ghost" in record.message for record in caplog.records)

    def test_one_warning_per_call_counts_dangling(self, caplog):
        msgs = [make_message("p", "alice")] + [
            make_message(f"c{i}", "bob", parent=f"ghost{i}", offset_hours=i + 1)
            for i in range(3)
        ]
        with caplog.at_level("WARNING"):
            _g, tallies = build_interaction_network(msgs)
        assert tallies.dangling_parents == 3
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "3 replies" in warnings[0].getMessage()
        assert "ghost0" in warnings[0].getMessage()

    def test_external_author_map_resolves_cross_window_parents(self):
        comment = make_message("c", "bob", parent="old-post", week=1)
        g, tallies = build_interaction_network([comment], {"old-post": "alice", "c": "bob"})
        assert arcs(g) == {("bob", "alice"): 1}
        assert tallies.dangling_parents == 0

    def test_message_order_irrelevant(self):
        msgs = [
            make_message("p", "alice"),
            make_message("c1", "bob", parent="p", offset_hours=1),
            make_message("c2", "carol", parent="c1", offset_hours=2),
        ]
        a, _ = build_interaction_network(msgs)
        b, _ = build_interaction_network(list(reversed(msgs)))
        assert a == b

    def test_weight_conservation_random_threads(self):
        rng = random.Random(99)
        for trial in range(40):
            authors = [f"u{i}" for i in range(rng.randrange(2, 6))]
            msgs = [make_message("m0", rng.choice(authors))]
            for i in range(1, rng.randrange(2, 25)):
                parent = rng.choice([None, "ghost", rng.choice(msgs).id])
                msgs.append(
                    make_message(f"m{i}", rng.choice(authors), parent=parent, offset_hours=i)
                )
            g, tallies = build_interaction_network(msgs)
            comments = sum(1 for m in msgs if m.parent_id is not None)
            assert (
                g.total_weight + tallies.self_replies + tallies.dangling_parents == comments
            )
            assert tallies.comments == comments


class TestActivity:
    def test_activity_counts_messages(self):
        assert activity([]) == 0
        assert activity([make_message(f"m{i}", "u") for i in range(5)]) == 5

    def test_activity_words_reads_total_weight(self):
        assert activity_words(build_word_network([])) == 0
        assert activity_words(build_word_network([["hello", "dolly"]])) == 1
        assert activity_words(build_word_network([["a", "b", "a", "b"]])) == 4
