#!/usr/bin/env python3
"""Time a word-network build at forum scale.

Synthesizes token streams over a 16k-word vocabulary (Zipf-weighted draws
plus one pass over the full vocabulary so every word appears) until the
co-occurrence event count passes the target, builds the graph, and reports
node/arc/event counts, wall time and the process's peak RSS before and after
the build. Also times the sampled betweenness of the highest-degree word,
scored as the pipeline scores its focal word, the documented path for graphs
of this size.

Usage:
    python scripts/benchmark_word_network.py [--events 6000000] [--seed 1]
"""

import argparse
import random
import resource
import time

from forumcast.centrality import degree_centrality, sample_sources, vertex_betweenness
from forumcast.graphs import build_word_network


def synthesize_streams(vocab_size: int, target_events: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    words = [f"w{i:05d}" for i in range(vocab_size)]
    weights = [1.0 / (rank + 1) ** 1.5 for rank in range(vocab_size)]
    streams: list[list[str]] = [list(words)]  # every word occurs at least once
    # A stream of length L >= 7 yields 7L - 28 ordered pairs. Zipf draws make
    # ~18% of those identical-word pairs, which the builder tallies but does
    # not store, so overshoot the raw-pair budget to land past the target.
    budget = int(target_events * 1.3)
    raw_pairs = 7 * vocab_size - 28
    while raw_pairs < budget:
        length = 80 + rng.randrange(80)
        streams.append(rng.choices(words, weights=weights, k=length))
        raw_pairs += 7 * length - 28
    return streams


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vocab", type=int, default=16000)
    parser.add_argument("--events", type=int, default=6_000_000)
    parser.add_argument("--samples", type=int, default=32)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    streams = synthesize_streams(args.vocab, args.events, args.seed)
    tokens = sum(len(s) for s in streams)
    print(f"{len(streams)} streams, {tokens} tokens, peak RSS {peak_rss_mb():.0f} MB")

    t0 = time.perf_counter()
    graph = build_word_network(streams, 7)
    build_seconds = time.perf_counter() - t0
    print(
        f"build: {build_seconds:.2f}s  n={graph.n}  m={graph.m}"
        f"  events={graph.total_weight}  self_pairs={graph.self_loop_events}"
        f"  peak RSS {peak_rss_mb():.0f} MB"
    )

    degree = degree_centrality(graph).raw
    word = max(degree, key=degree.get)
    sources, scale = sample_sources(graph, min(args.samples, graph.n), args.seed)
    t0 = time.perf_counter()
    vertex_betweenness(graph, word, sources, scale)
    sample_seconds = time.perf_counter() - t0
    print(
        f"sampled betweenness of {word!r} (degree {degree[word]:.0f},"
        f" {len(sources)} sources): {sample_seconds:.2f}s"
    )


if __name__ == "__main__":
    main()
