"""Named corner-case graph shapes shared by the graph-helper and
pair-graph tests.

Each shape pins one structural corner case: an isolated node, a
self-loop, a two-cycle, a ring, SCCs joined by a bridge, a dense graph
with loops.
"""

from __future__ import annotations

import random

from repro.graphs.digraph import DiGraph


def _random_edges(seed, n, m):
    rnd = random.Random(seed)
    pairs = [(v, w) for v in range(n) for w in range(n)]
    return rnd.sample(pairs, m)


# name -> (edges, isolated nodes)
SHAPES = {
    "isolated": ([], ["a", "b"]),
    "self-loop": ([("a", "a"), ("a", "b")], []),
    "two-cycle": ([("a", "b"), ("b", "a"), ("b", "c")], []),
    "chain": ([(i, i + 1) for i in range(4)], []),
    "ring": ([(i, (i + 1) % 5) for i in range(5)], []),
    "diamond": ([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], []),
    "stars": (
        [("hub", f"out{i}") for i in range(3)]
        + [(f"in{i}", "hub") for i in range(3)],
        [],
    ),
    "complete": ([(v, w) for v in range(4) for w in range(4) if v != w], []),
    "bridged-sccs": (
        [
            ("a", "b"), ("b", "c"), ("c", "a"),
            ("c", "d"), ("d", "e"), ("e", "d"),
            ("e", "f"), ("g", "g"),
        ],
        [],
    ),
    "random": (_random_edges(67, 10, 22), []),
}


def shape_graph(shape: str) -> DiGraph:
    """A fresh graph of the named shape, without attributes."""
    edges, isolated = SHAPES[shape]
    g = DiGraph(edges)
    for v in isolated:
        g.add_node(v)
    return g
