"""Hypothesis strategies for random graphs, patterns and update batches."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graphs.digraph import DiGraph
from repro.incremental.types import Update, delete, insert
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate

LABELS = ["A", "B", "C"]


@st.composite
def small_graphs(draw, max_nodes: int = 8, labels=LABELS) -> DiGraph:
    """A small labelled digraph (possibly with self-loops)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    g = DiGraph()
    for v in range(n):
        g.add_node(v, label=draw(st.sampled_from(labels)))
    possible = [(v, w) for v in range(n) for w in range(n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=3 * n, unique=True)
    )
    for v, w in edges:
        g.add_edge(v, w)
    return g


@st.composite
def small_patterns(
    draw,
    max_nodes: int = 4,
    labels=LABELS,
    max_bound: int = 3,
    allow_star: bool = True,
    dag: bool = False,
    self_loops: bool = False,
    wildcards: bool = False,
) -> Pattern:
    """A small pattern over the same label alphabet as small_graphs;
    ``self_loops`` lets it draw pattern edges ``(u, u)``, and
    ``wildcards`` TRUE predicates, which attribute-less nodes satisfy."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    p = Pattern()
    choices = list(labels) + [None] if wildcards else labels
    for u in range(n):
        label = draw(st.sampled_from(choices))
        p.add_node(
            u, Predicate.true() if label is None else Predicate.label(label)
        )
    possible = [
        (u, w)
        for u in range(n)
        for w in range(n)
        if (u != w or self_loops) and (not dag or u < w)
    ]
    if possible:
        edges = draw(
            st.lists(st.sampled_from(possible), max_size=2 * n, unique=True)
        )
        bound_st = st.integers(min_value=1, max_value=max_bound)
        if allow_star:
            bound_st = st.one_of(bound_st, st.none())
        for u, w in edges:
            p.add_edge(u, w, draw(bound_st))
    return p


@st.composite
def update_batches(draw, graph: DiGraph, max_updates: int = 10):
    """A batch of updates valid for (but mutating beyond) ``graph``."""
    nodes = sorted(graph.nodes())
    existing = sorted(graph.edges())
    out = []
    count = draw(st.integers(min_value=0, max_value=max_updates))
    for _ in range(count):
        if existing and draw(st.booleans()):
            out.append(delete(*draw(st.sampled_from(existing))))
        else:
            v = draw(st.sampled_from(nodes))
            w = draw(st.sampled_from(nodes))
            out.append(insert(v, w))
    return out
