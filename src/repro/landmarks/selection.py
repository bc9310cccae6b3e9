"""Landmark selection (paper Section 6.2).

A landmark vector must contain, for every node pair, a node on some
shortest path between them.  Any vertex cover qualifies: each edge of a
shortest path has an endpoint in the cover.  The paper computes "a minimum
vertex cover ... using [a] heuristic algorithm" and prefers stable,
high-degree nodes (Example 6.2); ``InsLM`` keeps the cover by adding one
endpoint of each inserted edge it leaves uncovered (Prop. 6.2).  One rule,
:func:`cover_endpoint`, makes that choice everywhere: ``BatchLM``
(:func:`select_landmarks`) applies it to every edge of the graph,
``InsLM`` to each uncovered inserted edge.
"""

from __future__ import annotations

from typing import List, Set

from ..graphs.digraph import DiGraph, Node


def cover_endpoint(graph: DiGraph, x: Node, y: Node) -> Node:
    """The landmark that covers edge ``(x, y)`` when neither endpoint is
    one: the endpoint of higher degree, the source ``x`` on a tie (and
    so the node itself for a self-loop)."""
    deg_x = graph.out_degree(x) + graph.in_degree(x)
    return x if deg_x >= graph.out_degree(y) + graph.in_degree(y) else y


def select_landmarks(graph: DiGraph) -> List[Node]:
    """``BatchLM``'s cover: :func:`cover_endpoint` of every edge, in
    ``graph.edges()`` order, that no earlier choice covers; sorted by
    ``repr``."""
    cover: Set[Node] = set()
    for x, y in graph.edges():
        if x not in cover and y not in cover:
            cover.add(cover_endpoint(graph, x, y))
    return sorted(cover, key=repr)
