"""Ground truth for distance-aware routing, recomputed by BFS.

An update of the edge ``(x, y)`` can create or break a pair ``(a, c)``
under a pattern edge of bound ``k`` only through a witness path of length
<= ``k`` that runs through the edge, so
``d(a, x) + 1 + d(y, c) <= k`` over possibly-empty paths (no sum test for
``*``).  A pool's router, in every distance mode, must route an update
of ``(x, y)`` to a distance-routed query exactly when some eligible pair
of its index meets that rule for some pattern edge.
"""

from __future__ import annotations

from typing import Dict

from repro.graphs.digraph import DiGraph, Node
from repro.graphs.traversal import bfs_distances

Distances = Dict[Node, Dict[Node, int]]


def distances_from_every_node(graph: DiGraph) -> Distances:
    """Possibly-empty-path hop distances, one full BFS per node."""
    return {v: bfs_distances(graph, v) for v in graph.nodes()}


def pool_routes(pool, query, x: Node, y: Node) -> bool:
    """Does ``pool``'s router hand an update of ``(x, y)`` to ``query``
    (a router-registered query, such as a plan-interned one)?  Ask it
    between flushes, when the substrate's memoized legs are those of the
    current graph."""
    graph = pool.graph
    return query in pool._router.route_edge(
        x, y, graph.attrs(x), graph.attrs(y)
    )


def edge_routes(dist: Distances, index, x: Node, y: Node) -> bool:
    """Does an update of ``(x, y)`` route to the bounded ``index``?

    True iff for some pattern edge ``(u, u2)`` with bound ``k`` some
    ``a`` in ``index.eligible[u]`` and ``c`` in ``index.eligible[u2]``
    satisfy ``d(a, x) + 1 + d(y, c) <= k``; a ``*`` bound asks only that
    ``a`` reaches ``x`` and ``y`` reaches ``c``.
    ``dist`` is :func:`distances_from_every_node` of the current graph.
    """
    pattern = index.pattern
    from_y = dist[y]
    for u, u2 in pattern.edges():
        k = pattern.bound(u, u2)
        for a in index.eligible[u]:
            da = dist[a].get(x)
            if da is None:
                continue
            for c in index.eligible[u2]:
                dc = from_y.get(c)
                if dc is not None and (k is None or da + 1 + dc <= k):
                    return True
    return False
