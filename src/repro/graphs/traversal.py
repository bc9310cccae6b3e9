"""Breadth-first traversals and bounded-hop neighbourhoods.

Bounded simulation repeatedly needs "which nodes lie within ``k`` hops of
``v``" — both forward (``desc`` in paper Fig. 3) and backward (``anc``).
These helpers implement plain and bounded BFS over :class:`DiGraph`, plus
nonempty-path distances (a path must have length >= 1, so the distance from
``v`` to itself is the length of the shortest cycle through ``v``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional, Set, Tuple

from .digraph import DiGraph, Node

INF = float("inf")
# (backward ball of x, forward ball of y): node -> possibly-empty-path hops.
Legs = Tuple[Dict[Node, int], Dict[Node, int]]


def bfs_distances(
    graph: DiGraph,
    source: Node,
    max_depth: Optional[int] = None,
    reverse: bool = False,
) -> Dict[Node, int]:
    """Hop distances from ``source`` (or *to* it when ``reverse``).

    Returns a dict mapping each reached node to its distance; the source
    maps to 0.  ``max_depth`` truncates the search.
    """
    # Backends that index nodes by dense ints (graphs/columnar.py) expose
    # an id-space BFS that skips per-neighbour view indirection and hashes
    # ints instead of node objects.
    fast = getattr(graph, "_bfs_distances", None)
    if fast is not None:
        return fast(source, max_depth, reverse)
    neighbours = graph.parents if reverse else graph.children
    dist: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if max_depth is not None and d >= max_depth:
            continue
        for w in neighbours(v):
            if w not in dist:
                dist[w] = d + 1
                queue.append(w)
    return dist


def edge_legs(graph: DiGraph, x: Node, y: Node, radius: Optional[int]) -> Legs:
    """The two legs of a witness path through the edge ``(x, y)``.

    Every node within ``radius`` possibly-empty hops *of* ``x`` (backward
    BFS, ``x`` itself at 0) and *from* ``y`` (forward BFS, ``y`` at 0);
    ``radius is None`` is plain reachability.  A bound-``radius + 1``
    pair gained or lost through the edge decomposes over them (paper
    Section 6), so they are both IncBMatch's repair balls and its
    routing test.
    """
    return (
        bfs_distances(graph, x, radius, reverse=True),
        bfs_distances(graph, y, radius),
    )


def descendants_within(graph: DiGraph, source: Node, k: Optional[int]) -> Dict[Node, int]:
    """Nodes reachable from ``source`` by a *nonempty* path of length <= k.

    ``k is None`` means unbounded (the ``*`` edge bound).  The source itself
    appears only if it lies on a cycle of length <= k.
    """
    # Dense-id backends fuse the distance BFS and the cycle check into a
    # single id-space pass (the cycle through ``source`` is one hop back
    # from a node the forward frontier already labelled).
    fast = getattr(graph, "_descendants_within", None)
    if fast is not None:
        return fast(source, k)
    dist = bfs_distances(graph, source, max_depth=k)
    out: Dict[Node, int] = {}
    for node, d in dist.items():
        if node == source:
            continue
        out[node] = d
    # Nonempty path back to the source: shortest cycle through source.
    cycle = shortest_cycle_through(graph, source, max_len=k)
    if cycle is not None:
        out[source] = cycle
    return out


def ancestors_within(graph: DiGraph, target: Node, k: Optional[int]) -> Dict[Node, int]:
    """Nodes that reach ``target`` by a nonempty path of length <= k."""
    fast = getattr(graph, "_ancestors_within", None)
    if fast is not None:
        return fast(target, k)
    dist = bfs_distances(graph, target, max_depth=k, reverse=True)
    out: Dict[Node, int] = {}
    for node, d in dist.items():
        if node == target:
            continue
        out[node] = d
    cycle = shortest_cycle_through(graph, target, max_len=k)
    if cycle is not None:
        out[target] = cycle
    return out


def shortest_cycle_through(
    graph: DiGraph, node: Node, max_len: Optional[int] = None
) -> Optional[int]:
    """Length of the shortest directed cycle through ``node``, or None.

    This is ``1 + dist(child, node)`` minimized over children; a self-loop
    gives 1.
    """
    fast = getattr(graph, "_shortest_cycle_through", None)
    if fast is not None:
        return fast(node, max_len)
    if graph.has_edge(node, node):
        return 1
    limit = None if max_len is None else max_len - 1
    back = bfs_distances(graph, node, max_depth=limit, reverse=True)
    best: Optional[int] = None
    for child in graph.children(node):
        d = back.get(child)
        if d is None:
            continue
        length = d + 1
        if max_len is not None and length > max_len:
            continue
        if best is None or length < best:
            best = length
    return best


def path_distance(graph: DiGraph, v: Node, w: Node, k: Optional[int] = None) -> float:
    """Shortest *nonempty* path length from ``v`` to ``w`` (INF if none).

    For ``v != w`` this is the ordinary BFS distance; for ``v == w`` it is
    the shortest cycle length.  ``k`` truncates the search.
    """
    if v == w:
        cyc = shortest_cycle_through(graph, v, max_len=k)
        return INF if cyc is None else cyc
    dist = bfs_distances(graph, v, max_depth=k)
    d = dist.get(w)
    return INF if d is None else d


def is_reachable(graph: DiGraph, v: Node, w: Node) -> bool:
    """True iff a nonempty path leads from ``v`` to ``w``."""
    return path_distance(graph, v, w) != INF


def reachable_set(graph: DiGraph, sources: Iterable[Node], reverse: bool = False) -> Set[Node]:
    """All nodes reachable (possibly trivially) from any of ``sources``."""
    fast = getattr(graph, "_reachable_set", None)
    if fast is not None:
        return fast(sources, reverse)
    neighbours = graph.parents if reverse else graph.children
    seen: Set[Node] = set()
    queue = deque()
    for s in sources:
        if s not in seen:
            seen.add(s)
            queue.append(s)
    while queue:
        v = queue.popleft()
        for w in neighbours(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def has_path_of_length_at_most(
    graph: DiGraph, v: Node, w: Node, k: Optional[int]
) -> bool:
    """Does a nonempty path of length <= k (unbounded if None) join v to w?"""
    d = path_distance(graph, v, w, k=k)
    if k is None:
        return d != INF
    return d <= k
