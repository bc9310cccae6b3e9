"""Breadth-first traversals and bounded-hop neighbourhoods.

Bounded simulation repeatedly needs "which nodes lie within ``k`` hops of
``v``" — both forward (``desc`` in paper Fig. 3) and backward (``anc``).
These helpers implement plain and bounded BFS over :class:`DiGraph`, plus
nonempty-path distances (a path must have length >= 1, so the distance from
``v`` to itself is the length of the shortest cycle through ``v``), and
:func:`within_probe`, a lazily expanded bounded BFS that answers "is ``c``
within ``k``?" for one target at a time.
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
    pair ``(a, c)`` gained or lost through the edge decomposes over them
    as ``d(a, x) + 1 + d(y, c) <= radius + 1`` (paper Section 6), so they
    are both IncBMatch's repair balls and its routing test.

    A finite-radius leg lists its nodes in nondecreasing distance order
    (BFS discovery order, on every backend), so the first member of a set
    met in it is the nearest.  An unbounded leg makes no such promise:
    the numpy CSR kernel returns it in node-id order.
    """
    return (
        bfs_distances(graph, x, radius, reverse=True),
        bfs_distances(graph, y, radius),
    )


def _ball_within(
    graph: DiGraph, anchor: Node, k: Optional[int], reverse: bool
) -> Dict[Node, int]:
    """Nonempty-path ball of ``anchor``: one BFS serves both the hop
    distances *and* the shortest cycle through ``anchor``, which is
    ``1 + dist(anchor, p)`` minimized over the anchor's in-neighbours ``p``
    (out-neighbours for the reverse ball), all labelled by the BFS itself
    when the cycle fits in ``k``."""
    # Dense-id backends run the same single BFS in id space.
    fast = getattr(graph, "_ball_within", None)
    if fast is not None:
        return fast(anchor, k, reverse)
    dist = bfs_distances(graph, anchor, max_depth=k, reverse=reverse)
    back = graph.children if reverse else graph.parents
    cycle: Optional[int] = None
    for p in back(anchor):
        d = dist.get(p)
        if d is not None and (cycle is None or d + 1 < cycle):
            cycle = d + 1
    del dist[anchor]
    if cycle is not None and (k is None or cycle <= k):
        dist[anchor] = cycle
    return dist


def descendants_within(graph: DiGraph, source: Node, k: Optional[int]) -> Dict[Node, int]:
    """Nodes reachable from ``source`` by a *nonempty* path of length <= k.

    ``k is None`` means unbounded (the ``*`` edge bound).  The source itself
    appears only if it lies on a cycle of length <= k.
    """
    return _ball_within(graph, source, k, reverse=False)


def ancestors_within(graph: DiGraph, target: Node, k: Optional[int]) -> Dict[Node, int]:
    """Nodes that reach ``target`` by a nonempty path of length <= k."""
    return _ball_within(graph, target, k, reverse=True)


class WithinProbe:
    """Lazily expanded BFS from ``source`` answering :meth:`reaches`: does a
    *nonempty* path of length <= ``k`` (unbounded if ``None``) lead to
    ``c``?

    Nodes are labelled only to depth ``k - 1``, and only as far as the
    targets asked so far need: each :meth:`reaches` resumes the expansion
    where the last one stopped and stops once its target is decided.  A
    target labelled at depth ``d >= 1`` is within ``k - 1``.  Once depth
    ``k - 1`` is complete, an unlabelled target is within ``k`` iff one of
    its parents is labelled — the last hop, tested from the smaller side;
    a parent at a lesser depth would already have labelled it.  So the
    widest layer, depth ``k``, is never expanded.  The source itself is
    within ``k`` iff a cycle closes through it: an edge back into it seen
    while expanding, or on the last hop.

    The probe reads the live graph: it is valid until the graph's edges
    change.  ``stats``, when given, is any object with an int
    ``probe_nodes`` attribute; every node the probe labels is counted
    there.
    """

    __slots__ = (
        "_source", "_last", "_children", "_parents", "_dist", "_queue",
        "_cycle", "_stats",
    )

    def __init__(
        self, graph: DiGraph, source: Node, k: Optional[int], stats=None
    ) -> None:
        self._children = graph.children
        self._parents = graph.parents
        self._source = source
        # Nodes at depth < _last are expanded; None expands everything.
        self._last = None if k is None else k - 1
        self._dist: Dict[Node, int] = {source: 0}
        self._queue = deque([source] if self._last != 0 else ())
        self._cycle = False
        self._stats = stats
        if stats is not None:
            stats.probe_nodes += 1

    def reaches(self, c: Node) -> bool:
        """Is ``c`` within ``k`` of the source by a nonempty path?"""
        dist = self._dist
        if c == self._source:
            if self._cycle or self._expand(c, True):
                return True
        elif c in dist or self._expand(c, False):
            return True
        return not self._parents(c).isdisjoint(dist.keys())

    def _expand(self, c: Node, is_source: bool) -> bool:
        """Label until ``c`` is decided inside depth ``k - 1`` (True) or
        depth ``k - 1`` is complete (False)."""
        dist = self._dist
        queue = self._queue
        source = self._source
        children = self._children
        last = self._last
        before = len(dist)
        found = False
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            for w in children(v):
                if w not in dist:
                    dist[w] = d
                    if d != last:
                        queue.append(w)
                elif w == source:
                    self._cycle = True
            if self._cycle if is_source else c in dist:
                found = True
                break
        if self._stats is not None:
            self._stats.probe_nodes += len(dist) - before
        return found


def within_probe(
    graph: DiGraph, source: Node, k: Optional[int], stats=None
) -> WithinProbe:
    """A :class:`WithinProbe` from ``source`` at bound ``k``.

    Dense-id backends return an id-space twin with the same
    ``reaches`` contract (the :func:`bfs_distances` hook pattern).
    """
    fast = getattr(graph, "_within_probe", None)
    if fast is not None:
        return fast(source, k, stats)
    return WithinProbe(graph, source, k, stats)


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
