"""Ball fields: distance-aware update routing for bound-k queries.

A bounded-simulation pair ``(a, c)`` for pattern edge ``(u, u2)`` with
bound ``k`` can only be *created* or *broken* by a data edge ``(x, y)``
lying on a witness path, i.e. when ``d(a, x) <= k - 1`` and
``d(y, c) <= k - 1`` (possibly-empty legs, anchors at distance 0).  So an
edge update is relevant to the query only if its source sits in the union
of radius-``(k-1)`` *forward* balls around eligible sources and its target
in the union of radius-``(k-1)`` *backward* balls around eligible targets.

:class:`BallField` maintains one such union — a capped multi-source BFS
distance map over a *source set* owned by the caller — **exactly** under
every update class:

- edge insertions and source gains are a capped Dijkstra relaxation from
  the improved frontier (distances only decrease);
- edge deletions and source losses run a Ramalingam–Reps-style decremental
  repair: phase 1 walks the unsupported region in increasing stored
  distance (a node is supported when a support-direction neighbour sits
  exactly one layer closer, or when it is a pinned source), phase 2
  reseeds the affected region from its unaffected boundary and relaxes.

Because the repair is exact, the summary needs no staleness counters or
threshold rebuilds: it tightens on deletions immediately, so routing
pruning power never decays.

Fields are **stratified**: capped BFS entries at depth ``d < r`` do not
depend on the cap, so one field maintained at cap ``r_max`` answers
:meth:`BallField.within` for *every* radius ``r <= r_max`` — and the cap
itself can be raised (re-grow from the old frontier layer, which capped
BFS left un-relaxed) or lowered (truncate entries beyond the new cap)
exactly, without a rebuild.  The pool-level
:class:`~repro.engine.distances.SharedDistanceSubstrate` therefore leases
one field per ``(predicate, direction)`` that serves all leased radii.

Soundness contract: a bounded query's routing oracle built from a
source-side and a target-side field never answers ``False`` for an edge
that could create or break a pair on the graph state the fields have
observed (and, the fields being exact, it never answers ``True``
spuriously).  The :class:`~repro.engine.pool.MatcherPool` consults it
*pre-edit* for deletions and *post-edit* (after the fields absorbed the
insertion batch) for insertions, mirroring the two-phase deletion dance
of the repair path itself.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node


def _capped_multi_source(
    graph: DiGraph,
    sources: Iterable[Node],
    radius: Optional[int],
    reverse: bool = False,
) -> Dict[Node, int]:
    """Possibly-empty-path distances from the closest of ``sources``."""
    neighbours = graph.parents if reverse else graph.children
    dist: Dict[Node, int] = {}
    frontier: List[Node] = []
    for s in sources:
        if s in graph and s not in dist:
            dist[s] = 0
            frontier.append(s)
    depth = 0
    while frontier and (radius is None or depth < radius):
        depth += 1
        nxt: List[Node] = []
        for v in frontier:
            for w in neighbours(v):
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


class BallField:
    """One capped multi-source ball union, maintained exactly.

    ``sources`` is a live reference to a set the owner mutates *before*
    calling :meth:`source_gained` / :meth:`source_lost`; sources are pinned
    at distance 0.  ``reverse=True`` measures distances *to* the sources
    (BFS over reversed edges) — the target-side field of a pattern edge.
    All edge notifications expect the graph to have been mutated already.
    """

    __slots__ = ("_graph", "sources", "radius", "reverse", "dist", "rebuilds")

    def __init__(
        self,
        graph: DiGraph,
        sources: Set[Node],
        radius: Optional[int],
        reverse: bool = False,
    ) -> None:
        self._graph = graph
        self.sources = sources
        self.radius = radius
        self.reverse = reverse
        self.dist: Dict[Node, int] = {}
        # Full from-scratch recomputations, the initial build included.
        # Steady-state maintenance (shrink/grow/source flips/re-caps) is
        # incremental and must never bump this — the pool's temporal
        # suites assert a zero delta across bulk-expiry flushes.
        self.rebuilds = 0
        self.rebuild()

    def rebuild(self) -> None:
        self.rebuilds += 1
        self.dist = _capped_multi_source(
            self._graph, self.sources, self.radius, self.reverse
        )

    def __contains__(self, v: Node) -> bool:
        return v in self.dist

    def __len__(self) -> int:
        return len(self.dist)

    # ------------------------------------------------------------------
    # Stratified queries: one field, every radius r <= cap
    # ------------------------------------------------------------------
    def within(self, v: Node, r: Optional[int] = None) -> bool:
        """Is ``v`` within distance ``r`` of the closest source?

        Valid for any ``r`` at most the field's cap (``r is None`` asks
        for unbounded reach and requires an uncapped field).  Capped BFS
        entries at depth ``d <= cap`` are independent of the cap, so one
        field answers every stratum below it.
        """
        if r is None:
            if self.radius is not None:
                raise ValueError(
                    f"within(r=None) on a field capped at {self.radius}"
                )
            return v in self.dist
        if self.radius is not None and r > self.radius:
            raise ValueError(
                f"within(r={r}) exceeds the field cap {self.radius}"
            )
        d = self.dist.get(v)
        return d is not None and d <= r

    def set_radius(self, radius: Optional[int]) -> None:
        """Re-cap the field without a rebuild.

        Raising the cap re-grows from the old frontier layer: entries at
        depth ``d < old`` were fully relaxed by the capped BFS, the layer
        at exactly ``old`` was not, so relaxing outward from it alone
        recovers the exact larger ball.  Lowering the cap truncates the
        entries beyond it.
        """
        old = self.radius
        if radius == old:
            return
        self.radius = radius
        if old is None or (radius is not None and radius < old):
            # Shrinking (possibly from unbounded): drop the outer shells.
            drop = [v for v, d in self.dist.items() if d > radius]
            for v in drop:
                del self.dist[v]
        else:
            # Growing (possibly to unbounded): relax from the old frontier.
            seeds = [(v, d) for v, d in self.dist.items() if d == old]
            if seeds:
                self._grow(seeds)

    # ------------------------------------------------------------------
    # Growth (insertions / source gains): decrease-only relaxation
    # ------------------------------------------------------------------
    def _grow(self, seeds: List[Tuple[Node, int]]) -> None:
        """Relax ``dist`` outward from improved ``seeds`` (already written)."""
        neighbours = (
            self._graph.parents if self.reverse else self._graph.children
        )
        radius = self.radius
        dist = self.dist
        tie = count()
        heap = [(d, next(tie), v) for v, d in seeds]
        heapq.heapify(heap)
        while heap:
            d, _, v = heapq.heappop(heap)
            if dist.get(v, d + 1) < d:
                continue
            if radius is not None and d >= radius:
                continue
            nd = d + 1
            for w in neighbours(v):
                if nd < dist.get(w, nd + 1):
                    dist[w] = nd
                    heapq.heappush(heap, (nd, next(tie), w))

    def grow_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """Absorb edges already inserted into the graph."""
        r = self.radius
        dist = self.dist
        seeds: List[Tuple[Node, int]] = []
        for near, far in edges:
            if self.reverse:
                near, far = far, near
            d = dist.get(near)
            if d is None or (r is not None and d + 1 > r):
                continue
            if dist.get(far, d + 2) > d + 1:
                dist[far] = d + 1
                seeds.append((far, d + 1))
        if seeds:
            self._grow(seeds)

    def source_gained(self, v: Node) -> None:
        """``v`` joined ``sources`` (already added by the owner)."""
        if v not in self._graph:
            return
        if self.dist.get(v, 1) > 0:
            self.dist[v] = 0
            self._grow([(v, 0)])

    # ------------------------------------------------------------------
    # Shrinkage (deletions / source losses): RR decremental repair
    # ------------------------------------------------------------------
    def shrink_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """Absorb edges already removed from the graph."""
        starts = []
        for x, y in edges:
            v = x if self.reverse else y  # the endpoint the edge supported
            if v in self.dist:
                starts.append(v)
        if starts:
            self._shrink(starts)

    def source_lost(self, v: Node) -> None:
        """``v`` left ``sources`` (already removed by the owner)."""
        if v in self.dist:
            self._shrink([v])

    def _shrink(self, starts: List[Node]) -> None:
        """Two-phase Ramalingam–Reps repair from possibly-unsupported nodes.

        Phase 1 identifies the affected set in increasing stored-distance
        order: a non-source node at distance ``d`` is supported iff some
        support-direction neighbour holds distance ``d - 1`` and is not
        itself affected.  Because support comes strictly from the previous
        BFS layer, processing by layer finds every affected node exactly
        once.  Phase 2 deletes the affected entries, reseeds each from its
        unaffected boundary (or distance 0 if it is a pinned source), and
        runs the usual capped relaxation.
        """
        dist = self.dist
        support = self._graph.children if self.reverse else self._graph.parents
        forward = self._graph.parents if self.reverse else self._graph.children
        tie = count()
        heap = [
            (dist[v], next(tie), v) for v in set(starts) if v in dist
        ]
        heapq.heapify(heap)
        affected: Set[Node] = set()
        done: Set[Node] = set()
        while heap:
            d, _, v = heapq.heappop(heap)
            if v in done or dist.get(v) != d:
                continue
            done.add(v)
            if d == 0 and v in self.sources:
                continue
            if any(
                u not in affected and dist.get(u) == d - 1
                for u in support(v)
            ):
                continue
            affected.add(v)
            for w in forward(v):
                if w not in done and dist.get(w) == d + 1:
                    heapq.heappush(heap, (d + 1, next(tie), w))
        if not affected:
            return
        for v in affected:
            del dist[v]
        radius = self.radius
        seeds: List[Tuple[Node, int]] = []
        for v in affected:
            if v in self.sources and v in self._graph:
                best: Optional[int] = 0
            else:
                best = None
                for u in support(v):
                    du = dist.get(u)
                    if du is not None and (best is None or du + 1 < best):
                        best = du + 1
            if best is not None and (radius is None or best <= radius):
                dist[v] = best
                seeds.append((v, best))
        if seeds:
            self._grow(seeds)

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_exact(self) -> None:
        """The maintained map must equal a from-scratch recomputation."""
        true = _capped_multi_source(
            self._graph, self.sources, self.radius, self.reverse
        )
        stale = {k: v for k, v in self.dist.items() if true.get(k) != v}
        assert self.dist == true, (
            f"ball field drift (radius={self.radius}, reverse={self.reverse}): "
            f"stale={stale} missing={set(true) - set(self.dist)}"
        )
