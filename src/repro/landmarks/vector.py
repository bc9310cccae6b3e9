"""Landmark vectors and distance vectors (paper Section 6.2).

A landmark vector ``lm`` is a node list such that every node pair has some
landmark on a shortest path between them; with per-node distance vectors
``distvf (v -> lm)`` and ``distvt (lm -> v)``, the distance from ``v`` to
``w`` is ``min_i distvf[v][i] + distvt[w][i]`` — exact for ``v != w`` when
``lm`` is a vertex cover, with at most ``|lm|`` operations per query.

We store the vectors column-wise: one :class:`DynamicSSSP` per landmark and
direction, which is exactly the paper's maintenance strategy ("a variant of
a dynamic fixed point algorithm [Ramalingam and Reps 1996a]") and gives
``InsLM`` / ``DelLM`` / ``IncLM`` for free via the RR update routines.

:class:`LandmarkIndex` also implements the
:class:`repro.matching.oracles.DistanceOracle` protocol so it can drive
``Match`` and ``IncBMatch`` directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.traversal import (
    INF,
    ancestors_within,
    descendants_within,
    shortest_cycle_through,
)
from ..shortestpaths.dynamic_sssp import DynamicSSSP
from .selection import select_landmarks

Update = Tuple[Node, Node]


class LandmarkIndex:
    """Landmark vector + distance vectors with incremental maintenance.

    All mutation methods expect the underlying graph to have **already**
    been updated; they repair the vectors (this matches how the matching
    engine sequences updates).
    """

    def __init__(
        self,
        graph: DiGraph,
        landmarks: Optional[Iterable[Node]] = None,
        strategy: str = "matching",
    ) -> None:
        self._graph = graph
        self._strategy = strategy
        self._fwd: Dict[Node, DynamicSSSP] = {}  # dist(lm -> v): distvt column
        self._bwd: Dict[Node, DynamicSSSP] = {}  # dist(v -> lm): distvf column
        if landmarks is None:
            landmarks = select_landmarks(graph, strategy)
        for lm in landmarks:
            self._add(lm)
        # Size of the last from-scratch selection.  ``InsLM`` may add one
        # landmark per insertion, so the live set grows monotonically
        # between re-selections; budget policies (BatchLM triggers) compare
        # the live size against this baseline.
        self.selected_size = len(self._fwd)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def landmarks(self) -> List[Node]:
        return list(self._fwd)

    def has_landmark(self, v: Node) -> bool:
        return v in self._fwd

    def _add(self, v: Node) -> None:
        if v in self._fwd:
            return
        self._fwd[v] = DynamicSSSP(self._graph, v, reverse=False)
        self._bwd[v] = DynamicSSSP(self._graph, v, reverse=True)

    def add_landmark(self, v: Node) -> None:
        """Extend the vector by one landmark (full BFS both directions)."""
        if v not in self._graph:
            raise ValueError(f"landmark {v!r} not in graph")
        self._add(v)

    def size_entries(self) -> int:
        """Total stored distance entries — the space cost of Fig. 20(b)."""
        return sum(s.size_entries() for s in self._fwd.values()) + sum(
            s.size_entries() for s in self._bwd.values()
        )

    def covers_edge(self, x: Node, y: Node) -> bool:
        return x in self._fwd or y in self._fwd

    # ------------------------------------------------------------------
    # Queries (DistanceOracle protocol)
    # ------------------------------------------------------------------
    def dist(self, v: Node, w: Node) -> float:
        """Plain shortest-path distance (0 when v == w)."""
        if v == w:
            return 0 if v in self._graph else INF
        best = INF
        for lm, fwd in self._fwd.items():
            to_lm = self._bwd[lm].dist(v)
            if to_lm >= best:
                continue
            from_lm = fwd.dist(w)
            total = to_lm + from_lm
            if total < best:
                best = total
        return best

    def pathdist(self, v: Node, w: Node) -> float:
        """Nonempty-path distance (self distance == shortest cycle)."""
        if v != w:
            return self.dist(v, w)
        # Shortest cycle through v: min over landmarks != v of the round
        # trip; a cycle covered only by v itself needs a local search.
        best = INF
        for lm in self._fwd:
            if lm == v:
                continue
            total = self._bwd[lm].dist(v) + self._fwd[lm].dist(v)
            if total < best:
                best = total
        if v in self._fwd:
            local = shortest_cycle_through(self._graph, v)
            if local is not None and local < best:
                best = local
        return best

    def within(self, v: Node, w: Node, bound: Optional[int]) -> bool:
        """Early-exit check: nonempty path from v to w within ``bound``?

        Scans the vector only until a witness ``<= bound`` is found, which
        is what the IncBMatch pair rechecks need (most suspects survive and
        exit after a few landmarks).
        """
        if bound is None:
            return self.pathdist(v, w) != INF
        if v == w:
            return self.pathdist(v, v) <= bound
        for lm in self._fwd:
            to_lm = self._bwd[lm].dist(v)
            if to_lm > bound:
                continue
            if to_lm + self._fwd[lm].dist(w) <= bound:
                return True
        return False

    def ball_out(self, v: Node, k: Optional[int]) -> Dict[Node, int]:
        """Bounded forward ball; BFS is used directly (k is small)."""
        return descendants_within(self._graph, v, k)

    def ball_in(self, v: Node, k: Optional[int]) -> Dict[Node, int]:
        return ancestors_within(self._graph, v, k)

    # ------------------------------------------------------------------
    # Maintenance: InsLM / DelLM / IncLM / BatchLM
    # ------------------------------------------------------------------
    def insert_edge(self, x: Node, y: Node) -> None:
        """``InsLM``: repair after inserting (x, y); may add one landmark.

        Prop. 6.2: adding either endpoint keeps the covering property, so
        at most one new landmark is needed per insertion.
        """
        if not self.covers_edge(x, y):
            deg = lambda n: self._graph.out_degree(n) + self._graph.in_degree(n)
            self._add(x if deg(x) >= deg(y) else y)
        for sssp in self._fwd.values():
            sssp.on_insert(x, y)
        for sssp in self._bwd.values():
            sssp.on_insert(x, y)

    def delete_edge(self, x: Node, y: Node) -> None:
        """``DelLM``: repair after deleting (x, y); landmarks never shrink
        online (Prop. 6.2 — a cover of G covers any subgraph)."""
        for sssp in self._fwd.values():
            sssp.on_delete(x, y)
        for sssp in self._bwd.values():
            sssp.on_delete(x, y)

    def apply_batch(
        self,
        inserted: Iterable[Update] = (),
        deleted: Iterable[Update] = (),
    ) -> None:
        """``IncLM``: one combined repair per landmark for a whole batch."""
        inserted = list(inserted)
        deleted = list(deleted)
        for x, y in inserted:
            if not self.covers_edge(x, y):
                deg = lambda n: (
                    self._graph.out_degree(n) + self._graph.in_degree(n)
                )
                self._add(x if deg(x) >= deg(y) else y)
        for sssp in self._fwd.values():
            sssp.on_batch(inserted, deleted)
        for sssp in self._bwd.values():
            sssp.on_batch(inserted, deleted)

    def rebuild(self) -> None:
        """``BatchLM``: recompute the landmark set and all vectors."""
        landmarks = select_landmarks(self._graph, self._strategy)
        self._fwd = {}
        self._bwd = {}
        for lm in landmarks:
            self._add(lm)
        self.selected_size = len(self._fwd)

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def nodes_touched(self) -> int:
        """Aggregate RR work counters across all columns (|AFF| proxy)."""
        return sum(s.stats.nodes_touched for s in self._fwd.values()) + sum(
            s.stats.nodes_touched for s in self._bwd.values()
        )

    def reset_stats(self) -> None:
        for s in self._fwd.values():
            s.stats.reset()
        for s in self._bwd.values():
            s.stats.reset()
