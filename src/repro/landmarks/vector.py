"""Landmark vectors and distance vectors (paper Section 6.2).

A landmark vector ``lm`` is a node list such that every node pair has some
landmark on a shortest path between them; with per-node distance vectors
``distvf (v -> lm)`` and ``distvt (lm -> v)``, the distance from ``v`` to
``w`` is ``min_i distvf[v][i] + distvt[w][i]`` — exact for ``v != w`` when
``lm`` is a vertex cover, with at most ``|lm|`` operations per query.

We store the vectors node-major, as the paper defines them: two tables
``distvt[v][lm] = dist(lm -> v)`` and ``distvf[v][lm] = dist(v -> lm)``
holding finite entries only, so a node's vector lists just the landmarks it
is connected to.  They are the only store of landmark distances.  Each
landmark and direction is a :class:`DynamicSSSP` column that reads and
writes its own entry in the table of its direction — the paper's
maintenance strategy ("a variant of a dynamic fixed point algorithm
[Ramalingam and Reps 1996a]"), which gives ``InsLM`` / ``DelLM`` /
``IncLM`` via the RR update routines.  Queries read one node's vector:
``dist``, ``pathdist`` and ``within(v, w, k)`` iterate ``distvf[v]`` and look
each landmark up in ``distvt[w]``.

Column work lists.  :meth:`LandmarkIndex.apply_batch` reads from the two
tables which columns each edge can change, in the column's traversal
direction, and repairs only those columns, each with only its own edges:

- a deleted edge joins the columns where it was tight (its head sat exactly
  one hop past its tail);
- an inserted edge joins the columns where its tail + 1 beats its head.

``insert_edge`` (InsLM) and ``delete_edge`` (DelLM) are the one-edge case.
The gate is exact:

- Deletions only raise distances, and a column changes under deletions
  only if some deleted edge was tight in it.
- If no deletion touches a column, its pre-batch distances are its
  post-deletion distances.  An insertion then changes it only if it
  improves its head on those distances.
- A column that repairs a deletion needs no extra insertions.  RR phase 2
  reads in-edges from the live graph, and the nodes it lowers through a
  same-batch insertion are handed to the insertion cascade.

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
from ..shortestpaths.dynamic_sssp import DistTable, DynamicSSSP
from .selection import select_landmarks

Update = Tuple[Node, Node]
# landmark -> (its inserted edges, its deleted edges) for one batch
WorkLists = Dict[Node, Tuple[List[Update], List[Update]]]


def _work_lists(
    table: DistTable,
    inserted: List[Update],
    deleted: List[Update],
    reverse: bool,
) -> WorkLists:
    """The columns of one direction a batch can change, each with its own
    edges, read from that direction's table of pre-batch distances.  Every
    landmark is in the graph when its columns are built, so each column
    holds its own source at 0 and an edge at the source shows in its row."""
    work: WorkLists = {}
    for x, y in deleted:
        a, b = (y, x) if reverse else (x, y)
        # Every landmark that reached the tail reached the head through
        # the edge, so the tail's vector is the one to scan.
        ra, rb = table.get(a, {}), table.get(b, {})
        for lm, d in ra.items():
            if rb.get(lm) == d + 1:
                work.setdefault(lm, ([], []))[1].append((x, y))
    for x, y in inserted:
        a, b = (y, x) if reverse else (x, y)
        ra, rb = table.get(a, {}), table.get(b, {})
        for lm, d in ra.items():
            if rb.get(lm, INF) > d + 1:
                work.setdefault(lm, ([], []))[0].append((x, y))
    return work


class LandmarkIndex:
    """Landmark vector + distance vectors with incremental maintenance.

    All mutation methods expect the underlying graph to have **already**
    been updated; they repair the vectors (this matches how the matching
    engine sequences updates).

    Work counters (reset by :meth:`reset_stats`): ``columns_visited`` counts
    column repairs run, ``entries_scanned`` the vector entries read by
    ``dist`` / ``pathdist`` / ``within``.
    """

    def __init__(
        self,
        graph: DiGraph,
        landmarks: Optional[Iterable[Node]] = None,
        strategy: str = "matching",
    ) -> None:
        self._graph = graph
        self._strategy = strategy
        self.columns_visited = 0
        self.entries_scanned = 0
        if landmarks is None:
            landmarks = select_landmarks(graph, strategy)
        else:
            landmarks = list(landmarks)
            missing = [v for v in landmarks if v not in graph]
            if missing:
                raise ValueError(f"landmarks not in graph: {missing!r}")
        self._build(landmarks)

    def _build(self, landmarks: Iterable[Node]) -> None:
        self._distvt: DistTable = {}  # v -> {lm: dist(lm -> v)}
        self._distvf: DistTable = {}  # v -> {lm: dist(v -> lm)}
        self._fwd: Dict[Node, DynamicSSSP] = {}  # columns of distvt
        self._bwd: Dict[Node, DynamicSSSP] = {}  # columns of distvf
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
        self._fwd[v] = DynamicSSSP(self._graph, v, table=self._distvt)
        self._bwd[v] = DynamicSSSP(
            self._graph, v, reverse=True, table=self._distvf
        )

    def add_landmark(self, v: Node) -> None:
        """Extend the vector by one landmark (full BFS both directions)."""
        if v not in self._graph:
            raise ValueError(f"landmark {v!r} not in graph")
        self._add(v)

    def size_entries(self) -> int:
        """Total stored distance entries — the space cost of Fig. 20(b)."""
        return sum(map(len, self._distvt.values())) + sum(
            map(len, self._distvf.values())
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
        to_lm = self._distvf.get(v)
        from_lm = self._distvt.get(w)
        if to_lm is None or from_lm is None:
            return INF
        best = INF
        for lm, d in to_lm.items():
            if d < best:
                e = from_lm.get(lm)
                if e is not None and d + e < best:
                    best = d + e
        self.entries_scanned += len(to_lm)
        return best

    def pathdist(self, v: Node, w: Node) -> float:
        """Nonempty-path distance (self distance == shortest cycle)."""
        if v != w:
            return self.dist(v, w)
        # Shortest cycle through v: min over landmarks != v of the round
        # trip; a cycle covered only by v itself needs a local search.
        best = INF
        to_lm = self._distvf.get(v)
        from_lm = self._distvt.get(v)
        if to_lm is not None and from_lm is not None:
            for lm, d in to_lm.items():
                if lm != v:
                    e = from_lm.get(lm)
                    if e is not None and d + e < best:
                        best = d + e
            self.entries_scanned += len(to_lm)
        if v in self._fwd:
            local = shortest_cycle_through(self._graph, v)
            if local is not None and local < best:
                best = local
        return best

    def within(self, v: Node, w: Node, bound: Optional[int]) -> bool:
        """Early-exit check: nonempty path from v to w within ``bound``?

        Scans ``v``'s vector only until a witness ``<= bound`` is found,
        which is what the IncBMatch pair rechecks need (most suspects
        survive and exit after a few landmarks).
        """
        if bound is None:
            return self.pathdist(v, w) != INF
        if v == w:
            return self.pathdist(v, v) <= bound
        to_lm = self._distvf.get(v)
        from_lm = self._distvt.get(w)
        if to_lm is None or from_lm is None:
            return False
        scanned = 0
        for lm, d in to_lm.items():
            scanned += 1
            if d <= bound:
                e = from_lm.get(lm)
                if e is not None and d + e <= bound:
                    self.entries_scanned += scanned
                    return True
        self.entries_scanned += scanned
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
        self.apply_batch(inserted=((x, y),))

    def delete_edge(self, x: Node, y: Node) -> None:
        """``DelLM``: repair after deleting (x, y); landmarks never shrink
        online (Prop. 6.2 — a cover of G covers any subgraph)."""
        self.apply_batch(deleted=((x, y),))

    def apply_batch(
        self,
        inserted: Iterable[Update] = (),
        deleted: Iterable[Update] = (),
    ) -> None:
        """``IncLM``: repair only the columns the batch can change, each
        once with its own edges (see the module docstring)."""
        inserted = list(inserted)
        deleted = list(deleted)
        fwd = _work_lists(self._distvt, inserted, deleted, False)
        bwd = _work_lists(self._distvf, inserted, deleted, True)
        # Landmarks added for cover are built on the edited graph, so they
        # join after the work lists and need no repair.
        graph = self._graph
        deg = lambda n: graph.out_degree(n) + graph.in_degree(n)
        for x, y in inserted:
            if not self.covers_edge(x, y):
                self._add(x if deg(x) >= deg(y) else y)
        for columns, lists in ((self._fwd, fwd), (self._bwd, bwd)):
            for lm, (ins, dels) in lists.items():
                columns[lm].on_batch(ins, dels)
            self.columns_visited += len(lists)

    def rebuild(self) -> None:
        """``BatchLM``: recompute the landmark set and all vectors."""
        self._build(select_landmarks(self._graph, self._strategy))

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
        self.columns_visited = 0
        self.entries_scanned = 0
