"""Landmark vectors and distance vectors (paper Section 6.2).

A landmark vector ``lm`` is a node list such that every node pair has some
landmark on a shortest path between them; any vertex cover qualifies.  The
paper keeps two per-node vectors, ``distvf (v -> lm)`` and
``distvt (lm -> v)``.  We keep one: in a cover every out-edge of a
non-landmark ends at a landmark, so a nonempty path out of ``v`` meets its
first landmark at ``v`` itself or at a child of ``v``.  For ``v != w``,
``d(v, w)`` is ``distvt[w][v]`` for a landmark ``v`` and
``1 + min distvt[w][c]`` over the children ``c`` of any other ``v``; the
shortest cycle through ``v`` is ``1 + min distvt[p][v]`` over the parents
``p`` of a landmark, ``1 + min distvt[v][c]`` over the children of any
other node.  A pair query reads at most ``out-degree(v) <= |lm|`` entries,
the paper's per-query bound.  :func:`select_landmarks` returns a cover,
an explicit ``landmarks=`` set must be one, and ``InsLM`` keeps it one by
the same rule (:meth:`LandmarkIndex.check_invariants` checks it).

The table is node-major, ``distvt[w][lm] = dist(lm -> w)`` with finite
entries only, and is the only store of landmark distances.  Each landmark
is a :class:`DynamicSSSP` column that reads and writes its own entry — the
paper's maintenance scheme ("a variant of a dynamic fixed point
algorithm [Ramalingam and Reps 1996a]"), which gives ``InsLM`` /
``DelLM`` / ``IncLM`` via the RR update routines.

Horizon.  An index built with ``horizon=H`` keeps each column only to
``H`` hops: ``distvt[w][lm]`` exists exactly when ``dist(lm -> w) <= H``.
That is all ``within(v, w, k)`` reads for ``k <= H``: a landmark source
reads its own entry against ``k``, any other source a child's entry
against ``k - 1``, and a cycle closes through a parent's or a child's
entry by the same rule.  So ``within`` stays exact up to ``H`` and
refuses a larger or ``*`` bound, and ``dist`` / ``pathdist``, which
promise exact distances at any length, refuse on a truncated index.
:meth:`LandmarkIndex.widen` moves the horizon out, rebuilding every
column at the new one; nothing narrows it.  ``H = None``, the
default, keeps full columns, as a standalone index does.

Column work lists.  :meth:`LandmarkIndex.apply_batch` reads from the table
which columns each edge can change, and repairs only those columns, each
with only its own edges:

- a deleted edge joins the columns where it was tight (its head sat exactly
  one hop past its tail);
- an inserted edge joins the columns where its tail + 1 beats its head,
  and its tail lies short of the horizon.

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

from typing import Collection, Dict, Iterable, List, Optional, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.traversal import (
    INF,
    ancestors_within,
    bfs_distances,
    descendants_within,
)
from ..shortestpaths.dynamic_sssp import DistTable, DynamicSSSP
from .selection import cover_endpoint, select_landmarks

Update = Tuple[Node, Node]
# landmark -> (its inserted edges, its deleted edges) for one batch
WorkLists = Dict[Node, Tuple[List[Update], List[Update]]]
# InsLM adds landmarks and never removes one, so a BatchLM re-selection is
# due once they outgrow this many times the last selection, and this many
# at least, so that a tiny graph does not re-select on every insertion.
RESELECT_FACTOR = 2
RESELECT_FLOOR = 16


def _work_lists(
    table: DistTable,
    inserted: List[Update],
    deleted: List[Update],
    horizon: float,
) -> WorkLists:
    """The columns a batch can change, each with its own edges, read from
    the table of pre-batch distances.  Every landmark is in the graph when
    its column is built, so each column holds its own source at 0 and an
    edge at the source shows in its row.  A column relaxes no edge out of
    a node at its ``horizon`` (INF: full columns), and a deleted edge out
    of one was never tight in it, its head lying past the horizon."""
    work: WorkLists = {}
    for x, y in deleted:
        # Every landmark that reached the tail reached the head through
        # the edge, so the tail's vector is the one to scan.
        rx, ry = table.get(x, {}), table.get(y, {})
        for lm, d in rx.items():
            if ry.get(lm) == d + 1:
                work.setdefault(lm, ([], []))[1].append((x, y))
    for x, y in inserted:
        rx, ry = table.get(x, {}), table.get(y, {})
        for lm, d in rx.items():
            if d < horizon and ry.get(lm, INF) > d + 1:
                work.setdefault(lm, ([], []))[0].append((x, y))
    return work


class LandmarkIndex:
    """Landmark vector + one distance table with incremental maintenance.

    All mutation methods expect the underlying graph to have **already**
    been updated; they repair the table (this matches how the matching
    engine sequences updates).  An explicit ``landmarks=`` set must be a
    vertex cover of the graph; one that misses an edge is refused.
    ``horizon`` truncates every column at that many hops (see the module
    docstring).

    Work counters (reset by :meth:`reset_stats`): ``columns_visited`` counts
    column repairs run, ``entries_scanned`` the table entries read by
    ``dist`` / ``pathdist`` / ``within`` — one for a landmark source, one
    per child (or, for a landmark's cycle, per parent) otherwise.
    """

    def __init__(
        self,
        graph: DiGraph,
        landmarks: Optional[Iterable[Node]] = None,
        horizon: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self.horizon = horizon
        self.columns_visited = 0
        self.entries_scanned = 0
        if landmarks is None:
            landmarks = select_landmarks(graph)
        else:
            landmarks = list(landmarks)
            missing = [v for v in landmarks if v not in graph]
            if missing:
                raise ValueError(f"landmarks not in graph: {missing!r}")
            chosen = set(landmarks)
            for x, y in graph.edges():
                if x not in chosen and y not in chosen:
                    raise ValueError(f"landmarks miss edge {(x, y)!r}")
        self._build(landmarks)

    def _build(self, landmarks: Iterable[Node]) -> None:
        self._distvt: DistTable = {}  # w -> {lm: dist(lm -> w)}
        self._columns: Dict[Node, DynamicSSSP] = {}
        for lm in landmarks:
            self._add(lm)
        # Size of the last from-scratch selection.  ``InsLM`` may add one
        # landmark per insertion, so the live set grows monotonically
        # between re-selections; :meth:`outgrown` compares against it.
        self.selected_size = len(self._columns)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def landmarks(self) -> List[Node]:
        return list(self._columns)

    def _add(self, v: Node) -> None:
        if v not in self._columns:
            self._columns[v] = DynamicSSSP(
                self._graph, v, table=self._distvt, horizon=self.horizon
            )

    def widen(self, horizon: Optional[int]) -> None:
        """Keep every column to ``horizon`` hops from now on (``None``:
        full columns), rebuilding each one on the same landmarks.  A
        horizon no deeper than the current one changes nothing."""
        old = self.horizon
        if old is None or (horizon is not None and horizon <= old):
            return
        self.horizon = horizon
        selected = self.selected_size  # a widening selects nothing
        self._build(list(self._columns))
        self.selected_size = selected

    def size_entries(self) -> int:
        """Total stored distance entries — the space cost of Fig. 20(b)."""
        return sum(map(len, self._distvt.values()))

    def covers_edge(self, x: Node, y: Node) -> bool:
        return x in self._columns or y in self._columns

    # ------------------------------------------------------------------
    # Queries (DistanceOracle protocol)
    # ------------------------------------------------------------------
    def _first_landmarks(self, v: Node) -> Tuple[Collection[Node], int]:
        """Where every nonempty path out of ``v`` meets its first landmark,
        and how many hops in: at ``v`` itself (0) when it is one, else at
        one of its children (1), all landmarks by the cover."""
        if v in self._columns:
            return (v,), 0
        if v in self._graph:
            return self._graph.children(v), 1
        return (), 1

    def _nonempty(self, v: Node, row: Dict[Node, int]) -> float:
        """Shortest nonempty path from ``v`` to the node whose vector is
        ``row``, through the first landmark it meets."""
        firsts, hops = self._first_landmarks(v)
        self.entries_scanned += len(firsts)
        return min((row[c] for c in firsts if c in row), default=INF) + hops

    def _refuse_truncated(self, query: str) -> None:
        if self.horizon is not None:
            raise ValueError(
                f"{query} needs full columns; this index keeps them only "
                f"to horizon {self.horizon}"
            )

    def dist(self, v: Node, w: Node) -> float:
        """Plain shortest-path distance (0 when v == w).  Refused on a
        truncated index."""
        self._refuse_truncated("dist")
        if v == w:
            return 0 if v in self._graph else INF
        return self._nonempty(v, self._distvt.get(w, {}))

    def pathdist(self, v: Node, w: Node) -> float:
        """Nonempty-path distance (self distance == shortest cycle).
        Refused on a truncated index."""
        self._refuse_truncated("pathdist")
        return self._pathdist(v, w)

    def _pathdist(self, v: Node, w: Node) -> float:
        """:meth:`pathdist` unguarded: exact at every length up to the
        horizon; a longer path may read as INF."""
        if v != w or v not in self._columns:
            # A non-landmark's cycle opens into a child, as any path does.
            return self._nonempty(v, self._distvt.get(w, {}))
        # A landmark's cycle closes at a parent p: dist(v -> p) + 1.
        table = self._distvt
        parents = self._graph.parents(v)
        self.entries_scanned += len(parents)
        return min(
            (table[p][v] for p in parents if v in table.get(p, ())),
            default=INF,
        ) + 1

    def within(self, v: Node, w: Node, bound: Optional[int]) -> bool:
        """Early-exit check: nonempty path from v to w within ``bound``?

        Scans ``v``'s first landmarks only until a witness ``<= bound`` is
        found, which is what the IncBMatch pair rechecks need (most
        suspects survive and exit after a few entries).  On a truncated
        index a bound past the horizon, or ``None``, is refused.
        """
        horizon = self.horizon
        if horizon is not None and (bound is None or bound > horizon):
            raise ValueError(
                f"bound {bound!r} is past this index's horizon {horizon}"
            )
        if bound is None:
            return self._pathdist(v, w) != INF
        if v == w:
            return self._pathdist(v, v) <= bound
        row = self._distvt.get(w)
        if row is None:
            return False
        firsts, hops = self._first_landmarks(v)
        room = bound - hops
        scanned = 0
        for c in firsts:
            scanned += 1
            d = row.get(c)
            if d is not None and d <= room:
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
        an uncovered insertion adds one, :func:`cover_endpoint`'s choice.
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
        horizon = INF if self.horizon is None else self.horizon
        work = _work_lists(self._distvt, inserted, deleted, horizon)
        # Landmarks added for cover are built on the edited graph, so they
        # join after the work lists and need no repair.
        for x, y in inserted:
            if not self.covers_edge(x, y):
                self._add(cover_endpoint(self._graph, x, y))
        for lm, (ins, dels) in work.items():
            self._columns[lm].on_batch(ins, dels)
        self.columns_visited += len(work)

    def rebuild(self) -> None:
        """``BatchLM``: recompute the landmark set and all vectors, to the
        same horizon."""
        self._build(select_landmarks(self._graph))

    def outgrown(self) -> bool:
        """Is a ``BatchLM`` re-selection (:meth:`rebuild`) due?  Yes once
        ``InsLM`` has grown the landmarks past ``RESELECT_FACTOR`` times
        the last selection and past ``RESELECT_FLOOR``.  Correctness holds
        either way; only space and per-recheck cost grow."""
        return len(self._columns) > max(
            RESELECT_FLOOR, RESELECT_FACTOR * self.selected_size
        )

    # ------------------------------------------------------------------
    # Invariants (tests) and introspection for experiments
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """The landmarks must cover every edge (the queries' first hop
        rests on it), and each column must equal a fresh BFS from its
        landmark truncated at the horizon, with no other entry in the
        table."""
        graph = self._graph
        for x, y in graph.edges():
            assert self.covers_edge(x, y), f"edge {(x, y)!r} has no landmark"
        fresh = 0
        for lm, column in self._columns.items():
            truth = bfs_distances(graph, lm, self.horizon)
            got = column.distances()
            assert got == truth, (
                f"column {lm!r} drift: "
                f"{set(got.items()) ^ set(truth.items())}"
            )
            fresh += len(truth)
        assert self.size_entries() == fresh, "entries outside every column"

    def nodes_touched(self) -> int:
        """Aggregate RR work counters across all columns (|AFF| proxy)."""
        return sum(s.stats.nodes_touched for s in self._columns.values())

    def reset_stats(self) -> None:
        for s in self._columns.values():
            s.stats.reset()
        self.columns_visited = 0
        self.entries_scanned = 0
