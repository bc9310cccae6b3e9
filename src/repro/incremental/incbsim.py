"""Incremental bounded simulation (paper Section 6).

Proposition 6.1 is the load-bearing insight: ``P |>bsim G`` iff ``P``
(read as a normal pattern) simulates the *result graph* over the matches
and candidates.  :class:`BoundedSimulationIndex` therefore maintains a
**pair graph**: one node ``(u, v)`` per pattern node ``u`` and
predicate-eligible data node ``v``, and one edge
``(u, a) -> (u', c)`` per pattern edge ``(u, u')`` whose bound admits a
nonempty path from ``a`` to ``c`` in the data graph.  These edges are
exactly the paper's ss / cs / cc *pairs* (Table III).  An inner
:class:`~repro.incremental.incsim.SimulationIndex` then runs incremental
*simulation* over the pair graph — IncBMatch+/-/batch reduce to pair-level
insertions and deletions fed to IncMatch+/-/batch.

What remains is distance maintenance: which pairs appear or disappear when
a data edge changes.

- **Insertion** of ``(x, y)``: any pair newly within bound ``k`` has its new
  shortest path through ``(x, y)``, so it decomposes as
  ``d(a, x) + 1 + d(y, c) <= k`` with both legs avoiding ``(x, y)``; the
  legs come from one backward ball around ``x`` and one forward ball around
  ``y`` of radius ``k - 1`` (per distinct bound) — the edge's *legs*,
  :func:`~repro.graphs.traversal.edge_legs`.
- **Deletion** of ``(x, y)``: a broken pair's old path decomposes the same
  way *on the pre-deletion graph*, so suspects are collected from legs
  computed before the edit and rechecked afterwards (one bounded BFS per
  suspect source, or landmark / matrix distance queries depending on
  ``distance_mode``).

Both directions are implemented once, as the repair methods the pool
runs around its shared graph: ``prepare_deleted_edges`` before the edit
and ``repair_deleted_edges`` after it, ``repair_inserted_edges``, and
``apply_eligibility_flip_batch`` for attribute changes.  The standalone
``insert_edge``/``delete_edge``/``apply_batch``/``update_node_attrs`` are
drivers over them (:class:`~repro.incremental.drivers.StandaloneDriver`):
a unit update is a batch of one, and the distance structures a
standalone index owns are synced by one helper,
:meth:`BoundedSimulationIndex._sync_own_structures`.

``distance_mode``:

- ``'bfs'``       — rechecks by grouped bounded BFS (default IncBMatch);
- ``'landmark'``  — maintains a :class:`LandmarkIndex` (``IncLM``) and
  answers rechecks from the vectors — the paper's Section 6.3 algorithm;
- ``'matrix'``    — maintains a full all-pairs matrix (min-plus updates on
  insert, rebuild on delete): the ``IncBMatch_m`` baseline of Exp-2, whose
  heavier auxiliary structure is exactly what Fig. 19 measures;
- ``'interval'``  — routes through an SCC-interval reachability oracle
  (:class:`~repro.graphs.reachability.IntervalReachabilityIndex`): the
  routing oracle over-approximates "within bound k" by "reachable", with
  per-(predicate, direction) :class:`ReachClosure` caches making each
  consult an O(1) component-membership test (sublinear in the eligible
  sets); suspect rechecks use exact reachability for ``*`` bounds when
  the labelling is clean and grouped bounded BFS otherwise (a dirty
  labelling never rebuilds just for rechecks — bulk deletion batches
  such as window expiry stay decremental).  Cheapest upkeep of the four —
  the labelling rebuilds lazily under a staleness budget that only ever
  errs toward routing *more* edges (deletions tolerated, insertions
  force a rebuild).

A standalone index owns the landmark index / matrix / interval oracle
its suspect rechecks read, and computes each edge's legs itself.  A
pool-registered index receives the pool's
:class:`~repro.engine.distances.SharedDistanceSubstrate` instead: the
structures are **leased** from it and the pool keeps them in sync once
per flush for every leasing query, and the legs come from the
substrate's memo (:meth:`SharedDistanceSubstrate.legs`), so routing and
every routed query's repair on one edge share one BFS pair per radius.
The distance-aware routing oracle (:meth:`can_affect_edge`) exists only
for pool routing and reads only substrate structures: the reach
closures in ``interval`` mode, the memoized legs in every other mode.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.distance import DistanceMatrix
from ..graphs.reachability import IntervalReachabilityIndex, ReachClosure
from ..graphs.traversal import (
    INF,
    Legs,
    ancestors_within,
    descendants_within,
    edge_legs,
)
from ..landmarks.vector import LandmarkIndex
from ..matching.relation import MatchRelation, totalize
from ..matching.simulation import candidate_sets
from ..patterns.pattern import Bound, Pattern, PatternNode
from ..patterns.predicate import Predicate
from .delta import DeltaLog
from .drivers import StandaloneDriver
from .incsim import IncStats, SimulationIndex
from .types import Update, delete as upd_delete, insert as upd_insert, net_updates

PatternEdge = Tuple[PatternNode, PatternNode]
LAYER_ATTR = "__layer__"
DISTANCE_MODES = ("bfs", "landmark", "matrix", "interval")


def _layered_pattern(pattern: Pattern) -> Pattern:
    """The pattern with predicates replaced by layer-membership tests."""
    layered = Pattern()
    for u in pattern.nodes():
        layered.add_node(u, Predicate.label(u, attribute=LAYER_ATTR))
    for u, u2 in pattern.edges():
        layered.add_edge(u, u2, 1)
    return layered


class BoundedSimulationIndex(StandaloneDriver):
    """Maximum bounded simulation maintained under edge updates."""

    def __init__(
        self,
        pattern: Pattern,
        graph: DiGraph,
        distance_mode: str = "bfs",
        landmark_strategy: str = "matching",
        substrate=None,
        eligibility=None,
    ) -> None:
        if distance_mode not in DISTANCE_MODES:
            raise ValueError(f"unknown distance_mode {distance_mode!r}")
        self.pattern = pattern
        self.graph = graph
        self.distance_mode = distance_mode
        # A pool-level SharedDistanceSubstrate (engine.distances).  When
        # set, the landmark index / matrix / interval oracle are leased
        # rather than owned, edge legs are read from its memo, and the pool
        # keeps every shared structure in sync.  A substrate-backed index must
        # therefore be driven through the pool's prepare/repair entry
        # points, not the standalone insert_edge/delete_edge/apply_batch
        # drivers (which sync only structures the index owns).
        self.substrate = substrate
        # A pool-level SharedEligibilityIndex (engine.eligibility): the
        # per-pattern-node eligible sets become leased read-views of one
        # shared member set per distinct predicate.  The substrate
        # mutates them; attribute churn arrives as resolved flips
        # (apply_eligibility_flip_batch), never via update_node_attrs.
        self._eligibility = eligibility
        self._bounds: Dict[PatternEdge, Bound] = {
            (u, u2): pattern.bound(u, u2) for u, u2 in pattern.edges()
        }
        if eligibility is not None:
            self.eligible: MatchRelation = {
                u: eligibility.lease(pattern.predicate(u)).members
                for u in pattern.nodes()
            }
        else:
            self.eligible = candidate_sets(pattern, graph)
        self._pair_graph = DiGraph()
        self._build_pair_graph()
        self._inner = SimulationIndex(_layered_pattern(pattern), self._pair_graph)
        # Opt-in pair-edge change log (enable_pair_delta): the plan layer's
        # leg views export their relation deltas through it so downstream
        # joins consume changes instead of re-deriving them.
        self._pair_delta: Optional[DeltaLog] = None
        self._lm: Optional[LandmarkIndex] = None
        self._matrix: Optional[DistanceMatrix] = None
        # Interval mode: SCC-interval reachability oracle, leased with one
        # source closure per (predicate, direction) under a substrate; a
        # standalone index owns the oracle (built lazily on the first
        # suspect recheck) and has no closures.
        self._reach: Optional[IntervalReachabilityIndex] = None
        self._reach_leased = False
        self._reach_closures: Optional[
            Dict[PatternEdge, Tuple[ReachClosure, ReachClosure]]
        ] = None
        self._closure_keys: List[Tuple[Predicate, bool]] = []
        if distance_mode == "landmark":
            if substrate is not None:
                self._lm = substrate.lease_landmarks(strategy=landmark_strategy)
            else:
                self._lm = LandmarkIndex(graph, strategy=landmark_strategy)
        elif distance_mode == "matrix":
            if substrate is not None:
                self._matrix = substrate.lease_matrix()
            else:
                self._matrix = DistanceMatrix(graph)
        elif distance_mode == "interval" and substrate is not None:
            # Lease the shared oracle and closures eagerly (build cost
            # belongs to registration); the oracle is also consulted for
            # *-bound suspect rechecks, so lease it even when the bounds
            # alone would not force distance routing.
            self._reach = substrate.lease_reachability()
            self._reach_leased = True
            closures: Dict[PatternEdge, Tuple[ReachClosure, ReachClosure]] = {}
            for (u, u2) in self._bounds:
                src_key = (pattern.predicate(u), False)
                tgt_key = (pattern.predicate(u2), True)
                closures[(u, u2)] = (
                    substrate.lease_reach_closure(*src_key),
                    substrate.lease_reach_closure(*tgt_key),
                )
                self._closure_keys.extend((src_key, tgt_key))
            self._reach_closures = closures

    # ------------------------------------------------------------------
    # Pair graph construction
    # ------------------------------------------------------------------
    def _build_pair_graph(self) -> None:
        for u, vs in self.eligible.items():
            for v in vs:
                self._pair_graph.add_node((u, v), **{LAYER_ATTR: u})
        for (u, u2), bound in self._bounds.items():
            targets = self.eligible[u2]
            for a in self.eligible[u]:
                ball = descendants_within(self.graph, a, bound)
                for c, d in ball.items():
                    if c in targets and (bound is None or d <= bound):
                        self._pair_graph.add_edge((u, a), (u2, c))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IncStats:
        return self._inner.stats

    def matches(self) -> MatchRelation:
        """The maximum bounded-simulation match (totalized)."""
        return totalize(self.raw_match_sets())

    def raw_match_sets(self) -> MatchRelation:
        raw = self._inner.raw_match_sets()
        return {u: {v for (_, v) in raw[u]} for u in raw}

    def is_total(self) -> bool:
        return self._inner.is_total()

    def pop_match_delta(self):
        """Net ``(added, removed)`` raw match pairs since the last pop.

        The inner index works over pair-graph nodes ``(u, v)`` in layer
        ``u``, so its delta translates one-to-one into data-level pairs.
        """
        added, removed = self._inner.pop_match_delta()
        return (
            {(u, v) for (_, (u, v)) in added},
            {(u, v) for (_, (u, v)) in removed},
        )

    def _apply_pair_batch(self, pair_updates: List[Update]) -> None:
        """Feed pair-graph edits to the inner index, logging net changes
        when pair-delta export is enabled.

        Netting against the current pair graph before logging is
        behavior-preserving (the inner index nets internally anyway) and
        keeps the exported delta exact: a pending-delete-plus-reinsert of
        a surviving pair cancels out instead of being reported twice.
        """
        if self._pair_delta is None:
            self._inner.apply_batch(pair_updates)
            return
        net = net_updates(self._pair_graph, pair_updates)
        for upd in net:
            if upd.op == "insert":
                self._pair_delta.add((upd.source, upd.target))
            else:
                self._pair_delta.remove((upd.source, upd.target))
        self._inner.apply_batch(net)

    def enable_pair_delta(self) -> None:
        """Start logging net pair-edge changes for :meth:`pop_pair_delta`.

        Consumers (the plan layer's leg views) read the current relation
        wholesale via :meth:`pair_edges` at attach time, then consume
        deltas from the next flush on — so enabling starts the log empty.
        """
        if self._pair_delta is None:
            self._pair_delta = DeltaLog()

    def pop_pair_delta(self) -> Tuple[Set[Tuple], Set[Tuple]]:
        """Net ``(added, removed)`` pair edges ``((u, a), (u2, c))`` since
        the last pop.  Requires :meth:`enable_pair_delta`."""
        if self._pair_delta is None:
            raise RuntimeError("pair-delta export not enabled on this index")
        added, removed = self._pair_delta.pop()
        return set(added), set(removed)

    def pair_edges(self) -> Iterable[Tuple[Tuple, Tuple]]:
        """The current pair relation as ``((u, a), (u2, c))`` edges."""
        return self._pair_graph.edges()

    def candidates(self) -> MatchRelation:
        return {
            u: {v for (_, v) in self._inner.candt[u]}
            for u in self._inner.candt
        }

    def has_pair(self, edge: PatternEdge, a: Node, c: Node) -> bool:
        u, u2 = edge
        return self._pair_graph.has_edge((u, a), (u2, c))

    def result_graph(self) -> DiGraph:
        """The paper's ``Gr``: matched data nodes and their pair edges."""
        raw = self.raw_match_sets()
        gr = DiGraph()
        if not all(raw.values()):
            return gr
        for u, vs in raw.items():
            for v in vs:
                gr.add_node(v, **dict(self.graph.attrs(v)))
        for (u, a), (u2, c) in self._pair_graph.edges():
            if a in raw.get(u, ()) and c in raw.get(u2, ()):
                gr.add_edge(a, c)
        return gr

    def landmark_index(self) -> Optional[LandmarkIndex]:
        return self._lm

    # ------------------------------------------------------------------
    # Node registration and eligibility repair
    # ------------------------------------------------------------------
    def add_node(self, v: Node, **attrs) -> None:
        self.graph.add_node(v, **attrs)
        self._register_node(v)

    def _register_node(self, v: Node) -> None:
        """Adopt the layers ``v`` is eligible for but not wired into yet.

        A standalone index evaluates the node's predicates first; a leased
        index reads membership off the shared sets (the substrate
        evaluated each distinct predicate once for the whole pool).
        """
        if self._eligibility is None:
            attrs = self.graph.attrs(v)
            for u in self.pattern.nodes():
                if v not in self.eligible[u] and self.pattern.predicate(
                    u
                ).satisfied_by(attrs):
                    self.eligible[u].add(v)
        for u in self.pattern.nodes():
            if v in self.eligible[u] and not self._adopted(u, v):
                self._adopt(u, v)

    def _adopted(self, u: PatternNode, v: Node) -> bool:
        """Has this index wired ``v`` into layer ``u``'s pair bookkeeping?

        The inner index's eligible set is the marker (pair-graph node
        presence alone would lie after a retire, which leaves the orphaned
        pair node in the graph).  Eligibility membership alone does not
        say: a flip or a fresh node reaches the eligible set before the
        index wires it.
        """
        return (u, v) in self._inner.eligible[u]

    def _adopt(self, u: PatternNode, v: Node) -> None:
        self._inner.add_node((u, v), **{LAYER_ATTR: u})

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after eligibility flipped for a batch of node events
        (one ``(node, gained layers, lost layers)`` triple per event; the
        eligible sets already final, flips netted per (predicate, node)).

        No predicate is evaluated here: lost layers retire their pair
        nodes (with the usual pair-edge cascade), gained layers
        materialize their pairs in both directions.
        All losses across the batch retire first (their pair edges in one
        inner batch), then **all** gains adopt before any pair
        materialization — the final shared sets may pair a gained node
        with a node gained in a *different* same-batch event, so the
        cross-event generalization of the single-event "register all
        gained layers first" rule is required for the inner index to see
        both endpoints.  Materialization consults only the final sets, so
        the interleaved per-event order reaches the same pair graph.
        """
        events = [
            (
                v,
                [u for u in gained if not self._adopted(u, v)],
                [u for u in lost if self._adopted(u, v)],
            )
            for v, gained, lost in events
        ]
        pair_updates: List[Update] = []
        for v, _gained, lost in events:
            for u in lost:
                pv = (u, v)
                for child in list(self._pair_graph.children(pv)):
                    pair_updates.append(upd_delete(pv, child))
                for parent in list(self._pair_graph.parents(pv)):
                    pair_updates.append(upd_delete(parent, pv))
        if pair_updates:
            self._apply_pair_batch(pair_updates)
        # Retire after the edges are gone so leaf-layer matches drop too.
        for v, _gained, lost in events:
            for u in lost:
                self._inner.retire_node((u, v))
        if not any(gained for _v, gained, _lost in events):
            return
        for v, gained, _lost in events:
            for u in gained:
                self._adopt(u, v)
        inserts: List[Update] = []
        for v, gained, _lost in events:
            for u in gained:
                # Outgoing pairs: targets within bound of v, per edge
                # from u.
                for u2 in self.pattern.children(u):
                    bound = self._bounds[(u, u2)]
                    ball = descendants_within(self.graph, v, bound)
                    for c, d in ball.items():
                        if c in self.eligible[u2] and (
                            bound is None or d <= bound
                        ):
                            inserts.append(upd_insert((u, v), (u2, c)))
                # Incoming pairs: sources reaching v, per edge into u.
                for u0 in self.pattern.parents(u):
                    bound = self._bounds[(u0, u)]
                    ball = ancestors_within(self.graph, v, bound)
                    for a, d in ball.items():
                        if a in self.eligible[u0] and (
                            bound is None or d <= bound
                        ):
                            inserts.append(upd_insert((u0, a), (u, v)))
        if inserts:
            self._apply_pair_batch(inserts)

    # ------------------------------------------------------------------
    # Distance-structure maintenance helpers
    # ------------------------------------------------------------------
    def _distinct_bounds(self) -> Set[Bound]:
        return set(self._bounds.values())

    def _legs(self, x: Node, y: Node, bound: Bound) -> Legs:
        """The edge's legs at radius ``bound - 1`` (a leg of a path
        through the edge): read from the substrate's memo in a pool,
        computed directly by a standalone index."""
        radius = None if bound is None else bound - 1
        if self.substrate is not None:
            return self.substrate.legs(x, y, radius)
        return edge_legs(self.graph, x, y, radius)

    def _balls_around(
        self, x: Node, y: Node
    ) -> Tuple[Dict[Bound, Dict[Node, int]], Dict[Bound, Dict[Node, int]]]:
        """Backward balls at x and forward balls at y, per distinct bound:
        the edge's legs (anchors at distance 0), read-only."""
        bins: Dict[Bound, Dict[Node, int]] = {}
        bouts: Dict[Bound, Dict[Node, int]] = {}
        for bound in self._distinct_bounds():
            bins[bound], bouts[bound] = self._legs(x, y, bound)
        return bins, bouts

    def _pairs_created_by_insert(
        self,
        bins: Dict[Bound, Dict[Node, int]],
        bouts: Dict[Bound, Dict[Node, int]],
    ) -> List[Update]:
        """Pair insertions unlocked by an inserted data edge — ``bins`` /
        ``bouts`` are its balls on the graph that already contains it."""
        out: List[Update] = []
        for (u, u2), bound in self._bounds.items():
            bin_ball = bins[bound]
            bout_ball = bouts[bound]
            sources = [a for a in bin_ball if a in self.eligible[u]]
            targets = [c for c in bout_ball if c in self.eligible[u2]]
            if not sources or not targets:
                continue
            for a in sources:
                da = bin_ball[a]
                pa = (u, a)
                for c in targets:
                    if bound is not None and da + 1 + bout_ball[c] > bound:
                        continue
                    pc = (u2, c)
                    if not self._pair_graph.has_edge(pa, pc):
                        out.append(upd_insert(pa, pc))
        return out

    def _collect_suspects(
        self,
        bins: Dict[Bound, Dict[Node, int]],
        bouts: Dict[Bound, Dict[Node, int]],
        suspects: Dict[PatternEdge, Set[Tuple[Node, Node]]],
    ) -> None:
        """Gather pairs whose old witness path may have used a deleted edge.

        ``bins``/``bouts`` were computed on the pre-deletion graph: the old
        path's prefix/suffix around the deleted edge survives in them, so
        every broken pair lands in ``suspects``.
        """
        for (u, u2), bound in self._bounds.items():
            bin_ball = bins[bound]
            bout_ball = bouts[bound]
            bucket = suspects.setdefault((u, u2), set())
            for a in bin_ball:
                if a not in self.eligible[u]:
                    continue
                pa = (u, a)
                if pa not in self._pair_graph:
                    continue
                for layer, c in self._pair_graph.children(pa):
                    if layer == u2 and c in bout_ball:
                        bucket.add((a, c))

    def _recheck_suspects(
        self, suspects: Dict[PatternEdge, Set[Tuple[Node, Node]]]
    ) -> List[Update]:
        """Pair deletions among ``suspects``, rechecked on the current graph.

        With a landmark index / distance matrix each pair is an O(|lm|)
        early-exit query; otherwise suspects are grouped by source so each
        source pays a single bounded BFS regardless of how many deleted
        edges implicated it.  In ``interval`` mode, ``*``-bound pairs ask
        the reachability oracle exactly when its labelling is clean (each
        consult is then near-O(1)); a *dirty* labelling would pay a full
        rebuild just to answer rechecks — ruinous for bulk decremental
        batches such as sliding-window expiry — so dirty oracles route
        ``*``-bound suspects through the grouped BFS too (exact on the
        post-deletion graph) and keep their budgeted lazy-rebuild policy
        intact.  Finite bounds need true distances, so they always take
        the grouped BFS.
        """
        out: List[Update] = []
        if self.distance_mode == "interval":
            reach = self._ensure_reach()
            graph = self.graph
            bounded: Dict[PatternEdge, Set[Tuple[Node, Node]]] = {}
            dirty = reach.dirty
            for (u, u2), pairs in suspects.items():
                bound = self._bounds[(u, u2)]
                if bound is not None or dirty:
                    if pairs:
                        bounded[(u, u2)] = pairs
                    continue
                for a, c in pairs:
                    # Pair semantics need a *nonempty* path: for a != c
                    # reflexive reachability coincides; a self-pair needs
                    # a cycle through a, i.e. a successor that reaches it.
                    if a != c:
                        ok = reach.reachable(a, c)
                    else:
                        ok = a in graph and any(
                            reach.reachable(w, a) for w in graph.children(a)
                        )
                    if not ok:
                        out.append(upd_delete((u, a), (u2, c)))
            suspects = bounded
        elif self._lm is not None or self._matrix is not None:
            for (u, u2), pairs in suspects.items():
                bound = self._bounds[(u, u2)]
                for a, c in pairs:
                    if self._lm is not None:
                        ok = self._lm.within(a, c, bound)
                    else:
                        d = self._matrix.dist(a, c)
                        ok = d != INF and (bound is None or d <= bound)
                    if not ok:
                        out.append(upd_delete((u, a), (u2, c)))
            return out
        by_source: Dict[Node, List[Tuple[PatternNode, PatternNode, Bound, Node]]] = {}
        for (u, u2), pairs in suspects.items():
            bound = self._bounds[(u, u2)]
            for a, c in pairs:
                by_source.setdefault(a, []).append((u, u2, bound, c))
        for a, entries in by_source.items():
            has_star = any(b is None for _, _, b, _ in entries)
            radius: Bound
            if has_star:
                radius = None
            else:
                radius = max(b for _, _, b, _ in entries)
            ball = descendants_within(self.graph, a, radius)
            for u, u2, bound, c in entries:
                d = ball.get(c)
                if d is None or (bound is not None and d > bound):
                    out.append(upd_delete((u, a), (u2, c)))
        return out

    # ------------------------------------------------------------------
    # Distance-aware routing oracle (MatcherPool plumbing)
    # ------------------------------------------------------------------
    def distance_routed(self) -> bool:
        """Do the bounds force distance-aware (rather than endpoint) routing?

        Any bound ``> 1`` (or ``*``) lets an edge between unlabeled nodes
        shorten or break a witness path, so endpoint-attribute routing is
        unsound; :meth:`can_affect_edge` is the sound replacement.  Pure
        bound-1 patterns behave like plain simulation and stay
        endpoint-routable.
        """
        return any(b != 1 for b in self._bounds.values())

    def _ensure_reach(self) -> IntervalReachabilityIndex:
        """The interval oracle — leased from the substrate at registration
        or owned by a standalone index (built lazily on first recheck)."""
        if self._reach is None:
            self._reach = IntervalReachabilityIndex(self.graph)
        return self._reach

    def reachability_index(self) -> Optional[IntervalReachabilityIndex]:
        return self._reach

    def release(self) -> None:
        """Release every substrate lease (pool unregister).

        Idempotent; a released index must not be consulted again through
        the routing oracle.
        """
        if self._eligibility is not None:
            for u in self.pattern.nodes():
                self._eligibility.release(self.pattern.predicate(u))
            self._eligibility = None
        if self.substrate is None:
            return
        if self._lm is not None:
            self.substrate.release_landmarks()
            self._lm = None
        if self._matrix is not None:
            self.substrate.release_matrix()
            self._matrix = None
        for key in self._closure_keys:
            self.substrate.release_reach_closure(*key)
        self._closure_keys = []
        if self._reach_leased:
            self.substrate.release_reachability()
            self._reach = None
            self._reach_leased = False
        self._reach_closures = None
        # Detach so a stray consult on a released index cannot silently
        # re-lease substrate structures nobody will ever release again.
        self.substrate = None

    def can_affect_edge(self, x: Node, y: Node) -> bool:
        """Sound routing oracle: can an edge update between ``x`` and
        ``y`` create or break any pair?

        Only the pool consults it, so it reads only the substrate's
        shared structures; a standalone (or released) index raises.  May
        err towards ``True``; ``False`` is a proof of irrelevance on the
        distance structure's current state.  The pool consults it
        *before* the edit for deletions (old witness paths decompose over
        pre-deletion distances) and *after* the substrate observed the
        insertion batch (so same-batch edges are already reflected) —
        mirroring the ``prepare_deletions`` two-phase dance.

        Backing store: in ``bfs``, ``landmark`` and ``matrix`` mode, the
        edge's two legs from the substrate
        (:meth:`SharedDistanceSubstrate.legs`: the radius-``k-1`` backward
        BFS from ``x`` and forward BFS from ``y``, memoized per edge and
        radius, so every query consulted on the edge — and every routed
        query's repair — shares one BFS pair); a pattern edge ``(u, u2)``
        routes when the ``x`` leg meets ``eligible[u]`` and the ``y`` leg
        meets ``eligible[u2]``.  That is sound for trivial-(TRUE)-
        predicate queries: the pool announces fresh nodes to the
        eligibility substrate before insertion routing, so a brand-new
        attribute-less node is already a ``TRUE`` member when this oracle
        runs.  A ``*`` bound pays a full reachability BFS pair per
        consulted edge; ``interval`` mode is the O(1) route for those.

        In ``interval`` mode the consult is two O(1) closure-membership
        tests per pattern edge: ``x`` reachable from an eligible source
        and ``y`` reaching an eligible target.  Reachability ignores the
        bounds, so this branch over-approximates the legs for finite
        bounds — still sound (``False`` remains a proof), and the
        tolerated-deletion staleness of the underlying labelling only ever
        widens it.
        """
        if self.substrate is None:
            raise RuntimeError(
                "can_affect_edge reads pool substrate structures; this "
                "index has no substrate (standalone or released)"
            )
        if self.distance_mode == "interval":
            for edge in self._bounds:
                src, tgt = self._reach_closures[edge]
                if src.contains(x) and tgt.contains(y):
                    return True
            return False
        for (u, u2), bound in self._bounds.items():
            back, fwd = self._legs(x, y, bound)
            # isdisjoint probes the larger side from the smaller.
            if not back.keys().isdisjoint(
                self.eligible[u]
            ) and not fwd.keys().isdisjoint(self.eligible[u2]):
                return True
        return False

    # ------------------------------------------------------------------
    # IncBMatch- / IncBMatch+: repair after the graph was edited
    # ------------------------------------------------------------------
    def prepare_deleted_edges(
        self, edges: Iterable[Tuple[Node, Node]]
    ) -> List[Tuple]:
        """Deletion prep: legs on the *pre-deletion* graph.

        Must be called before the edges are removed; the returned token
        is handed back to :meth:`repair_deleted_edges`.
        """
        return [self._balls_around(x, y) for x, y in edges]

    def repair_deleted_edges(self, prepared: List[Tuple]) -> None:
        """IncBMatch- for edges already removed from the graph: suspects
        from the pre-deletion legs, rechecked on the current graph.

        Distance structures are **not** synced here — the pool feeds every
        net deletion to its substrate first (routed edges are a subset, so
        syncing here would double-apply); the standalone driver syncs its
        own in :meth:`_sync_own_structures`.
        """
        if not prepared:
            return
        suspects: Dict[PatternEdge, Set[Tuple[Node, Node]]] = {}
        for bins, bouts in prepared:
            self._collect_suspects(bins, bouts, suspects)
        if suspects:
            pair_updates = self._recheck_suspects(suspects)
            if pair_updates:
                self._apply_pair_batch(pair_updates)

    def repair_inserted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncBMatch+ for edges already added to the graph: pairs newly
        within bound through each edge, from legs on the final graph.

        Distance structures are **not** synced here (see
        :meth:`repair_deleted_edges`).
        """
        edges = list(edges)
        if not edges:
            return
        for x, y in edges:
            self._register_node(x)
            self._register_node(y)
        pair_updates: List[Update] = []
        for x, y in edges:
            pair_updates.extend(
                self._pairs_created_by_insert(*self._balls_around(x, y))
            )
        if pair_updates:
            self._apply_pair_batch(pair_updates)

    def _sync_own_structures(
        self, deleted: List[Tuple[Node, Node]], inserted: List[Tuple[Node, Node]]
    ) -> None:
        """Standalone upkeep of the distance structures this index owns
        (one ``IncLM`` batch, min-plus matrix updates, interval staleness
        notes) after an edge batch was applied; leased structures are the
        pool's to sync."""
        if self.substrate is not None:
            return
        if self._lm is not None:
            self._lm.apply_batch(inserted=inserted, deleted=deleted)
        if self._matrix is not None:
            if deleted:
                self._matrix.apply_deletions(deleted)
            for x, y in inserted:
                self._matrix.apply_insert(x, y)
        if self._reach is not None:
            self._reach.notify_edges_deleted(len(deleted))
            self._reach.notify_edges_inserted(len(inserted))

    def apply_batch(self, updates: Iterable[Update]) -> None:
        """IncBMatch: the batch is netted, then one deletion phase and one
        insertion phase, each one pair-level IncMatch pass."""
        updates = list(updates)
        net = self._drive(updates)
        self.stats.original_updates += len(updates)
        self.stats.reduced_updates += len(net)

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Pair graph must mirror true bounded distances; inner invariants
        must hold."""
        self._inner.check_invariants()
        for (u, u2), bound in self._bounds.items():
            for a in self.eligible[u]:
                ball = descendants_within(self.graph, a, bound)
                expected = {
                    c
                    for c, d in ball.items()
                    if c in self.eligible[u2] and (bound is None or d <= bound)
                }
                actual = {
                    c
                    for (layer, c) in self._pair_graph.children((u, a))
                    if layer == u2
                }
                assert actual == expected, (
                    f"pair drift at edge ({u}, {u2}), node {a}: "
                    f"{actual ^ expected}"
                )
