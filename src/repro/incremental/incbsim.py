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
*simulation* over the pair graph.  This index edits the pair graph itself
and hands each edit straight to IncMatch's repair entry points:
IncBMatch- removes the pair edges its rechecks break and calls the inner
``repair_deleted_edges``; IncBMatch+ adds the pairs newly within bound
(``add_edge`` skips a pair already present, which is all the netting a
pair batch needs) and calls ``repair_inserted_edges`` on those it added;
and a batch of eligibility flips is one inner
``apply_eligibility_flip_batch`` over pair nodes.  No pair edit goes
through the inner index's standalone ``apply_batch``, so none is netted
a second time.

The pair graph is built once, at construction
(:meth:`BoundedSimulationIndex._build_pair_graph`).  Each pattern edge
reads its pairs from its smaller eligible side: a forward ball from each
source, or a backward ball from each target when the targets are fewer.
The pairs are inserted source-major either way, as a forward build
inserts them.  The inner index takes the pair graph's layers as its
eligible sets.  Pair nodes carry no attributes, so the inner pattern's
layer predicates hold on none of them and the inner index never adopts a
pair node on its own: this index moves pair nodes in and out of the
layers (:meth:`BoundedSimulationIndex.apply_eligibility_flip_batch`).

What remains is distance maintenance: which pairs appear or disappear when
a data edge changes.  One rule decides it.  A pair ``(a, c)`` under a
pattern edge of bound ``k`` is touched by the edge ``(x, y)`` only if
``d(a, x) + 1 + d(y, c) <= k``, read off the edge's *legs*
(:func:`~repro.graphs.traversal.edge_legs`: the backward BFS from ``x``
and forward BFS from ``y``).  One pair at the largest finite leg radius
``k - 1`` serves every finite bound, each scan stopping at its own
radius, and a reachability pair serves ``*`` bounds, which drop the sum
test.

- **Insertion** of ``(x, y)``: a gained pair's new shortest witness runs
  through some inserted edge, so it satisfies the rule on the legs of the
  graph after the batch.  Every such pair the pair graph lacks is added.
- **Deletion** of ``(x, y)``: a broken pair's old shortest witness ran
  through some deleted edge, so it satisfies the rule on legs computed
  *before* the edit.  Every such pair the pair graph holds is a suspect,
  rechecked afterwards — by a *probe* per suspect source and bound
  (:class:`~repro.graphs.traversal.WithinProbe`: a BFS that expands only
  until its suspect targets are decided, and never expands the last
  layer), or by landmark / matrix distance queries depending on
  ``distance_mode``.
- **Routing** (:class:`~repro.engine.router.UpdateRouter`, in a pool)
  applies the rule to the nearest eligible member of each leg, so an
  edge is routed to a query only if some pair could pass it.

Both directions are implemented once, as the repair methods the pool
runs around its shared graph: ``prepare_deleted_edges`` before the edit
and ``repair_deleted_edges`` after it, ``repair_inserted_edges``, and
``apply_eligibility_flip_batch`` for attribute changes.  The standalone
``insert_edge``/``delete_edge``/``apply_batch``/``update_node_attrs``/
``add_node`` are drivers over them
(:class:`~repro.incremental.drivers.StandaloneDriver`): a unit update
is a batch of one, and the distance structures a
standalone index owns are synced by one helper,
:meth:`BoundedSimulationIndex._sync_own_structures`.

``distance_mode``:

- ``'bfs'``       — rechecks by bounded probes (default IncBMatch);
- ``'landmark'``  — maintains a :class:`LandmarkIndex` (``IncLM``) and
  answers rechecks from its one table — the paper's Section 6.3 algorithm;
- ``'matrix'``    — standalone only: maintains a full all-pairs matrix
  (min-plus updates on insert, rebuild on delete), the ``IncBMatch_m``
  baseline of Exp-2, whose heavier auxiliary structure is exactly what
  Fig. 19 measures.  An index given a substrate refuses it.

A standalone index owns the landmark index or matrix
its suspect rechecks read, and computes each edge's legs itself.  A
pool-registered index receives the pool's
:class:`~repro.engine.distances.SharedDistanceSubstrate` instead: a
``landmark``-mode index **leases** the pool's one landmark index, which
the pool keeps in sync once per flush for every leasing query, and the
legs and the recheck probes come from the substrate's memos (:meth:`SharedDistanceSubstrate.legs`,
:meth:`SharedDistanceSubstrate.probe`), so routing and every routed
query's repair on one edge share one BFS pair, and every routed query's
recheck in a flush extends one partial BFS per suspect source and bound.
A standalone index builds the same legs and probes itself, sharing a
probe across its own rechecks of one batch.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.distance import DistanceMatrix
from ..graphs.traversal import (
    INF,
    Legs,
    WithinProbe,
    ancestors_within,
    descendants_within,
    edge_legs,
)
from ..landmarks.vector import LandmarkIndex
from ..matching.relation import MatchRelation, totalize
from ..matching.simulation import candidate_sets
from ..patterns.pattern import Bound, Pattern, PatternNode
from ..patterns.predicate import Predicate
from .drivers import StandaloneDriver
from .incsim import IncStats, SimulationIndex
from .types import Update

PatternEdge = Tuple[PatternNode, PatternNode]
# An edge of the pair graph: ((u, a), (u2, c)).
PairEdge = Tuple[Tuple[PatternNode, Node], Tuple[PatternNode, Node]]
LAYER_ATTR = "__layer__"
DISTANCE_MODES = ("bfs", "landmark", "matrix")


def _members_within(
    leg: Dict[Node, int], members: Set[Node], radius: Optional[int]
) -> List[Tuple[Node, int]]:
    """``(node, distance)`` of every member of ``members`` in ``leg`` at
    distance ``<= radius`` (all of them for ``None``), nearest first.  A
    leg lists its nodes in nondecreasing distance, so the scan stops at
    the first member beyond ``radius``; ``filter`` runs the membership
    tests in C."""
    found = filter(members.__contains__, leg)
    if radius is None:
        return [(v, leg[v]) for v in found]
    out: List[Tuple[Node, int]] = []
    for v in found:
        d = leg[v]
        if d > radius:
            break
        out.append((v, d))
    return out


def _layered_pattern(pattern: Pattern) -> Pattern:
    """The pattern with predicates replaced by layer-membership tests.

    No pair node carries the layer attribute: the inner index's eligible
    sets are handed in and kept by :class:`BoundedSimulationIndex`, and
    the predicates only name each layer."""
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
        substrate=None,
        eligibility=None,
    ) -> None:
        if distance_mode not in DISTANCE_MODES:
            raise ValueError(f"unknown distance_mode {distance_mode!r}")
        if substrate is not None and distance_mode == "matrix":
            raise ValueError(
                "distance_mode 'matrix' is standalone only: a substrate "
                "keeps no matrix"
            )
        self.pattern = pattern
        self.graph = graph
        self.distance_mode = distance_mode
        # A pool-level SharedDistanceSubstrate (engine.distances).  When
        # set, the landmark index is leased rather than owned, edge legs
        # and probes are read from its memos, and the pool keeps the
        # leased index in sync.  A substrate-backed index must
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
        # One pair of legs at the largest finite leg radius serves every
        # finite bound; None when every bound is *.
        finite = [b for b in self._bounds.values() if b is not None]
        self._leg_radius: Optional[int] = max(finite) - 1 if finite else None
        self._unbounded = None in self._bounds.values()
        if eligibility is not None:
            self.eligible: MatchRelation = {
                u: eligibility.lease(pattern.predicate(u)).members
                for u in pattern.nodes()
            }
        else:
            self.eligible = candidate_sets(pattern, graph)
        self._pair_graph = DiGraph()
        self._inner = SimulationIndex(
            _layered_pattern(pattern),
            self._pair_graph,
            eligible=self._build_pair_graph(),
        )
        self._lm: Optional[LandmarkIndex] = None
        self._matrix: Optional[DistanceMatrix] = None
        if distance_mode == "landmark":
            if substrate is not None:
                # The rechecks read within(a, c, k) for this pattern's
                # bounds alone; an edgeless pattern reads nothing.
                self._lm = substrate.lease_landmarks(
                    None if self._unbounded else max(finite, default=0)
                )
            else:
                self._lm = LandmarkIndex(graph)
        elif distance_mode == "matrix":
            self._matrix = DistanceMatrix(graph)

    # ------------------------------------------------------------------
    # Pair graph construction
    # ------------------------------------------------------------------
    def _build_pair_graph(self) -> MatchRelation:
        """Build the pair graph and return its layers: per pattern node
        ``u``, the set of its pair nodes ``(u, v)`` (the very tuples the
        pair graph holds), which are the inner index's eligible sets.

        A pattern edge ``(u, u2)`` of bound ``k`` reads its pairs from
        its smaller eligible side: a forward ball
        (:func:`~repro.graphs.traversal.descendants_within`) from each
        source ``a`` in ``E[u]`` when ``|E[u]| <= |E[u2]|``, else a
        backward ball (:func:`~repro.graphs.traversal.ancestors_within`)
        from each target ``c`` in ``E[u2]``.  Either way the pairs are
        inserted source-major, pattern edge by pattern edge in
        ``_bounds`` order and then source by source in ``E[u]``'s order,
        so each source pair node receives its children in the same
        per-edge blocks as a forward build.  Inserting the backward
        side's pairs target-major builds the same edge set in a different
        heap; on the ``multi-bounded`` e2e workload that moved peak RSS
        and the harness's host-speed factor, and the flush-time figures
        with them.
        """
        pairs = self._pair_graph
        layers: MatchRelation = {}
        for u, vs in self.eligible.items():
            layer = layers[u] = set()
            for v in vs:
                pv = (u, v)
                pairs.add_node(pv)
                layer.add(pv)
        for (u, u2), bound in self._bounds.items():
            sources, targets = self.eligible[u], self.eligible[u2]
            if len(sources) <= len(targets):
                for a in sources:
                    for c in self._ball(a, bound, reverse=False):
                        if c in targets:
                            pairs.add_edge((u, a), (u2, c))
                continue
            found: Dict[Node, List[Node]] = {}
            for c in targets:
                for a in self._ball(c, bound, reverse=True):
                    if a in sources:
                        found.setdefault(a, []).append(c)
            for a in sources:
                for c in found.get(a, ()):
                    pairs.add_edge((u, a), (u2, c))
        return layers

    def _ball(
        self, anchor: Node, bound: Bound, reverse: bool
    ) -> Dict[Node, int]:
        """The nodes a nonempty path of length ``<= bound`` joins to
        ``anchor``: from it, or into it when ``reverse``.  A
        pool-registered index counts the entries in its substrate's
        ``ball_nodes``."""
        ball = (ancestors_within if reverse else descendants_within)(
            self.graph, anchor, bound
        )
        if self.substrate is not None:
            self.substrate.stats.ball_nodes += len(ball)
        return ball

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IncStats:
        """The inner index's counters; the update counts are this index's
        own (see :class:`~repro.incremental.incsim.IncStats`)."""
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
    def _register_node(self, v: Node) -> None:
        """Adopt the layers ``v`` is eligible for but not wired into yet.

        A standalone index evaluates the node's predicates first; a leased
        index reads membership off the shared sets (the substrate
        evaluated each distinct predicate once for the whole pool).  The
        pair nodes enter with no pair edge, through the one inner call of
        :meth:`_flip_pairs`: a node registered here is new to the graph,
        so its only edges are the ones being inserted, and
        :meth:`repair_inserted_edges` adds the pairs through them.
        """
        if self._eligibility is None:
            attrs = self.graph.attrs(v)
            for u in self.pattern.nodes():
                if v not in self.eligible[u] and self.pattern.predicate(
                    u
                ).satisfied_by(attrs):
                    self.eligible[u].add(v)
        gained = [
            (u, v)
            for u in self.pattern.nodes()
            if v in self.eligible[u] and not self._adopted(u, v)
        ]
        self._flip_pairs(gained, [])

    def _adopted(self, u: PatternNode, v: Node) -> bool:
        """Has this index wired ``v`` into layer ``u``'s pair bookkeeping?

        The pair node's membership in the inner index's eligible set for
        ``u`` is the marker, because this index moves it in and out: a
        gained pair node enters it before the inner call that adopts it,
        and a lost one leaves it before the inner call that withdraws it.
        Eligibility membership alone does not say: a flip or a fresh node
        reaches the data-level eligible set before the index wires it.
        """
        return (u, v) in self._inner.eligible[u]

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after eligibility flipped for a batch of node events
        (one ``(node, gained layers, lost layers)`` triple per event; the
        eligible sets already final, flips netted per (predicate, node)).

        No predicate is evaluated here.  The batch is one inner
        :meth:`~repro.incremental.incsim.SimulationIndex.apply_eligibility_flip_batch`
        over pair nodes, in three steps:

        1. Every gained pair node enters the pair graph and its layer's
           inner eligible set, with its pairs in both directions: the
           targets within bound of its forward ball, per pattern edge out
           of its layer, and the sources within bound of its backward
           ball, per pattern edge into it.  The balls read the final
           sets, so two nodes gained in different events pair with each
           other, and no gained node pairs with a lost one.  A new pair
           edge moves no counter yet: its gained endpoint is no match.
        2. Every lost pair node leaves its inner eligible set, and the one
           inner call adopts the gains (counting the edges of step 1) and
           withdraws the losses while their edges still stand, so the
           demotion of a lost match reaches its parents' counters.  The
           losses are out of the eligible sets first, so no counter of a
           lost node is touched after it is withdrawn.
        3. Only then the lost pair nodes leave the pair graph with their
           edges.  That moves no counter: a lost node's own counters are
           gone, and its parents stopped counting it when it was demoted
           (a candidate was never counted).
        """
        gained = [
            (u, v)
            for v, us, _lost in events
            for u in us
            if not self._adopted(u, v)
        ]
        lost = [
            (u, v)
            for v, _gained, us in events
            for u in us
            if self._adopted(u, v)
        ]
        pairs = self._pair_graph
        for u, v in gained:
            pv = (u, v)
            for u2 in self.pattern.children(u):
                targets = self.eligible[u2]
                for c in self._ball(v, self._bounds[(u, u2)], reverse=False):
                    if c in targets:
                        pairs.add_edge(pv, (u2, c))
            for u0 in self.pattern.parents(u):
                sources = self.eligible[u0]
                for a in self._ball(v, self._bounds[(u0, u)], reverse=True):
                    if a in sources:
                        pairs.add_edge((u0, a), pv)
        self._flip_pairs(gained, lost)

    def _flip_pairs(
        self,
        gained: List[Tuple[PatternNode, Node]],
        lost: List[Tuple[PatternNode, Node]],
    ) -> None:
        """The end of step 1 of :meth:`apply_eligibility_flip_batch`, and
        steps 2 and 3: the ``gained`` pair nodes (their pair edges already
        added) enter the pair graph and their inner eligible sets, the
        ``lost`` ones leave them around the one inner call."""
        if not gained and not lost:
            return
        inner = self._inner
        for u, v in gained:
            self._pair_graph.add_node((u, v))
            inner.eligible[u].add((u, v))
        for u, v in lost:
            inner.eligible[u].discard((u, v))
        inner.apply_eligibility_flip_batch(
            [((u, v), [u], []) for u, v in gained]
            + [((u, v), [], [u]) for u, v in lost]
        )
        for pv in lost:
            self._pair_graph.remove_node(pv)

    # ------------------------------------------------------------------
    # Distance-structure maintenance helpers
    # ------------------------------------------------------------------
    def _probe(
        self,
        a: Node,
        bound: Bound,
        own: Dict[Tuple[Node, Bound], WithinProbe],
    ) -> WithinProbe:
        """The recheck probe from suspect source ``a`` at ``bound``: read
        from the substrate's memo in a pool, from ``own`` (local to one
        :meth:`_recheck_suspects` call) for a standalone index."""
        if self.substrate is not None:
            return self.substrate.probe(a, bound)
        key = (a, bound)
        probe = own.get(key)
        if probe is None:
            probe = own[key] = WithinProbe(self.graph, a, bound)
        return probe

    def _legs_per_bound(self, x: Node, y: Node) -> Dict[Bound, Legs]:
        """The legs of the edge ``(x, y)`` for each distinct bound,
        read-only: one pair at the largest finite leg radius serves every
        finite bound (its scans stop at their own radius), a reachability
        pair the ``*`` bounds.  Read from the substrate's memo in a pool,
        computed directly by a standalone index."""
        legs = (
            self.substrate.legs if self.substrate is not None
            else partial(edge_legs, self.graph)
        )
        out: Dict[Bound, Legs] = {}
        if self._leg_radius is not None:
            out = dict.fromkeys(
                self._bounds.values(), legs(x, y, self._leg_radius)
            )
        if self._unbounded:
            out[None] = legs(x, y, None)
        return out

    def _pairs_through(
        self, legs: Dict[Bound, Legs]
    ) -> Iterator[Tuple[PatternEdge, Node, Node]]:
        """Every ``(pattern edge, a, c)`` with a witness through the edge
        whose legs per bound are ``legs``.

        For a pattern edge ``(u, u2)`` with bound ``k``: ``a`` is a member
        of ``eligible[u]`` at distance ``da`` in the backward leg, ``c`` a
        member of ``eligible[u2]`` at ``dc`` in the forward leg, and
        ``da + 1 + dc <= k`` (no sum test for ``*``).  Legs list their
        nodes in nondecreasing distance order, so each scan stops at the
        first node too far: the sources at radius ``k - 1``, the targets
        at the room the nearest source leaves, and the targets of each
        source at the room it leaves.

        The rule is exact for both repairs:

        - *Deletion.*  A broken pair's old shortest witness (length
          ``<= k``) used some deleted edge ``(x, y)``.  Its prefix and
          suffix bound ``d(a, x)`` and ``d(y, c)`` on the pre-deletion
          graph, which is the graph :meth:`prepare_deleted_edges` read the
          legs on.
        - *Insertion.*  A gained pair's new shortest witness on the final
          graph uses some inserted edge, since without one it would have
          existed before the batch.  It decomposes over that edge's legs
          on the final graph, read after the batch was observed.
        """
        for edge, bound in self._bounds.items():
            back, fwd = legs[bound]
            radius = None if bound is None else bound - 1
            starts = _members_within(back, self.eligible[edge[0]], radius)
            if not starts:
                continue
            ends = _members_within(
                fwd,
                self.eligible[edge[1]],
                None if radius is None else radius - starts[0][1],
            )
            for a, da in starts:
                room = INF if radius is None else radius - da
                for c, dc in ends:
                    if dc > room:
                        break
                    yield edge, a, c

    def _recheck_suspects(
        self, suspects: Dict[PatternEdge, Set[Tuple[Node, Node]]]
    ) -> List[PairEdge]:
        """The pair edges among ``suspects`` the current graph no longer
        holds within bound.

        The suspects are the pairs :meth:`_pairs_through` yields over the
        deleted edges' pre-deletion legs that the pair graph holds, with a
        bucket only under a pattern edge that yielded one;
        ``stats.pairs_rechecked`` counts them.

        With a landmark index each pair reads ``c``'s distance vector at
        the first landmarks of ``a`` (``a`` itself, or its children) until
        a witness within bound; with a distance matrix it is one lookup.
        Otherwise each pair asks the probe of its source and bound
        (:meth:`_probe`) whether its target is still within bound: the
        probe's BFS expands only until the targets asked so far are
        decided, and in a pool every routed query's recheck in the flush
        extends the same memoized probe.
        """
        self.stats.pairs_rechecked += sum(map(len, suspects.values()))
        out: List[PairEdge] = []
        if self._lm is not None or self._matrix is not None:
            for (u, u2), pairs in suspects.items():
                bound = self._bounds[(u, u2)]
                for a, c in pairs:
                    if self._lm is not None:
                        ok = self._lm.within(a, c, bound)
                    else:
                        d = self._matrix.dist(a, c)
                        ok = d != INF and (bound is None or d <= bound)
                    if not ok:
                        out.append(((u, a), (u2, c)))
            return out
        own: Dict[Tuple[Node, Bound], WithinProbe] = {}
        for (u, u2), pairs in suspects.items():
            bound = self._bounds[(u, u2)]
            for a, c in pairs:
                if not self._probe(a, bound, own).reaches(c):
                    out.append(((u, a), (u2, c)))
        return out

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    def distance_routed(self) -> bool:
        """Do the bounds force distance-aware (rather than endpoint) routing?

        Any bound ``> 1`` (or ``*``) lets an edge between unlabeled nodes
        shorten or break a witness path, so endpoint-attribute routing is
        unsound; the pool's router applies the leg rule instead (see
        :class:`~repro.engine.router.UpdateRouter`).  Pure bound-1
        patterns behave like plain simulation and stay endpoint-routable.
        """
        return any(b != 1 for b in self._bounds.values())

    def release(self) -> None:
        """Release every substrate lease (pool unregister).

        Idempotent; a released index must not be repaired again.
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
        # Detach so a stray repair on a released index cannot silently
        # re-lease substrate structures nobody will ever release again.
        self.substrate = None

    # ------------------------------------------------------------------
    # IncBMatch- / IncBMatch+: repair after the graph was edited
    # ------------------------------------------------------------------
    def prepare_deleted_edges(
        self, edges: Iterable[Tuple[Node, Node]]
    ) -> List[Dict[Bound, Legs]]:
        """Deletion prep: legs on the *pre-deletion* graph.

        Must be called before the edges are removed; the returned token
        is handed back to :meth:`repair_deleted_edges`.
        """
        return [self._legs_per_bound(x, y) for x, y in edges]

    def repair_deleted_edges(self, prepared: List[Dict[Bound, Legs]]) -> None:
        """IncBMatch- for edges already removed from the graph: suspects
        from the pre-deletion legs, rechecked on the current graph; the
        pair edges that fail leave the pair graph, and IncMatch-
        (the inner ``repair_deleted_edges``) repairs their removal.

        Distance structures are **not** synced here — the pool feeds every
        net deletion to its substrate first (routed edges are a subset, so
        syncing here would double-apply); the standalone driver syncs its
        own in :meth:`_sync_own_structures`.
        """
        suspects: Dict[PatternEdge, Set[Tuple[Node, Node]]] = {}
        has_pair = self._pair_graph.has_edge
        for legs in prepared:
            for (u, u2), a, c in self._pairs_through(legs):
                if has_pair((u, a), (u2, c)):
                    suspects.setdefault((u, u2), set()).add((a, c))
        if suspects:
            broken = self._recheck_suspects(suspects)
            if broken:
                remove = self._pair_graph.remove_edge
                for pair in broken:
                    remove(*pair)
                self._inner.repair_deleted_edges(broken)

    def repair_inserted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncBMatch+ for edges already added to the graph: pairs newly
        within bound through each edge, from legs on the final graph,
        enter the pair graph, and IncMatch+ (the inner
        ``repair_inserted_edges``) repairs the ones added.  A pair found
        through two edges is added once: ``add_edge`` returns False for a
        pair already present.

        Distance structures are **not** synced here (see
        :meth:`repair_deleted_edges`).
        """
        edges = list(edges)
        if not edges:
            return
        for x, y in edges:
            self._register_node(x)
            self._register_node(y)
        add_pair = self._pair_graph.add_edge
        added: List[PairEdge] = []
        for x, y in edges:
            legs = self._legs_per_bound(x, y)
            for (u, u2), a, c in self._pairs_through(legs):
                if add_pair((u, a), (u2, c)):
                    added.append(((u, a), (u2, c)))
        if added:
            self._inner.repair_inserted_edges(added)

    def _sync_own_structures(
        self, deleted: List[Tuple[Node, Node]], inserted: List[Tuple[Node, Node]]
    ) -> None:
        """Standalone upkeep of the distance structures this index owns
        (one ``IncLM`` batch, min-plus matrix updates) after an edge batch
        was applied; leased structures are the pool's to sync."""
        if self.substrate is not None:
            return
        if self._lm is not None:
            self._lm.apply_batch(inserted=inserted, deleted=deleted)
        if self._matrix is not None:
            if deleted:
                self._matrix.apply_deletions(deleted)
            for x, y in inserted:
                self._matrix.apply_insert(x, y)

    def apply_batch(self, updates: Iterable[Update]) -> None:
        """IncBMatch: the batch is netted, then one deletion phase and one
        insertion phase, each one pair-level IncMatch repair.  ``stats``
        counts the data-level updates handed in and their net."""
        updates = list(updates)
        net = self._drive(updates)
        self.stats.original_updates += len(updates)
        self.stats.reduced_updates += len(net)

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Pair graph must mirror true bounded distances, a pair node
        outside its layer's inner eligible set must have no pair edge, and
        the inner invariants must hold."""
        self._inner.check_invariants()
        pairs = self._pair_graph
        for pv in pairs.nodes():
            if pv not in self._inner.eligible[pv[0]]:
                assert not pairs.children(pv) and not pairs.parents(pv), (
                    f"pair node {pv} outside its layer has pair edges"
                )
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
