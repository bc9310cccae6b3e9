"""Pool-level shared distance structures for bounded continuous queries.

A private distance structure per bounded query (landmark vectors, an
all-pairs matrix, ball unions) would make the pool feed **every** net
edge update to **every** such query — the upkeep that distance-aware
routing saves at the pair level paid right back N times over at the
structure level.  This is the "one maintained auxiliary structure, many
queries answered from it" shape of answering queries under updates
(Berkholz et al.): every bounded query in a
:class:`~repro.engine.pool.MatcherPool` leases from one substrate, which
owns

- at most **one** :class:`~repro.landmarks.vector.LandmarkIndex` per pool
  (``distance_mode='landmark'`` queries all read the same vectors);
- at most **one** :class:`~repro.graphs.distance.DistanceMatrix` per pool
  (``'matrix'`` queries share the rows for suspect rechecks);
- a registry of **stratified**
  :class:`~repro.incremental.ballsummary.BallField` ball unions keyed by
  ``(predicate, direction)`` — one exactly-maintained capped multi-source
  BFS per key, capped at the largest radius any lease wants, answering
  every leased radius ``r <= cap`` via :meth:`BallField.within` (a
  per-radius lease multiset re-caps the field as strata come and go);
  member sets are leased from the pool's
  :class:`~repro.engine.eligibility.SharedEligibilityIndex` (one set per
  distinct predicate, shared with the queries' own candidate views) and
  flip notifications delivered through its listener hooks;
- at most **one**
  :class:`~repro.graphs.reachability.IntervalReachabilityIndex` per pool
  (``'interval'`` queries share the SCC-interval labelling) plus a
  registry of :class:`~repro.graphs.reachability.ReachClosure` caches
  keyed by ``(predicate, direction)``, each refreshed at most once per
  flush per labelling version so routing consults are O(1);
- the **legs** of each routed edge, ``landmark`` mode's routing oracle:
  for an edge ``(x, y)`` and leg radius ``r``, the radius-``r`` backward
  BFS from ``x`` and forward BFS from ``y`` on the current graph (the
  paper's Section 6 locality argument: a bound-``r + 1`` pair gained or
  lost through the edge decomposes over them).  They are memoized per
  ``(x, y, r)`` until the next edge batch is observed, so every landmark
  query consulted on one edge shares one BFS pair; nothing is leased.

Every other structure is leased with a refcount: registering a bounded query
acquires leases, unregistering releases them, and a structure
whose refcount reaches zero is dropped so the pool stops paying its
upkeep.  The pool syncs the substrate **once per flush phase** — node
events flow through the eligibility index (whose listeners update ball
sources), ``observe_deleted`` runs after the shared graph drops a
deletion batch, and ``observe_inserted`` after an insertion batch lands
(and *before* insertion routing, which is what makes routing
trivial-``TRUE``-predicate bounded queries sound: a brand-new
attribute-less node is already a member of the ``TRUE`` set, hence a
pinned distance-0 ball source, when the routing oracle is consulted).
Both clear the memoized legs: deletion routing reads legs of the
pre-edit graph, insertion routing legs of the graph after the batch.

When the shared landmark index outgrows its
:class:`~repro.landmarks.selection.LandmarkBudget` (``InsLM`` growth is
monotone), the pool triggers a ``BatchLM`` re-selection at the end of the
flush via :meth:`SharedDistanceSubstrate.enforce_lm_budget`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.distance import DistanceMatrix
from ..graphs.reachability import IntervalReachabilityIndex, ReachClosure
from ..graphs.traversal import bfs_distances
from ..incremental.ballsummary import BallField
from ..landmarks.selection import LandmarkBudget
from ..landmarks.vector import LandmarkIndex
from ..patterns.predicate import Predicate
from .eligibility import SharedEligibilityIndex

# One stratified field per (predicate, direction); radii are lease-tracked.
FieldKey = Tuple[Predicate, bool]
ClosureKey = Tuple[Predicate, bool]
# (backward ball of x, forward ball of y): node -> possibly-empty-path hops.
Legs = Tuple[Dict[Node, int], Dict[Node, int]]


def _effective_cap(radii: Dict[Optional[int], int]) -> Optional[int]:
    """The cap a stratified field needs to serve every leased radius:
    unbounded if any lease is, else the largest finite one."""
    if None in radii:
        return None
    return max(radii)


class SubstrateStats:
    """Upkeep counters: how many structure-level update applications the
    pool paid per flush stream (the quantity sharing amortizes)."""

    __slots__ = (
        "lm_builds",
        "lm_rebuilds",
        "matrix_builds",
        "field_builds",
        "reach_builds",
        "edge_batches",
        "structure_batches",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lm_builds = 0
        self.lm_rebuilds = 0
        self.matrix_builds = 0
        self.field_builds = 0
        self.reach_builds = 0
        self.edge_batches = 0
        self.structure_batches = 0

    def __repr__(self) -> str:
        return (
            f"SubstrateStats(builds={self.lm_builds}+{self.matrix_builds}"
            f"+{self.field_builds}, edge_batches={self.edge_batches}, "
            f"structure_batches={self.structure_batches})"
        )


class SharedDistanceSubstrate:
    """One maintained distance structure per ``(graph, distance_mode)``,
    leased by all bounded queries of one pool."""

    def __init__(
        self,
        graph: DiGraph,
        eligibility: Optional[SharedEligibilityIndex] = None,
        lm_budget: Optional[LandmarkBudget] = None,
    ) -> None:
        self._graph = graph
        # Member sets come from the pool-wide eligibility substrate (one
        # set per distinct predicate, shared with the queries' candidate
        # views); a standalone substrate builds a private one.
        self._eligibility = (
            eligibility
            if eligibility is not None
            else SharedEligibilityIndex(graph)
        )
        self.lm_budget = lm_budget if lm_budget is not None else LandmarkBudget()
        self.stats = SubstrateStats()
        self._lm: Optional[LandmarkIndex] = None
        self._lm_refs = 0
        self._matrix: Optional[DistanceMatrix] = None
        self._matrix_refs = 0
        # (predicate, reverse) -> [BallField, refcount, listener,
        # radius-lease multiset {radius: count}].  The field's cap is the
        # effective max of the leased radii; leases below the cap read
        # their own stratum via BallField.within.
        self._fields: Dict[FieldKey, List[Any]] = {}
        # Shared SCC-interval reachability oracle ('interval' mode).
        self._reach: Optional[IntervalReachabilityIndex] = None
        self._reach_refs = 0
        # (predicate, reverse) -> [ReachClosure, refcount, listener].
        self._closures: Dict[ClosureKey, List[Any]] = {}
        # Landmark-mode routing legs, memoized per (x, y, radius) until
        # the next observed edge batch.
        self._legs: Dict[Tuple[Node, Node, Optional[int]], Legs] = {}

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease_landmarks(self, strategy: str = "matching") -> LandmarkIndex:
        """Acquire the pool-wide landmark index (built on first lease).

        The first lease's ``strategy`` wins; later leases share the same
        vectors regardless (one structure per pool is the whole point).
        """
        if self._lm is None:
            self._lm = LandmarkIndex(self._graph, strategy=strategy)
            self.stats.lm_builds += 1
        self._lm_refs += 1
        return self._lm

    def release_landmarks(self) -> None:
        self._lm_refs -= 1
        if self._lm_refs <= 0:
            self._lm = None
            self._lm_refs = 0

    def legs(self, x: Node, y: Node, radius: Optional[int]) -> Legs:
        """The two legs of a witness path through the edge ``(x, y)``.

        Every node within ``radius`` possibly-empty hops *of* ``x``
        (backward BFS, ``x`` itself at 0) and *from* ``y`` (forward BFS,
        ``y`` at 0) on the current graph; ``radius is None`` is plain
        reachability.  A pattern edge with bound ``radius + 1`` can gain
        or lose a pair through ``(x, y)`` only if the first leg meets its
        source's eligible set and the second its target's.  Memoized per
        ``(x, y, radius)`` until the next ``observe_*`` call, so the
        landmark queries consulted on one edge share one BFS pair.
        """
        key = (x, y, radius)
        legs = self._legs.get(key)
        if legs is None:
            legs = self._legs[key] = (
                bfs_distances(self._graph, x, radius, reverse=True),
                bfs_distances(self._graph, y, radius),
            )
        return legs

    def lease_matrix(self) -> DistanceMatrix:
        """Acquire the pool-wide all-pairs matrix (built on first lease)."""
        if self._matrix is None:
            self._matrix = DistanceMatrix(self._graph)
            self.stats.matrix_builds += 1
        self._matrix_refs += 1
        return self._matrix

    def release_matrix(self) -> None:
        self._matrix_refs -= 1
        if self._matrix_refs <= 0:
            self._matrix = None
            self._matrix_refs = 0

    def lease_field(
        self, predicate: Predicate, radius: Optional[int], reverse: bool
    ) -> BallField:
        """Acquire the shared stratified ball union for ``(predicate,
        direction)`` at stratum ``radius``.

        One field per (predicate, direction) serves **every** leased
        radius: the field is capped at the effective max of the live
        radius leases (``None`` = unbounded dominating), re-capped in
        place as strata come and go, and each lease reads its own stratum
        through :meth:`BallField.within`.

        The field's source set is the eligibility substrate's member set
        for the interned predicate (the same object the queries' own
        candidate views alias), and membership flips reach the field
        through the substrate's listener hooks — each flip updates each
        live field exactly once, however many queries lease it.

        The substrate keeps a zero-ref entry alive (member set mutated in
        place) while our listener remains registered, so the field stays
        exact even if every query lease on the predicate is released and
        re-acquired while the field itself persists; on release we detach
        the listener *before* releasing the lease so the entry can die
        with its last reference.
        """
        key: FieldKey = (predicate, reverse)
        entry = self._fields.get(key)
        if entry is None:
            eset = self._eligibility.lease(predicate)
            field = BallField(self._graph, eset.members, radius, reverse)
            token = self._eligibility.add_listener(
                predicate, field.source_gained, field.source_lost
            )
            entry = [field, 0, token, {radius: 0}]
            self._fields[key] = entry
            self.stats.field_builds += 1
        entry[1] += 1
        radii: Dict[Optional[int], int] = entry[3]
        radii[radius] = radii.get(radius, 0) + 1
        cap = _effective_cap(radii)
        field = entry[0]
        if cap != field.radius:
            field.set_radius(cap)
        return field

    def release_field(
        self, predicate: Predicate, radius: Optional[int], reverse: bool
    ) -> None:
        key: FieldKey = (predicate, reverse)
        entry = self._fields.get(key)
        if entry is None:
            return
        entry[1] -= 1
        radii: Dict[Optional[int], int] = entry[3]
        count = radii.get(radius, 0) - 1
        if count <= 0:
            radii.pop(radius, None)
        else:
            radii[radius] = count
        if entry[1] <= 0:
            del self._fields[key]
            self._eligibility.remove_listener(predicate, entry[2])
            self._eligibility.release(predicate)
            return
        cap = _effective_cap(radii)
        field = entry[0]
        if cap != field.radius:
            field.set_radius(cap)

    def lease_reachability(self, rebuild_budget: int = 32) -> IntervalReachabilityIndex:
        """Acquire the pool-wide SCC-interval reachability oracle (built on
        first lease; the first lease's budget wins)."""
        if self._reach is None:
            self._reach = IntervalReachabilityIndex(
                self._graph, rebuild_budget=rebuild_budget
            )
            self.stats.reach_builds += 1
        self._reach_refs += 1
        return self._reach

    def release_reachability(self) -> None:
        self._reach_refs -= 1
        if self._reach_refs <= 0:
            self._reach = None
            self._reach_refs = 0

    def lease_reach_closure(
        self, predicate: Predicate, reverse: bool
    ) -> ReachClosure:
        """Acquire the shared source closure for ``(predicate, direction)``.

        The closure caches the condensation components reachable from (or
        reaching) the predicate's eligible members, refreshed at most once
        per labelling version or membership change — however many queries
        lease it, each routing consult is an O(1) membership test.

        Requires a live reachability lease (the caller leases the oracle
        first and releases it last).
        """
        if self._reach is None:
            raise RuntimeError(
                "lease_reach_closure requires a reachability lease"
            )
        key: ClosureKey = (predicate, reverse)
        entry = self._closures.get(key)
        if entry is None:
            eset = self._eligibility.lease(predicate)
            closure = ReachClosure(self._reach, eset.members, reverse)
            token = self._eligibility.add_listener(
                predicate,
                lambda v, c=closure: c.mark_dirty(),
                lambda v, c=closure: c.mark_dirty(),
            )
            entry = [closure, 0, token]
            self._closures[key] = entry
        entry[1] += 1
        return entry[0]

    def release_reach_closure(self, predicate: Predicate, reverse: bool) -> None:
        key: ClosureKey = (predicate, reverse)
        entry = self._closures.get(key)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del self._closures[key]
            self._eligibility.remove_listener(predicate, entry[2])
            self._eligibility.release(predicate)

    # ------------------------------------------------------------------
    # Observation (invoked once per flush phase by the pool)
    # ------------------------------------------------------------------
    def observe_deleted(self, edges: List[Tuple[Node, Node]]) -> None:
        """Absorb net deletions (shared graph already edited) — one pass
        over each live structure, however many queries lease it."""
        if not edges:
            return
        self._legs.clear()
        self.stats.edge_batches += 1
        if self._lm is not None:
            self._lm.apply_batch(deleted=edges)
            self.stats.structure_batches += 1
        if self._matrix is not None:
            self._matrix.apply_deletions(edges)
            self.stats.structure_batches += 1
        if self._reach is not None:
            # Deletions only destroy reachability: the oracle stays a
            # sound over-approximation and rebuilds lazily per its budget.
            self._reach.notify_edges_deleted(len(edges))
        for entry in self._fields.values():
            entry[0].shrink_edges(edges)
            self.stats.structure_batches += 1

    def observe_inserted(self, edges: List[Tuple[Node, Node]]) -> None:
        """Absorb net insertions (shared graph already edited).

        The pool calls this *before* insertion routing so every leased
        oracle reflects the whole batch.
        """
        if not edges:
            return
        self._legs.clear()
        self.stats.edge_batches += 1
        if self._lm is not None:
            self._lm.apply_batch(inserted=edges)
            self.stats.structure_batches += 1
        if self._matrix is not None:
            for x, y in edges:
                self._matrix.apply_insert(x, y)
            self.stats.structure_batches += 1
        if self._reach is not None:
            # Insertions create reachability a stale labelling would miss
            # (unsound for routing): force a rebuild at the next consult —
            # which happens before insertion routing, since the pool calls
            # observe_inserted first.
            self._reach.notify_edges_inserted(len(edges))
        for entry in self._fields.values():
            entry[0].grow_edges(edges)
            self.stats.structure_batches += 1

    # Node events (additions, attribute flips) flow through the pool's
    # SharedEligibilityIndex: its listeners pin/unpin ball-field sources,
    # and legs are pure graph distances read against the live member
    # sets, so the substrate needs no node observation entry points of
    # its own.

    def enforce_lm_budget(self) -> bool:
        """``BatchLM`` re-selection when ``InsLM`` growth exceeds the
        budget (invoked by the pool at the end of a flush).

        Routing reads the legs, not the vectors, so only the suspect
        rechecks see the re-selected landmarks.  Returns whether a
        rebuild happened.
        """
        if self._lm is None or not self.lm_budget.exceeded(self._lm):
            return False
        self._lm.rebuild()
        self.stats.lm_rebuilds += 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def landmark_index(self) -> Optional[LandmarkIndex]:
        return self._lm

    def matrix(self) -> Optional[DistanceMatrix]:
        return self._matrix

    def reachability_index(self) -> Optional[IntervalReachabilityIndex]:
        return self._reach

    def num_fields(self) -> int:
        return len(self._fields)

    def rebuild_counters(self) -> Dict[str, int]:
        """Cumulative full-structure rebuild counts for every live shared
        structure: BatchLM re-selections, interval-labelling rebuilds
        (initial build included), and ball-field from-scratch recomputes.

        The temporal suites snapshot this around a bulk-expiry flush:
        expiry must ride the decremental paths (``apply_batch(deleted=)``,
        ``shrink_edges``, budget-tolerated oracle staleness) and leave
        every counter untouched.
        """
        return {
            "lm_rebuilds": self.stats.lm_rebuilds,
            "reach_rebuilds": (
                self._reach.rebuild_count if self._reach is not None else 0
            ),
            "field_rebuilds": sum(
                e[0].rebuilds for e in self._fields.values()
            ),
        }

    def live_structures(self) -> Dict[str, int]:
        """How many shared structures are alive (and their lease counts)."""
        return {
            "landmark": self._lm_refs if self._lm is not None else 0,
            "matrix": self._matrix_refs if self._matrix is not None else 0,
            "reach": self._reach_refs if self._reach is not None else 0,
            "fields": len(self._fields),
            "field_leases": sum(e[1] for e in self._fields.values()),
            "field_radii": sum(len(e[3]) for e in self._fields.values()),
            "closures": len(self._closures),
            "closure_leases": sum(e[1] for e in self._closures.values()),
        }

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Leased member sets must mirror predicate satisfaction (checked
        by the eligibility substrate); fields must be exact and, like the
        reach closures, read live leased sets only."""
        self._eligibility.check_invariants()
        for (predicate, _reverse), entry in self._fields.items():
            field = entry[0]
            field.check_exact()
            assert _effective_cap(entry[3]) == field.radius, (
                f"stratified field for {predicate!r} capped at "
                f"{field.radius} but leases want {entry[3]}"
            )
            eset = self._eligibility.entry(predicate)
            assert eset is not None and eset.members is field.sources, (
                f"ball field for {predicate!r} detached from the "
                f"eligibility substrate"
            )
        for (predicate, _reverse), entry in self._closures.items():
            eset = self._eligibility.entry(predicate)
            assert eset is not None and eset.members is entry[0].members, (
                f"reach closure for {predicate!r} detached from the "
                f"eligibility substrate"
            )

    def __repr__(self) -> str:
        live = self.live_structures()
        return (
            f"SharedDistanceSubstrate(lm={live['landmark']}, "
            f"matrix={live['matrix']}, fields={live['fields']})"
        )
