"""Pool-level shared distance structures for bounded continuous queries.

A private distance structure per bounded query (landmark vectors, an
all-pairs matrix, a reachability labelling) would make the pool feed
**every** net edge update to **every** such query — the upkeep that
distance-aware routing saves at the pair level paid right back N times
over at the structure level.  This is the "one maintained auxiliary
structure, many queries answered from it" shape of answering queries
under updates (Berkholz et al.): every bounded query in a
:class:`~repro.engine.pool.MatcherPool` leases from one substrate, which
owns

- at most **one** :class:`~repro.landmarks.vector.LandmarkIndex` per pool
  (``distance_mode='landmark'`` queries all read the same vectors);
- at most **one** :class:`~repro.graphs.distance.DistanceMatrix` per pool
  (``'matrix'`` queries share the rows for suspect rechecks);
- at most **one**
  :class:`~repro.graphs.reachability.IntervalReachabilityIndex` per pool
  (``'interval'`` queries share the SCC-interval labelling) plus a
  registry of :class:`~repro.graphs.reachability.ReachClosure` caches
  keyed by ``(predicate, direction)``, each over a member set leased from
  the pool's :class:`~repro.engine.eligibility.SharedEligibilityIndex`
  and recomputed at most once per labelling version and member-set
  version, so routing consults are O(1);
- the **legs** of each edge (:func:`~repro.graphs.traversal.edge_legs`):
  for an edge ``(x, y)`` and leg radius ``r``, the radius-``r`` backward
  BFS from ``x`` and forward BFS from ``y`` on the current graph (the
  paper's Section 6 locality argument: a bound-``r + 1`` pair gained or
  lost through the edge decomposes over them).  They are the routing
  oracle of ``bfs``, ``landmark`` and ``matrix`` queries *and* the repair
  balls of every bounded query, memoized per ``(x, y, r)`` until the next
  edge batch is observed — so routing and every routed query's repair on
  one edge share one BFS pair per radius; nothing is leased or
  maintained.

Every other structure is leased with a refcount: registering a bounded query
acquires leases, unregistering releases them, and a structure
whose refcount reaches zero is dropped so the pool stops paying its
upkeep.  The pool syncs the substrate **once per flush phase** —
``observe_deleted`` runs after the shared graph drops a deletion batch,
and ``observe_inserted`` after an insertion batch lands (and *before*
insertion routing).  Both clear the memoized legs: deletion routing and
deletion prep read legs of the pre-edit graph, insertion routing and
repair legs of the graph after the batch.  Node events need no
observation here: legs are pure graph distances read against the live
eligible sets, and the closures notice membership changes through the
sets' versions.

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
from ..graphs.traversal import Legs, edge_legs
from ..landmarks.selection import LandmarkBudget
from ..landmarks.vector import LandmarkIndex
from ..patterns.predicate import Predicate
from .eligibility import SharedEligibilityIndex

ClosureKey = Tuple[Predicate, bool]


class SubstrateStats:
    """Upkeep counters: how many structure-level update applications the
    pool paid per flush stream (the quantity sharing amortizes)."""

    __slots__ = (
        "lm_builds",
        "lm_rebuilds",
        "matrix_builds",
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
        self.reach_builds = 0
        self.edge_batches = 0
        self.structure_batches = 0

    def __repr__(self) -> str:
        return (
            f"SubstrateStats(builds={self.lm_builds}+{self.matrix_builds}"
            f"+{self.reach_builds}, edge_batches={self.edge_batches}, "
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
        # Closure member sets come from the pool-wide eligibility
        # substrate (one set per distinct predicate, shared with the
        # queries' candidate views); a standalone substrate builds a
        # private one.
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
        # Shared SCC-interval reachability oracle ('interval' mode).
        self._reach: Optional[IntervalReachabilityIndex] = None
        self._reach_refs = 0
        # (predicate, reverse) -> [ReachClosure, refcount].
        self._closures: Dict[ClosureKey, List[Any]] = {}
        # Edge legs, memoized per (x, y, radius) until the next observed
        # edge batch.
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
        ``(x, y, radius)`` until the next ``observe_*`` call, so routing
        and every routed query's repair on one edge share one BFS pair;
        callers must treat the returned maps as read-only.
        """
        key = (x, y, radius)
        legs = self._legs.get(key)
        if legs is None:
            legs = self._legs[key] = edge_legs(self._graph, x, y, radius)
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
        per labelling version and member-set version — however many
        queries lease it, each routing consult is an O(1) membership test.
        The closure's own eligibility lease keeps the member set (and its
        version counter) alive whatever other consumers of the predicate
        do.

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
            entry = [ReachClosure(self._reach, eset, reverse), 0]
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

    def rebuild_counters(self) -> Dict[str, int]:
        """Cumulative full-structure rebuild counts for every live shared
        structure: BatchLM re-selections and interval-labelling rebuilds
        (initial build included).

        The temporal suites snapshot this around a bulk-expiry flush:
        expiry must ride the decremental paths (``apply_batch(deleted=)``,
        budget-tolerated oracle staleness) and leave every counter
        untouched.
        """
        return {
            "lm_rebuilds": self.stats.lm_rebuilds,
            "reach_rebuilds": (
                self._reach.rebuild_count if self._reach is not None else 0
            ),
        }

    def live_structures(self) -> Dict[str, int]:
        """How many shared structures are alive (and their lease counts)."""
        return {
            "landmark": self._lm_refs if self._lm is not None else 0,
            "matrix": self._matrix_refs if self._matrix is not None else 0,
            "reach": self._reach_refs if self._reach is not None else 0,
            "closures": len(self._closures),
            "closure_leases": sum(e[1] for e in self._closures.values()),
        }

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Leased member sets must mirror predicate satisfaction (checked
        by the eligibility substrate); reach closures must read live
        leased sets only."""
        self._eligibility.check_invariants()
        for (predicate, _reverse), entry in self._closures.items():
            eset = self._eligibility.entry(predicate)
            assert eset is not None and eset is entry[0].eligible, (
                f"reach closure for {predicate!r} detached from the "
                f"eligibility substrate"
            )

    def __repr__(self) -> str:
        live = self.live_structures()
        return (
            f"SharedDistanceSubstrate(lm={live['landmark']}, "
            f"matrix={live['matrix']}, reach={live['reach']})"
        )
