"""Pool-level shared distance structures for bounded continuous queries.

A private distance structure per bounded query would make the pool feed
**every** net edge update to **every** such query — the upkeep that
distance-aware routing saves at the pair level paid right back N times
over at the structure level.  This is the "one maintained auxiliary
structure, many queries answered from it" shape of answering queries
under updates (Berkholz et al.): every bounded query in a
:class:`~repro.engine.pool.MatcherPool` reads one substrate, which owns

- at most **one** :class:`~repro.landmarks.vector.LandmarkIndex` per pool
  (``distance_mode='landmark'`` queries all read its one distance table);
- the **legs** of each edge (:func:`~repro.graphs.traversal.edge_legs`):
  for an edge ``(x, y)`` and leg radius ``r``, the radius-``r`` backward
  BFS from ``x`` and forward BFS from ``y`` on the current graph (the
  paper's Section 6 locality argument: a bound-``r + 1`` pair ``(a, c)``
  gained or lost through the edge has ``d(a, x) + 1 + d(y, c) <= r + 1``
  over them).  They are the routing test *and* the repair balls of
  every bounded query, memoized per edge until the next edge batch is
  observed: one finite pair at the largest radius asked so far, which
  serves every smaller radius as its ``d <= r`` prefix, and one
  reachability pair for ``*`` bounds.  The router asks first, at the
  pool's largest finite leg radius, so routing and every routed query's
  repair on one edge share one BFS pair however many bounds the pool
  mixes; nothing is leased or maintained.
  :attr:`SubstrateStats.leg_nodes` counts the nodes they label;
- the **probes** of IncBMatch-'s suspect rechecks
  (:class:`~repro.graphs.traversal.WithinProbe`): for a suspect source
  ``a`` and bound ``k``, a lazily expanded BFS from ``a`` on the
  post-deletion graph that labels only as far as the targets asked so far
  need, memoized per ``(a, k)`` — so every routed query's recheck in a
  flush, the shared plan's interned indexes included, extends the same
  partial BFS instead of running its own full one.
  :attr:`SubstrateStats.probe_nodes` counts the nodes they label.

The balls a bounded index takes to build its pair graph, and to wire an
eligibility gain, are the index's own and are not memoized here: a memo
would keep one ball per node alive through a run of registrations, which
is where a pool's memory peaks.  The index counts their entries in
:attr:`SubstrateStats.ball_nodes`.

The landmark index is leased with a refcount: registering a
landmark-mode query acquires a lease, unregistering releases it, and the
index is dropped with its last lease so the pool stops paying its
upkeep.  Each lease names the horizon it reads the index to: the largest
finite bound of its query, or ``None`` (full columns) when a bound is
``*``.  The index keeps its columns only to the largest horizon leased
while it lives (see :class:`~repro.landmarks.vector.LandmarkIndex`): the
first lease builds it at its own, and a later lease that asks for more
widens it.  Nothing narrows it; a release leaves it as deep as it is.

The pool syncs the substrate **once per flush phase** —
``observe_deleted`` runs after the shared graph drops a deletion batch,
and ``observe_inserted`` after an insertion batch lands (and *before*
insertion routing).  Both clear the memoized legs and probes: deletion
routing and deletion prep read legs of the pre-edit graph, insertion
routing and repair legs of the graph after the batch, and the deletion
rechecks, which run between ``observe_deleted`` and the insertion batch,
probes of the post-deletion graph.  A probe expands lazily over the live
graph, so one that outlived an edge batch would answer from a mix of
graph states.  Node events need no observation here: legs and probes are
pure graph distances (a fresh node has no edges), read against the live
eligible sets.

When ``InsLM`` growth, which is monotone, has outgrown the shared
landmark index's last selection
(:meth:`~repro.landmarks.vector.LandmarkIndex.outgrown`), the pool
triggers a ``BatchLM`` re-selection at the end of the flush via
:meth:`SharedDistanceSubstrate.enforce_lm_budget`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.traversal import Legs, WithinProbe, edge_legs
from ..landmarks.vector import LandmarkIndex

# The distance modes a pool query may take.  A standalone
# BoundedSimulationIndex also takes ``'matrix'``, the paper's IncBMatch_m
# baseline; the substrate keeps no matrix, so a pool refuses it.
POOL_DISTANCE_MODES = ("bfs", "landmark")


class SubstrateStats:
    """Upkeep counters: how many structure-level update applications the
    pool paid per flush stream (the quantity sharing amortizes), and the
    nodes labelled by the memoized edge legs (``leg_nodes``, the routing
    and repair BFS work), by the suspect-recheck probes (``probe_nodes``,
    the recheck work sharing amortizes) and by the bounded indexes' own
    ball BFSs (``ball_nodes``: the entries of the balls their pair-graph
    builds and eligibility gains take, which nothing memoizes)."""

    __slots__ = (
        "lm_builds",
        "lm_rebuilds",
        "edge_batches",
        "structure_batches",
        "leg_nodes",
        "probe_nodes",
        "ball_nodes",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lm_builds = 0
        self.lm_rebuilds = 0
        self.edge_batches = 0
        self.structure_batches = 0
        self.leg_nodes = 0
        self.probe_nodes = 0
        self.ball_nodes = 0

    def __repr__(self) -> str:
        return (
            f"SubstrateStats(lm_builds={self.lm_builds}, "
            f"edge_batches={self.edge_batches}, "
            f"structure_batches={self.structure_batches}, "
            f"leg_nodes={self.leg_nodes}, probe_nodes={self.probe_nodes}, "
            f"ball_nodes={self.ball_nodes})"
        )


class SharedDistanceSubstrate:
    """The distance structures of one pool's graph, read by all its
    bounded queries: one leased landmark index, and the memoized legs and
    probes."""

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph
        self.stats = SubstrateStats()
        self._lm: Optional[LandmarkIndex] = None
        self._lm_refs = 0
        # Edge legs until the next observed edge batch: per (x, y,
        # unbounded?), the radius they were computed at and the pair.
        self._legs: Dict[
            Tuple[Node, Node, bool], Tuple[Optional[int], Legs]
        ] = {}
        # Suspect-recheck probes, memoized per (source, bound) until the
        # next observed edge batch.
        self._probes: Dict[Tuple[Node, Optional[int]], WithinProbe] = {}

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease_landmarks(self, horizon: Optional[int] = None) -> LandmarkIndex:
        """Acquire the pool-wide landmark index, exact to ``horizon`` hops
        (``None``: full columns): built at ``horizon`` on first lease, and
        widened to it when a live index is shallower."""
        if self._lm is None:
            self._lm = LandmarkIndex(self._graph, horizon=horizon)
            self.stats.lm_builds += 1
        else:
            self._lm.widen(horizon)
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
        reachability.  A pattern edge with bound ``k = radius + 1`` can
        gain or lose a pair ``(a, c)`` through ``(x, y)`` only if ``a`` is
        an eligible source in the first leg, ``c`` an eligible target in
        the second, and ``d(a, x) + 1 + d(y, c) <= k``.  Each leg lists
        its nodes in nondecreasing distance order, at any radius (see
        :func:`~repro.graphs.traversal.edge_legs`).

        Memoized per edge until the next ``observe_*`` call: a finite
        radius is served from the pair computed at the largest finite
        radius asked so far, so the returned legs may reach beyond
        ``radius`` and callers must stop at ``d <= radius``; a larger
        radius than the memo's recomputes it.  Callers must treat the
        returned maps as read-only.
        """
        key = (x, y, radius is None)
        memo = self._legs.get(key)
        if memo is not None and (radius is None or radius <= memo[0]):
            return memo[1]
        legs = edge_legs(self._graph, x, y, radius)
        self._legs[key] = (radius, legs)
        self.stats.leg_nodes += len(legs[0]) + len(legs[1])
        return legs

    def probe(self, a: Node, k: Optional[int]) -> WithinProbe:
        """The suspect-recheck probe from ``a`` at bound ``k``: its
        ``reaches(c)`` answers whether a nonempty path of length <= ``k``
        leads from ``a`` to ``c`` on the current graph, expanding a BFS
        from ``a`` only as far as the targets asked so far need.  Memoized
        per ``(a, k)`` until the next ``observe_*`` call, so every routed
        query's recheck in a flush extends the same partial BFS."""
        key = (a, k)
        probe = self._probes.get(key)
        if probe is None:
            probe = self._probes[key] = WithinProbe(
                self._graph, a, k, self.stats
            )
        return probe

    # ------------------------------------------------------------------
    # Observation (invoked once per flush phase by the pool)
    # ------------------------------------------------------------------
    def observe_deleted(self, edges: List[Tuple[Node, Node]]) -> None:
        """Absorb net deletions (shared graph already edited) — one pass
        over the live landmark index, however many queries lease it."""
        if not edges:
            return
        self._legs.clear()
        self._probes.clear()
        self.stats.edge_batches += 1
        if self._lm is not None:
            self._lm.apply_batch(deleted=edges)
            self.stats.structure_batches += 1

    def observe_inserted(self, edges: List[Tuple[Node, Node]]) -> None:
        """Absorb net insertions (shared graph already edited).

        The pool calls this *before* insertion routing so the legs and
        the leased landmark index reflect the whole batch.
        """
        if not edges:
            return
        self._legs.clear()
        self._probes.clear()
        self.stats.edge_batches += 1
        if self._lm is not None:
            self._lm.apply_batch(inserted=edges)
            self.stats.structure_batches += 1

    def enforce_lm_budget(self) -> bool:
        """``BatchLM`` re-selection when ``InsLM`` has outgrown the last
        selection (invoked by the pool at the end of a flush).

        Routing reads the legs, not the vectors, so only the suspect
        rechecks see the re-selected landmarks.  Returns whether a
        rebuild happened.
        """
        if self._lm is None or not self._lm.outgrown():
            return False
        self._lm.rebuild()
        self.stats.lm_rebuilds += 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def landmark_index(self) -> Optional[LandmarkIndex]:
        return self._lm

    def rebuild_counters(self) -> Dict[str, int]:
        """Cumulative full-structure rebuild counts of the shared
        structures: BatchLM re-selections of the landmark index.

        The temporal suites snapshot this around a bulk-expiry flush:
        expiry must ride the decremental path (``apply_batch(deleted=)``)
        and leave every counter untouched.
        """
        return {"lm_rebuilds": self.stats.lm_rebuilds}

    def live_structures(self) -> Dict[str, int]:
        """How many shared structures are alive (and their lease counts)."""
        return {"landmark": self._lm_refs if self._lm is not None else 0}

    def __repr__(self) -> str:
        live = self.live_structures()
        return f"SharedDistanceSubstrate(lm={live['landmark']})"
