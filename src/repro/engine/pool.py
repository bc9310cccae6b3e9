"""The multi-pattern continuous-query engine.

:class:`MatcherPool` registers many ``(pattern, semantics)`` standing
queries over **one shared** :class:`~repro.graphs.digraph.DiGraph` — the
production regime the paper motivates (Section 1: "graphs are frequently
updated", and real deployments keep thousands of fixed patterns matched
against one evolving graph).  Per flush the pool:

1. coalesces queued edge updates with :func:`~repro.incremental.types.net_updates`
   (the cancellation half of the paper's ``minDelta`` reduction), so an
   insert/delete pair of the same edge costs nothing anywhere;
2. routes every surviving update through the
   :class:`~repro.engine.router.UpdateRouter` to the subset of queries
   whose candidate space it can touch — eq-keys and shared-set endpoint
   confirms for simulation/iso/bound-1 queries, the edge's legs tested
   once per distinct source predicate for bound-k queries — so queries
   outside the subset do **zero** repair work;
3. mutates the shared graph exactly once, invoking each routed query's
   repair entry points around the edit (bounded simulation needs its
   pre-deletion legs, so deletions are prepared before the edit, and
   deletion routing consults the pre-edit distance structures while
   insertion routing runs after they observe the whole batch);
4. publishes each touched query's match delta to the query's change
   feeds: an isomorphism query builds its own from its embeddings, and
   the shared plan totalizes each changed interned index's delta once,
   handing one pair per node renaming to the registered queries that
   read it.

Every registered query reads one set of pool-level auxiliary structures
(the "one maintained structure per sub-formula" shape of answering
queries under updates).  Predicate eligibility lives in the
:class:`~repro.engine.eligibility.SharedEligibilityIndex`: one
eligible-node set per *distinct* predicate, updated once per node
event, with queries leasing read-views — so per-flush predicate
evaluations scale with distinct atoms, not pool size, and node events,
the fresh endpoints of insertions included, reach the queries only as
predicate *flips* (:meth:`UpdateRouter.route_flips`).  Bounded
queries read their distances from the
:class:`~repro.engine.distances.SharedDistanceSubstrate`: one landmark
index per pool for ``landmark``-mode queries, synced exactly once per
flush phase however many queries lease it, plus one memoized pair of
edge legs per edge and graph state (at the largest finite leg radius
the router asks for, and one reachability pair for ``*`` bounds) that
routing and repair share.  The match relation
is shared too: every ``simulation`` and ``bounded`` query reads the one
interned index of its canonical pattern in the
:class:`~repro.engine.plan.SharedPlan`, so routing and repair run once
per distinct pattern shape, and the plan turns each changed index's
delta into one user-facing pair per node renaming, which every query
of that spelling publishes.  Isomorphism queries own their indexes.

A pool constructed with ``window=...`` (or fed per-insert ``ttl``
overrides) is **temporal**: every inserted edge is stamped with a logical
(or caller-supplied) timestamp, and each flush begins by retiring every
out-of-window edge in ONE coalesced deletion batch that rides the normal
pre-edit deletion phase — so eligibility posting sets, landmark vectors
and the routed indexes (shared-plan interned ones included) all absorb
a single netted decremental batch per flush instead of N scattered
deletes.
Expiry deletes are queued *before* user updates, so re-inserting an
expired edge within the same flush nets to zero graph work and simply
refreshes the stamp (the ``minDelta`` cancellation doing double duty).
Standing queries registered with ``ttl=`` retire themselves the same way.

The single-pattern :class:`~repro.core.engine.Matcher` facade is a thin
view over a one-query pool, so both paths share this plumbing.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..graphs.digraph import DiGraph, Node
from ..incremental.types import (
    Update,
    delete,
    insert,
    net_updates,
    validate_update,
)
from ..patterns.pattern import Pattern
from ..patterns.predicate import Predicate
from .distances import POOL_DISTANCE_MODES, SharedDistanceSubstrate
from .eligibility import SharedEligibilityIndex
from .feeds import MatchDelta
from .plan import SharedPlan
from .query import ContinuousQuery
from .router import UpdateRouter


def _check_finite(name: str, value: float) -> None:
    """Reject NaN and infinities: NaN slips past every ``<``/``<=`` guard
    (all its comparisons are false) and would poison pool time."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_lifetime(name: str, value: Optional[float]) -> None:
    """A window or TTL, when given, is a finite positive duration."""
    if value is not None:
        _check_finite(name, value)
        if value <= 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")


def _check_node_id(v: Any) -> None:
    try:
        hash(v)
    except TypeError:
        raise TypeError(f"node ids must be hashable, got {v!r}") from None


def _check_update(update: Update) -> None:
    """Reject an update a flush could not apply — an unknown op or an
    unhashable endpoint — before it is buffered, so a bad op can never
    half-apply a flush."""
    validate_update(update)
    _check_node_id(update.source)
    _check_node_id(update.target)


class PoolStats:
    """Cumulative work counters across flushes.

    ``join_repairs`` counts, per flush, the shared plan's interned indexes
    the flush routed and repaired — each one however many planned queries
    read it; ``distance_checks`` counts the pattern-edge rules the router
    evaluated for distance-routed queries (only for source predicates an
    edge's backward leg meets).
    """

    __slots__ = (
        "flushes",
        "edge_updates_queued",
        "net_edge_updates",
        "attr_updates",
        "routed_pairs",
        "skipped_pairs",
        "distance_checks",
        "view_repairs",
        "join_repairs",
        "expired_edges",
        "expired_queries",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.flushes = 0
        self.edge_updates_queued = 0
        self.net_edge_updates = 0
        self.attr_updates = 0
        self.routed_pairs = 0
        self.skipped_pairs = 0
        self.distance_checks = 0
        # Always 0; kept only because benchmarks/e2e/run.py reads it.
        self.view_repairs = 0
        self.join_repairs = 0
        # Temporal counters: edges retired by window/TTL expiry and
        # standing queries auto-unregistered by a register-time TTL.
        self.expired_edges = 0
        self.expired_queries = 0

    def __repr__(self) -> str:
        return (
            f"PoolStats(flushes={self.flushes}, "
            f"edge_updates={self.edge_updates_queued}, "
            f"net={self.net_edge_updates}, "
            f"routed={self.routed_pairs}, skipped={self.skipped_pairs})"
        )


class FlushReport:
    """What one flush did: net updates applied, routing, and deltas."""

    __slots__ = (
        "seq", "net", "attr_ops", "deltas", "routed", "skipped",
        "expired", "expired_queries",
    )

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.net: List[Update] = []
        self.attr_ops = 0
        self.deltas: Dict[str, MatchDelta] = {}
        self.routed = 0
        self.skipped = 0
        # Edges retired by window/TTL expiry this flush (their deletes are
        # part of ``net`` unless a same-flush re-insert cancelled them) and
        # standing queries whose TTL elapsed.
        self.expired = 0
        self.expired_queries = 0

    def changed(self) -> bool:
        return bool(self.net) or self.attr_ops > 0

    def __repr__(self) -> str:
        return (
            f"FlushReport(seq={self.seq}, net={len(self.net)}, "
            f"attr_ops={self.attr_ops}, routed={self.routed}, "
            f"skipped={self.skipped}, expired={self.expired}, "
            f"touched={len(self.deltas)})"
        )


class MatcherPool:
    """Many continuous pattern queries over one shared data graph."""

    # benchmarks/e2e/run.py is the only reader of this name.
    graph_backend = "dict"

    def __init__(
        self,
        graph: DiGraph,
        window: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        _check_lifetime("window", window)
        self.graph = graph
        self.stats = PoolStats()
        # One eligible-node set per distinct predicate, leased by every
        # query; one landmark index, leased by all landmark-mode bounded
        # queries and synced exactly once per flush phase below.
        self.eligibility = SharedEligibilityIndex(graph)
        self.substrate = SharedDistanceSubstrate(graph)
        self._router = UpdateRouter(self.substrate, self.stats)
        # The multi-query plan: every simulation and bounded query reads
        # the one interned index of its pattern shape, which the plan
        # registers with the router.
        self.plan = SharedPlan(self, self._router)
        self._queries: Dict[str, ContinuousQuery] = {}
        self._pending_edges: List[Update] = []
        self._pending_nodes: List[Tuple[Node, Dict[str, Any]]] = []
        self._seq = 0
        # --- temporal state -------------------------------------------
        # ``window`` gives every stamped edge a default lifetime; per-edge
        # ``ttl`` overrides it.  Time is logical (advance()) unless a
        # ``clock`` callable is supplied, in which case each flush samples
        # it.  Expiry bookkeeping is a stamp map plus a lazy min-heap
        # (stale heap entries — stamp refreshed or edge deleted — are
        # skipped at pop time instead of being removed eagerly).
        self.window = window
        self._clock = clock
        self._now: float = clock() if clock is not None else 0.0
        # edge -> (ts, ttl) queued since the last flush (last write wins).
        self._pending_stamps: Dict[Tuple[Node, Node], Tuple[Optional[float], Optional[float]]] = {}
        # edge -> (birth, expire_at) for every live stamped edge.
        self._edge_stamps: Dict[Tuple[Node, Node], Tuple[float, float]] = {}
        self._expiry_heap: List[Tuple[float, int, Tuple[Node, Node]]] = []
        self._heap_seq = 0
        # Pool time as of the last flush: advance() may move ``_now`` past
        # live stamps between flushes, so invariants compare against this.
        self._flushed_at: float = self._now

    # ------------------------------------------------------------------
    # Temporal clock
    # ------------------------------------------------------------------
    @property
    def temporal(self) -> bool:
        """Does this pool stamp inserts with a default window lifetime?"""
        return self.window is not None

    @property
    def now(self) -> float:
        """The pool's current time (logical unless a clock was supplied)."""
        return self._now

    def advance(self, ts: float) -> float:
        """Move the logical clock forward to ``ts`` (monotone).

        Expiry happens at the next :meth:`flush`, not here — advancing is
        free however far the clock jumps.  Pools built with an external
        ``clock`` sample it at each flush instead and reject manual
        advancement.
        """
        if self._clock is not None:
            raise RuntimeError(
                "pool time follows the supplied clock; advance() is only "
                "for logical-clock pools"
            )
        _check_finite("ts", ts)
        if ts < self._now:
            raise ValueError(
                f"cannot advance pool time backwards: now={self._now}, "
                f"got {ts}"
            )
        self._now = ts
        return self._now

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        pattern: Pattern,
        semantics: str = "bounded",
        name: Optional[str] = None,
        distance_mode: str = "bfs",
        max_embeddings: Optional[int] = None,
        plan_scope: Optional[str] = None,
        ttl: Optional[float] = None,
    ) -> ContinuousQuery:
        """Register a standing query; its index is built immediately.

        Pending (unflushed) updates are flushed first so the new index is
        born consistent with every already-registered query.  A
        ``simulation`` or ``bounded`` query reads the pool's multi-query
        plan (see :mod:`repro.engine.plan`): its match relation lives in
        the one interned index of its canonical pattern, semantics and
        (for ``bounded``) distance mode, which every same-shape
        registration reads.  An isomorphism query owns its index.
        Indexes lease their eligible sets from the pool's eligibility
        substrate and, for bounded semantics, read their distances from
        the pool's distance substrate.  ``distance_mode`` is ``'bfs'`` or
        ``'landmark'`` (:data:`~repro.engine.distances.POOL_DISTANCE_MODES`);
        the standalone index's ``'matrix'`` mode is not a pool mode.

        ``ttl`` gives the query itself a lifetime: once pool time passes
        ``now + ttl`` the next flush auto-unregisters it (leases released,
        feeds closed) before doing any other work.

        ``plan_scope`` accepts only ``None`` or ``"shared"``, the one
        plan there is.  Any other ``plan_scope`` or ``distance_mode``,
        whatever the semantics, is rejected before anything is flushed or
        leased.
        """
        if plan_scope not in (None, "shared"):
            raise ValueError(
                f"plan_scope must be None or 'shared', got {plan_scope!r}"
            )
        if distance_mode not in POOL_DISTANCE_MODES:
            raise ValueError(
                f"distance_mode must be one of {POOL_DISTANCE_MODES}, "
                f"got {distance_mode!r}"
            )
        _check_lifetime("ttl", ttl)
        if self._pending_edges or self._pending_nodes:
            self.flush()
        if name is None:
            n = len(self._queries)
            while f"q{n}" in self._queries:
                n += 1
            name = f"q{n}"
        if name in self._queries:
            raise ValueError(f"query name {name!r} already registered")
        if self.plan.plannable(semantics):
            query = self.plan.build_query(
                name, pattern, semantics, distance_mode
            )
        else:
            query = ContinuousQuery(
                name,
                pattern,
                self.graph,
                semantics=semantics,
                max_embeddings=max_embeddings,
                substrate=self.substrate,
                eligibility=self.eligibility,
            )
            self._router.register(query)
        if ttl is not None:
            query.expires_at = self._now + ttl
        self._queries[name] = query
        return query

    def unregister(self, query: ContinuousQuery) -> None:
        """Drop a standing query; its feeds stop receiving deltas and its
        substrate leases are released (a structure with no leases left is
        dropped, so the pool stops paying its upkeep)."""
        if self._queries.get(query.name) is query:
            del self._queries[query.name]
            if not query.planned:
                self._router.unregister(query)
            # A planned query leaves its join here; a join with no
            # consumers left is dropped with its interned index.
            query.close()

    def query(self, name: str) -> ContinuousQuery:
        return self._queries[name]

    def queries(self) -> List[ContinuousQuery]:
        return list(self._queries.values())

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, name: str) -> bool:
        return name in self._queries

    # ------------------------------------------------------------------
    # Update intake
    # ------------------------------------------------------------------
    def queue(
        self,
        update: Update,
        ts: Optional[float] = None,
        ttl: Optional[float] = None,
    ) -> None:
        """Buffer one edge update for the next flush.

        ``ts`` stamps an insert's birth time (default: pool time at the
        flush that applies it); ``ttl`` overrides the pool window for this
        edge.  Either is valid only on inserts — deletions have no
        lifetime.  In a temporal pool every insert is stamped; elsewhere a
        stamp is recorded only when ``ttl`` is given.  Re-queueing the
        same edge overwrites the pending stamp (last write wins, matching
        :func:`~repro.incremental.types.net_updates`).
        """
        _check_update(update)
        if ts is not None or ttl is not None:
            if update.op != "insert":
                raise ValueError(
                    "ts/ttl apply to insertions only; "
                    f"got a {update.op!r} update for {update.edge!r}"
                )
            if ts is not None:
                _check_finite("ts", ts)
            _check_lifetime("ttl", ttl)
        if update.op == "insert" and (self.temporal or ttl is not None):
            self._pending_stamps[update.edge] = (ts, ttl)
        self._pending_edges.append(update)

    def queue_updates(
        self,
        updates: Iterable[Update],
        ts: Optional[float] = None,
        ttl: Optional[float] = None,
    ) -> None:
        """Buffer a batch of edge updates; nothing is buffered if any of
        them is malformed (see :meth:`queue`)."""
        updates = list(updates)
        for u in updates:
            _check_update(u)
        if ts is not None or ttl is not None or self.temporal:
            if ts is not None:
                _check_finite("ts", ts)
            _check_lifetime("ttl", ttl)
            for u in updates:
                self.queue(
                    u,
                    ts=ts if u.op == "insert" else None,
                    ttl=ttl if u.op == "insert" else None,
                )
        else:
            self._pending_edges.extend(updates)

    def queue_node(self, v: Node, **attrs: Any) -> None:
        """Buffer a node addition / attribute merge for the next flush
        (an unhashable node id is rejected before anything is buffered)."""
        _check_node_id(v)
        self._pending_nodes.append((v, dict(attrs)))

    @property
    def pending(self) -> int:
        return len(self._pending_edges) + len(self._pending_nodes)

    # Convenience unit operations (queue + flush), mirroring Matcher.
    def insert_edge(self, v: Node, w: Node) -> bool:
        """Insert a data edge, flush, and report whether the graph changed.

        The flag is derived from the flush's *net* updates, so pending
        updates queued earlier for the same edge (which may cancel or
        subsume this one) cannot make it lie about the applied effect.
        """
        self.queue(insert(v, w))
        report = self.flush()
        return any(
            u.op == "insert" and u.edge == (v, w) for u in report.net
        )

    def delete_edge(self, v: Node, w: Node) -> bool:
        """Delete a data edge, flush, and report whether the graph changed.

        Like :meth:`insert_edge`, the flag reflects the flush's net
        effect rather than a pre-flush ``has_edge`` snapshot.
        """
        self.queue(delete(v, w))
        report = self.flush()
        return any(
            u.op == "delete" and u.edge == (v, w) for u in report.net
        )

    def add_node(self, v: Node, **attrs: Any) -> None:
        """Add/refresh a node (and repair all affected queries)."""
        self.queue_node(v, **attrs)
        self.flush()

    def update_node_attrs(self, v: Node, **attrs: Any) -> None:
        """Merge new attributes into ``v`` and repair affected queries."""
        self.queue_node(v, **attrs)
        self.flush()

    def apply(
        self,
        updates: Iterable[Update],
        ts: Optional[float] = None,
        ttl: Optional[float] = None,
    ) -> FlushReport:
        """Queue a batch of edge updates and flush once (coalesced)."""
        self.queue_updates(updates, ts=ts, ttl=ttl)
        return self.flush()

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def flush(self) -> FlushReport:
        """Apply all pending updates once, repairing only routed queries."""
        report = FlushReport(self._seq)
        self._seq += 1
        node_ops = self._pending_nodes
        edge_ops = self._pending_edges
        stamps = self._pending_stamps
        self._pending_nodes = []
        self._pending_edges = []
        self._pending_stamps = {}
        self.stats.flushes += 1
        self.stats.edge_updates_queued += len(edge_ops)
        self.stats.attr_updates += len(node_ops)

        # ---- Phase T: time + bulk expiry -------------------------------
        # One coalesced deletion batch per flush: every live stamp whose
        # expiry has passed becomes a delete PREPENDED to the user's ops,
        # so a same-flush re-insert of an expired edge wins under
        # net_updates' last-write ordering — the pair cancels to zero
        # graph work and the stamp is simply refreshed.  Stamps that are
        # dead on arrival (explicit ``ts`` already out of window at flush
        # time) get a delete APPENDED instead, so such an edge never
        # outlives the flush that would have materialized it.  TTL'd
        # queries retire first: an expired query must not be repaired or
        # emit deltas for a batch it no longer observes.
        if self._clock is not None:
            t = self._clock()
            if t > self._now:
                self._now = t
        for q in [
            q for q in self._queries.values()
            if q.expires_at is not None and q.expires_at <= self._now
        ]:
            self.unregister(q)
            report.expired_queries += 1
        self.stats.expired_queries += report.expired_queries
        expired = self._collect_expired()
        if expired:
            edge_ops = [delete(v, w) for v, w in expired] + edge_ops
            report.expired = len(expired)
            self.stats.expired_edges += len(expired)
        if stamps:
            dead = [
                e for e, (ts, ttl) in stamps.items()
                if self._expire_at(ts, ttl) <= self._now
            ]
            if dead:
                edge_ops = edge_ops + [delete(v, w) for v, w in dead]
                for e in dead:
                    del stamps[e]
        # Keyed by id(): the routed population mixes isomorphism queries
        # with the plan's interned queries, whose names live in a
        # separate space.
        touched: Dict[int, ContinuousQuery] = {}
        # The population the router decides over (planned queries are
        # never routed — the plan delivers their changes after phase D).
        population = len(self._router)

        # ---- Phase A: node additions / attribute merges ----------------
        # Node events are collected across the whole batch and handed to
        # the eligibility substrate as ONE ``observe_events`` call: the
        # substrate evaluates each distinct atom column-major over all its
        # touched nodes, diffing final verdicts against pre-batch posting
        # sets — which yields the net flips per (predicate, node)
        # directly, transient flip pairs never materializing.  The net
        # flips are then delivered as ONE routing + repair pass per
        # flush (:meth:`_deliver_flips`): the sets are final by then, so
        # batched repair reaches the same fixpoint as the per-event
        # interleaving, without per-event routing overhead.  A fresh
        # node's gains are exactly the predicates it satisfies, so it
        # rides the same batch as an attribute change.
        report.attr_ops = len(node_ops)
        if node_ops:
            events: List[Tuple[Node, Optional[Iterable[str]], bool]] = []
            for v, attrs in node_ops:
                is_new = not self.graph.has_node(v)
                self.graph.add_node(v, **attrs)
                events.append((v, None if is_new else list(attrs), is_new))
            self._deliver_flips(
                self.eligibility.observe_events(events),
                population, report, touched,
            )

        # ---- Phase B: coalesce edge updates ----------------------------
        net = net_updates(self.graph, edge_ops)
        report.net = net
        self.stats.net_edge_updates += len(net)
        deletions = [u.edge for u in net if u.op == "delete"]
        insertions = [u.edge for u in net if u.op == "insert"]

        # ---- Phase C: deletions (route -> prep -> edit -> observe ->
        # repair).  Routing and prep consult the *pre-edit* graph and
        # substrate: a broken pair's old witness path decomposes over
        # pre-deletion distances.
        prepared = [
            (q, q.prepare_deletions(edges))
            for q, edges in self._route_edges(
                deletions, population, report, touched
            )
        ]
        for v, w in deletions:
            self.graph.remove_edge(v, w)
        if deletions:
            self.substrate.observe_deleted(deletions)
        for q, prep in prepared:
            q.repair_deletions(prep)

        # ---- Phase D: insertions (edit -> observe -> route -> repair ->
        # fresh-node flips).  Routing happens *after* the edit and
        # substrate observation so the legs reflect the whole batch — a
        # witness path may thread several same-flush insertions.
        fresh_nodes: List[Node] = []
        for v, w in insertions:
            for node in (v, w):
                if node not in self.graph:
                    self.graph.add_node(node)
                    fresh_nodes.append(node)
            self.graph.add_edge(v, w)
        # Fresh endpoints reach the eligibility substrate in ONE
        # observation BEFORE the insertion batch is routed: a
        # trivial-(TRUE)-predicate query's legs must meet them as members
        # (each sits at distance 0 of its own leg) for its routing
        # verdicts on this very batch to be sound, and each routed
        # insertion repair adopts its fresh endpoints from the sets.
        fresh_flips = (
            self.eligibility.observe_events(
                [(node, None, True) for node in fresh_nodes]
            )
            if fresh_nodes else []
        )
        if insertions:
            self.substrate.observe_inserted(insertions)
        for q, edges in self._route_edges(
            insertions, population, report, touched
        ):
            q.repair_insertions(edges)
        # The fresh endpoints' gains (an attribute-less node gains the
        # trivial predicates) then take phase A's path, after edge repair,
        # to every query using a gained predicate — e.g. a childless or
        # single-node pattern, or one that no inserted edge was routed
        # to.  Adoption is idempotent, so a query already repaired from
        # the sets does no more work.  The decision covers the whole
        # fresh-node set, so it is counted once per flush.
        if fresh_nodes:
            self._deliver_flips(fresh_flips, population, report, touched)

        # ---- Stamp upkeep: net deletions drop their stamps; stamped
        # inserts that survived into the final graph record (birth,
        # expire_at) and enter the expiry heap.
        self._apply_stamps(net, stamps)

        # ---- Phase E: publish match deltas.  The routed interned indexes
        # are fully repaired; the plan totalizes each one's delta once and
        # returns every query that publishes (isomorphism queries pass
        # through it).
        if touched:
            for q in self.plan.deliver(touched.values()):
                report.deltas[q.name] = q.emit_delta(report.seq)
        self.stats.routed_pairs += report.routed
        self.stats.skipped_pairs += report.skipped
        # End-of-flush upkeep: BatchLM re-selection once InsLM has grown
        # the shared landmark index past its re-selection point.
        self.substrate.enforce_lm_budget()
        self._flushed_at = self._now
        return report

    def _deliver_flips(
        self,
        flips: List[Tuple[Predicate, Node, bool]],
        population: int,
        report: FlushReport,
        touched: Dict[int, ContinuousQuery],
    ) -> None:
        """Route one batch of net eligibility flips (``observe_events``'s
        ``(predicate, node, gained)`` triples) and hand them, grouped per
        node, to every query using a flipped predicate.  This is one
        routing decision against a population of ``population``; with no
        flips nobody is routed."""
        if not flips:
            report.skipped += population
            return
        by_node: Dict[Node, List[Tuple[Predicate, bool]]] = {}
        for pred, v, gained in flips:
            by_node.setdefault(v, []).append((pred, gained))
        flipped = self._router.route_flips(
            dict.fromkeys(pred for pred, _v, _g in flips)
        )
        for q in flipped:
            q.apply_eligibility_flip_batch(by_node)
            touched[id(q)] = q
        report.routed += len(flipped)
        report.skipped += population - len(flipped)

    def _route_edges(
        self,
        edges: List[Tuple[Node, Node]],
        population: int,
        report: FlushReport,
        touched: Dict[int, ContinuousQuery],
    ) -> List[Tuple[ContinuousQuery, List[Tuple[Node, Node]]]]:
        """Route each edge, grouping the edges per routed query (keyed by
        ``id()``, as in ``touched``) and counting routed and skipped
        (query, edge) pairs against a population of ``population``."""
        routed: Dict[int, Tuple[ContinuousQuery, List[Tuple[Node, Node]]]] = {}
        for v, w in edges:
            qs = self._router.route_edge(
                v, w, self.graph.attrs(v), self.graph.attrs(w)
            )
            for q in qs:
                entry = routed.get(id(q))
                if entry is None:
                    entry = routed[id(q)] = (q, [])
                entry[1].append((v, w))
                touched[id(q)] = q
            report.routed += len(qs)
            report.skipped += population - len(qs)
        return list(routed.values())

    # ------------------------------------------------------------------
    # Temporal bookkeeping
    # ------------------------------------------------------------------
    def _expire_at(
        self, ts: Optional[float], ttl: Optional[float]
    ) -> float:
        """When a stamp queued as ``(ts, ttl)`` dies.  Stamps are only
        recorded when the pool has a window or the insert carried a TTL,
        so the lifetime is never None here."""
        birth = self._now if ts is None else ts
        life = self.window if ttl is None else ttl
        return birth + life

    def _collect_expired(self) -> List[Tuple[Node, Node]]:
        """Pop every stamp with ``expire_at <= now`` off the heap.

        Heap entries are never removed eagerly — a stamp refreshed by a
        re-insert or dropped by an explicit delete leaves its old entry
        behind, recognized here by disagreeing with the live stamp map
        and skipped.
        """
        heap = self._expiry_heap
        out: List[Tuple[Node, Node]] = []
        while heap and heap[0][0] <= self._now:
            expire_at, _, edge = heapq.heappop(heap)
            st = self._edge_stamps.get(edge)
            if st is not None and st[1] == expire_at:
                out.append(edge)
        return out

    def _apply_stamps(self, net: List[Update], stamps) -> None:
        """Post-edit stamp reconciliation for one flush."""
        if self._edge_stamps:
            for u in net:
                if u.op == "delete":
                    self._edge_stamps.pop(u.edge, None)
        for edge, (ts, ttl) in stamps.items():
            # A stamp only takes effect if its edge is actually in the
            # final graph — an insert cancelled by a later same-flush
            # delete leaves nothing to expire.
            if not self.graph.has_edge(*edge):
                continue
            expire_at = self._expire_at(ts, ttl)
            birth = self._now if ts is None else ts
            self._edge_stamps[edge] = (birth, expire_at)
            self._heap_seq += 1
            heapq.heappush(
                self._expiry_heap, (expire_at, self._heap_seq, edge)
            )

    def live_edge_stamps(self) -> Dict[Tuple[Node, Node], Tuple[float, float]]:
        """``edge -> (birth, expire_at)`` for every live stamped edge."""
        return dict(self._edge_stamps)

    def rebuild_counters(self) -> Dict[str, int]:
        """Cumulative full-structure rebuild counts of the pool's distance
        substrate, plus their ``total``.

        The temporal test suites snapshot this around an expiry flush to
        assert bulk expiry rides the decremental repair path: landmark
        vectors apply deletion batches and do no full rebuild.
        """
        counters = dict(self.substrate.rebuild_counters())
        counters["total"] = sum(counters.values())
        return counters

    def check_temporal_invariants(self) -> None:
        """Every live stamp points at a live graph edge, and nothing
        expired survived the latest flush."""
        for edge, (birth, expire_at) in self._edge_stamps.items():
            assert self.graph.has_edge(*edge), (
                f"stamp for {edge!r} outlived its edge"
            )
            assert expire_at > self._flushed_at, (
                f"edge {edge!r} expired at {expire_at} but survived a "
                f"flush at now={self._flushed_at}"
            )
            assert birth <= expire_at

    def __repr__(self) -> str:
        return (
            f"MatcherPool(queries={len(self._queries)}, "
            f"graph={self.graph!r}, pending={self.pending})"
        )
