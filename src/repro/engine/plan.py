"""Pool-level multi-query plan: one interned index per distinct pattern.

PRs 3, 4, and 6 deduped the pool's *auxiliary* structures (distance
substrate, predicate/atom eligibility), and the substrate's memoized
edge legs and probes share the per-edge work of every bounded query.
What is left to share is the match relation itself: N registrations of
the same pattern shape should maintain it once.  This module interns
whole patterns — the one-structure-per-distinct-query discipline of
Berkholz et al.'s "answering queries under updates" regime applied at
the pool level:

- At ``register`` time a pattern is canonicalized
  (:func:`~repro.patterns.minimize.canonical_pattern`: minimized, then
  relabelled by refinement), so re-spellings of one shape under other
  node names share a fingerprint.  Each distinct (fingerprint,
  semantics, and for ``bounded`` the distance mode) gets one refcount-
  leased :class:`SharedJoin`.
- A join owns one internal :class:`~repro.engine.query.ContinuousQuery`
  over the canonical pattern, built through the same
  :func:`~repro.engine.query.build_index` path as a per-query
  registration, router-registered and repaired in flush phases A-D like
  any other query; it is marked ``internal`` so it never publishes.
- Each registered query is a :class:`PlannedQuery` whose index is a
  :class:`PlanAdapter`: the canonical renaming plus a cursor into the
  join's match-delta history, so N same-shape queries cost one index and
  each still reads its own correctly-named match sets, deltas, and
  result graph.
- ``unregister`` releases the lease; a join with no leaseholders left
  detaches and closes its internal query, which returns every
  eligibility and substrate lease.

After phase D, :meth:`SharedPlan.deliver` pops each interned index's
match delta once, appends a non-empty one to that join's history, and
hands the pool the consumers to publish in phase E.

Isomorphism queries are not plannable (their state is per embedding, and
planning them needs isomorphism-invariant interning) and silently fall
back to the per-query path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..matching.relation import MatchRelation, totalize
from ..patterns.minimize import canonical_pattern
from ..patterns.pattern import Pattern, PatternNode
from .query import ContinuousQuery

# Isomorphism matches are embeddings, not per-node match sets; the pool
# falls back to per-query indexes for them.
PLANNABLE_SEMANTICS = ("simulation", "bounded")

# Net (added, removed) match pairs of one flush, in canonical nodes.
PairDelta = Tuple[Set[Tuple[int, Node]], Set[Tuple[int, Node]]]


class SharedJoin:
    """One interned pattern: an internal query over its canonical form,
    its leases, and the match-delta history its consumers read."""

    __slots__ = ("key", "query", "leases", "consumers", "history")

    def __init__(self, key: Tuple, query: ContinuousQuery) -> None:
        self.key = key
        self.query = query
        self.leases = 0
        self.consumers: List["PlanAdapter"] = []
        # Non-empty per-flush match deltas, appended once and read by
        # every consumer through its cursor.
        self.history: List[PairDelta] = []

    @property
    def stats(self):
        return self.query.stats

    def raw_match_sets(self) -> MatchRelation:
        return self.query.index.raw_match_sets()

    def is_total(self) -> bool:
        return self.query.index.is_total()

    def result_graph(self) -> DiGraph:
        return self.query.result_graph()

    def check_invariants(self) -> None:
        self.query.index.check_invariants()

    def compact_history(self) -> None:
        """Drop history every consumer has already read."""
        if self.history and all(
            adapter.cursor >= len(self.history) for adapter in self.consumers
        ):
            self.history.clear()
            for adapter in self.consumers:
                adapter.cursor = 0


class PlanAdapter:
    """The ``index`` facade a planned query carries: reads its leased
    :class:`SharedJoin` through the original pattern's canonical renaming.

    Exposes the slice of the index interface the engine consumes (match
    sets, deltas, totality, result graph, stats, invariants) — so
    :class:`~repro.engine.query.ContinuousQuery`'s delta emission and the
    CLI/bench plumbing work unchanged.
    """

    __slots__ = ("_plan", "join", "_renaming", "_originals", "cursor", "query", "_released")

    def __init__(
        self,
        plan: "SharedPlan",
        join: SharedJoin,
        renaming: Dict[PatternNode, int],
    ) -> None:
        self._plan = plan
        self.join = join
        self._renaming = dict(renaming)
        self._originals: Dict[int, List[PatternNode]] = {}
        for orig, idx in self._renaming.items():
            self._originals.setdefault(idx, []).append(orig)
        self.cursor = len(join.history)
        self.query: Optional[ContinuousQuery] = None
        self._released = False

    @property
    def stats(self):
        return self.join.stats

    def raw_match_sets(self) -> MatchRelation:
        raw = self.join.raw_match_sets()
        return {orig: set(raw[idx]) for orig, idx in self._renaming.items()}

    def matches(self) -> MatchRelation:
        return totalize(self.raw_match_sets())

    def is_total(self) -> bool:
        return self.join.is_total()

    def pop_match_delta(self) -> Tuple[Set, Set]:
        """Net the join's history entries since this consumer's cursor,
        translated back to the original pattern's node names (a canonical
        index fans out to every original node minimization merged)."""
        entries = self.join.history[self.cursor :]
        self.cursor = len(self.join.history)
        added_c: Set[Tuple[int, Node]] = set()
        removed_c: Set[Tuple[int, Node]] = set()
        for entry_added, entry_removed in entries:
            # Within one entry added/removed are disjoint (the index nets
            # them); across entries opposite signs cancel.
            for pair in entry_removed:
                if pair in added_c:
                    added_c.discard(pair)
                else:
                    removed_c.add(pair)
            for pair in entry_added:
                if pair in removed_c:
                    removed_c.discard(pair)
                else:
                    added_c.add(pair)
        added = {
            (orig, v)
            for (idx, v) in added_c
            for orig in self._originals.get(idx, ())
        }
        removed = {
            (orig, v)
            for (idx, v) in removed_c
            for orig in self._originals.get(idx, ())
        }
        return added, removed

    def result_graph(self) -> DiGraph:
        """The paper's result graph, read off the interned index (it is
        over data nodes, so the renaming does not enter)."""
        return self.join.result_graph()

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._plan._release_join(self)

    def check_invariants(self) -> None:
        self.join.check_invariants()


class PlannedQuery(ContinuousQuery):
    """A registered query rewritten against the pool's shared plan.

    Its ``index`` is a :class:`PlanAdapter` over an interned
    :class:`SharedJoin`; it is *not* router-registered — the join's
    internal query is, and the plan delivers its changes after phase D.
    Delta emission, feeds, and result access inherit from
    :class:`ContinuousQuery`.
    """

    planned = True

    def __init__(
        self,
        name: str,
        pattern: Pattern,
        pool,
        semantics: str,
        adapter: PlanAdapter,
    ) -> None:
        self._adapter = adapter
        super().__init__(
            name,
            pattern,
            pool.graph,
            semantics=semantics,
            substrate=pool.substrate,
            eligibility=pool.eligibility,
        )

    def _build_index(
        self, pattern, graph, semantics, distance_mode, max_embeddings,
        substrate, eligibility,
    ):
        return self._adapter

    def result_graph(self) -> DiGraph:
        return self._adapter.result_graph()


class SharedPlan:
    """The pool's multi-query plan: one interned index per distinct
    pattern.

    Owned by :class:`~repro.engine.pool.MatcherPool`; queries registered
    with ``plan_scope='shared'`` (and a plannable semantics) are built
    through :meth:`build_query` instead of carrying their own index.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
        self._joins: Dict[Tuple, SharedJoin] = {}
        self._join_counter = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def plannable(semantics: str) -> bool:
        return semantics in PLANNABLE_SEMANTICS

    def active(self) -> bool:
        return bool(self._joins)

    def num_joins(self) -> int:
        return len(self._joins)

    def num_leases(self) -> int:
        return sum(join.leases for join in self._joins.values())

    def views(self) -> List[ContinuousQuery]:
        """The interned internal queries: the plan's share of the pool's
        routing population."""
        return [join.query for join in self._joins.values()]

    # ------------------------------------------------------------------
    # Registration / release
    # ------------------------------------------------------------------
    def build_query(
        self,
        name: str,
        pattern: Pattern,
        semantics: str,
        distance_mode: str,
    ) -> PlannedQuery:
        """Lease the join of ``pattern``'s shape (building its internal
        index on first use) and wrap it for the registered query.  The
        index build validates the pattern for the semantics."""
        if semantics not in PLANNABLE_SEMANTICS:
            raise ValueError(
                f"semantics {semantics!r} is not plannable; "
                f"expected one of {PLANNABLE_SEMANTICS}"
            )
        canon = canonical_pattern(pattern)
        key = (
            canon.key,
            semantics,
            distance_mode if semantics == "bounded" else None,
        )
        join = self._joins.get(key)
        if join is None:
            pool = self.pool
            internal = ContinuousQuery(
                f"__plan{self._join_counter}",
                canon.pattern,
                pool.graph,
                semantics=semantics,
                distance_mode=distance_mode,
                substrate=pool.substrate,
                eligibility=pool.eligibility,
                internal=True,
            )
            self._join_counter += 1
            join = self._joins[key] = SharedJoin(key, internal)
            pool._attach_view(internal)
        join.leases += 1
        adapter = PlanAdapter(self, join, canon.renaming)
        join.consumers.append(adapter)
        query = PlannedQuery(name, pattern, self.pool, semantics, adapter)
        adapter.query = query
        return query

    def _release_join(self, adapter: PlanAdapter) -> None:
        join = adapter.join
        join.consumers.remove(adapter)
        join.leases -= 1
        if join.leases == 0:
            del self._joins[join.key]
            self.pool._detach_view(join.query)
        else:
            join.compact_history()

    # ------------------------------------------------------------------
    # Per-flush delivery
    # ------------------------------------------------------------------
    def deliver(self) -> List[ContinuousQuery]:
        """Move each interned index's match delta into its join's history.

        Called by the pool after flush phase D, when every routed
        internal query is repaired.  Returns the planned queries of every
        join whose relation changed, so the pool publishes their deltas.
        """
        touched: List[ContinuousQuery] = []
        for join in self._joins.values():
            join.compact_history()
            added, removed = join.query.index.pop_match_delta()
            if not (added or removed):
                continue
            join.history.append((added, removed))
            touched.extend(
                adapter.query
                for adapter in join.consumers
                if adapter.query is not None
            )
        return touched
