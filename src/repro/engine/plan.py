"""Pool-level multi-query plan: one interned index per distinct pattern.

The pool shares its *auxiliary* structures (distance substrate,
predicate/atom eligibility), and the substrate's memoized edge legs and
probes share the per-edge work of every bounded query.  What is left to
share is the match relation itself: N registrations of the same pattern
shape should maintain it once.  This module interns whole patterns — the
one-structure-per-distinct-query discipline of Berkholz et al.'s
"answering queries under updates" regime applied at the pool level — and
every ``simulation`` and ``bounded`` registration goes through it:

- At ``register`` time a pattern is canonicalized
  (:func:`~repro.patterns.minimize.canonical_pattern`: minimized, then
  relabelled by refinement), so re-spellings of one shape under other
  node names share a fingerprint.  Each distinct (fingerprint,
  semantics, and for ``bounded`` the distance mode) gets one
  :class:`SharedJoin`.
- A join owns one internal :class:`~repro.engine.query.ContinuousQuery`
  over the canonical pattern, built through the same
  :func:`~repro.engine.query.build_index` path as an isomorphism
  registration, which the plan registers with the pool's router, so
  flush phases A-D repair it like any other query.
- Each registered query is a :class:`PlannedQuery`.  A join groups its
  consumers by canonical renaming, and the consumers of one renaming
  share one :class:`PlanAdapter`, which reads the join's index in their
  node names: N same-shape queries cost one index.
- ``unregister`` drops the query from its group; a join with no
  consumers left leaves the router and closes its internal query, which
  returns every eligibility and substrate lease.

After phase D, :meth:`SharedPlan.deliver` pops the match delta of each
interned index the flush routed and applies the paper's totalization
convention (a relation missing some pattern node is the empty match)
once per join, which keeps its totality as of the last delivery.  It
builds one ``(added, removed)`` pair of frozensets per renaming group,
and every consumer of the group publishes that pair unchanged in phase
E of the same flush.

Isomorphism queries are not interned (their state is per embedding, and
interning them needs isomorphism-invariant keys); each owns its index.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from ..graphs.digraph import DiGraph, Node
from ..matching.relation import MatchRelation, totalize
from ..patterns.minimize import canonical_pattern
from ..patterns.pattern import Pattern, PatternNode
from .feeds import MatchPair
from .query import ContinuousQuery

# Isomorphism matches are embeddings, not per-node match sets; the pool
# gives each isomorphism query its own index.
PLANNABLE_SEMANTICS = ("simulation", "bounded")

# The pair a non-total relation publishes: the paper's empty match.
_NO_DELTA = (frozenset(), frozenset())


class SharedJoin:
    """One interned pattern: an internal query over its canonical form,
    its totality as of the last delivery, and its renaming groups."""

    __slots__ = ("key", "query", "was_total", "groups")

    def __init__(self, key: Tuple, query: ContinuousQuery) -> None:
        self.key = key
        self.query = query
        self.was_total = query.index.is_total()
        self.groups: Dict[FrozenSet, PlanAdapter] = {}


class PlanAdapter:
    """The ``index`` facade of the planned queries that read one
    :class:`SharedJoin` under one canonical renaming: match sets, result
    graph, stats and invariants, in the group's own pattern node names."""

    __slots__ = ("join", "key", "originals", "consumers")

    def __init__(self, join: SharedJoin, renaming: Mapping[PatternNode, int]) -> None:
        self.join = join
        self.key = frozenset(renaming.items())
        # Canonical node -> the original nodes minimization merged into it.
        self.originals: Dict[int, List[PatternNode]] = {}
        for orig, idx in renaming.items():
            self.originals.setdefault(idx, []).append(orig)
        self.consumers: List[PlannedQuery] = []

    @property
    def stats(self):
        return self.join.query.stats

    def matches(self) -> MatchRelation:
        raw = self.join.query.index.raw_match_sets()
        return totalize({
            orig: set(raw[idx])
            for idx, origs in self.originals.items()
            for orig in origs
        })

    def named(self, pairs: Iterable[Tuple[int, Node]]) -> FrozenSet[MatchPair]:
        """Canonical ``(node, v)`` pairs in the group's node names."""
        originals = self.originals
        return frozenset(
            (orig, v) for idx, v in pairs for orig in originals[idx]
        )

    def named_relation(self, relation: MatchRelation) -> FrozenSet[MatchPair]:
        """A canonical relation's pairs in the group's node names."""
        pairs = set()
        for idx, vs in relation.items():
            for orig in self.originals[idx]:
                pairs.update(zip(repeat(orig), vs))
        return frozenset(pairs)

    def result_graph(self) -> DiGraph:
        """The paper's result graph, read off the interned index (it is
        over data nodes, so the renaming does not enter)."""
        return self.join.query.result_graph()

    def check_invariants(self) -> None:
        self.join.query.index.check_invariants()


class PlannedQuery(ContinuousQuery):
    """A registered query rewritten against the pool's shared plan.

    Its ``index`` is the :class:`PlanAdapter` of its renaming group.  It
    is *not* router-registered and carries no routing signature: the
    join's internal query is routed, and ``distance_routed`` reports that
    query's routing class.  ``delivered`` is the pair the plan last
    delivered, which :meth:`~ContinuousQuery.emit_delta` publishes.
    """

    planned = True

    def __init__(
        self,
        name: str,
        pattern: Pattern,
        plan: "SharedPlan",
        semantics: str,
        adapter: PlanAdapter,
    ) -> None:
        self.name = name
        self.pattern = pattern
        self.graph = adapter.join.query.graph
        self.semantics = semantics
        self.index = adapter
        self.distance_routed = adapter.join.query.distance_routed
        self.delivered = _NO_DELTA
        self._plan = plan
        self._feeds = []
        self.last_delta = None

    def result_graph(self) -> DiGraph:
        return self.index.result_graph()

    def close(self) -> None:
        """Leave the join (called by pool.unregister)."""
        self._plan.release(self)


class SharedPlan:
    """The pool's multi-query plan: one interned index per distinct
    pattern.

    Owned by :class:`~repro.engine.pool.MatcherPool`, which builds every
    ``simulation`` and ``bounded`` registration through
    :meth:`build_query`; the plan registers each join's internal query
    with the pool's ``router``.
    """

    def __init__(self, pool, router) -> None:
        self.pool = pool
        self._router = router
        self._joins: Dict[Tuple, SharedJoin] = {}
        # id(internal query) -> its join, for delivery.
        self._by_query: Dict[int, SharedJoin] = {}
        self._join_counter = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def plannable(semantics: str) -> bool:
        return semantics in PLANNABLE_SEMANTICS

    def num_joins(self) -> int:
        return len(self._joins)

    def num_leases(self) -> int:
        return sum(
            len(group.consumers)
            for join in self._joins.values()
            for group in join.groups.values()
        )

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
        """Join ``pattern``'s shape (building and routing its internal
        index on first use) and add the registered query to its renaming
        group.  The index build validates the pattern for the
        semantics."""
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
            )
            self._join_counter += 1
            join = self._joins[key] = SharedJoin(key, internal)
            self._by_query[id(internal)] = join
            self._router.register(internal)
        adapter = PlanAdapter(join, canon.renaming)
        adapter = join.groups.setdefault(adapter.key, adapter)
        query = PlannedQuery(name, pattern, self, semantics, adapter)
        adapter.consumers.append(query)
        return query

    def release(self, query: PlannedQuery) -> None:
        """Drop ``query`` from its group (a repeat is a no-op); the last
        consumer out of a join unroutes and closes the internal query."""
        group = query.index
        join = group.join
        if query not in group.consumers:
            return
        group.consumers.remove(query)
        if not group.consumers:
            del join.groups[group.key]
        if not join.groups:
            del self._joins[join.key]
            del self._by_query[id(join.query)]
            self._router.unregister(join.query)
            join.query.close()

    # ------------------------------------------------------------------
    # Per-flush delivery
    # ------------------------------------------------------------------
    def deliver(self, routed: Iterable[ContinuousQuery]) -> List[ContinuousQuery]:
        """Totalize each routed interned index's match delta once and hand
        one pair per renaming group to the group's consumers.

        Called by the pool after flush phase D with the queries the flush
        routed, when every one of them is repaired; only an interned
        index a flush routed can have changed, and each one counts as a
        join repair.  Returns the queries that publish: the routed
        isomorphism queries, and the planned queries of every join whose
        raw relation changed.
        """
        published: List[ContinuousQuery] = []
        for q in routed:
            join = self._by_query.get(id(q))
            if join is None:  # an isomorphism query builds its own delta
                published.append(q)
                continue
            self.pool.stats.join_repairs += 1
            added, removed = q.index.pop_match_delta()
            if not (added or removed):
                continue
            now_total = q.index.is_total()
            flipped = None
            if now_total != join.was_total:
                # Totality flipped: the user-facing relation became the
                # raw one, or stopped being the raw one before the delta.
                flipped = q.index.raw_match_sets()  # a copy
                if not now_total:
                    for idx, v in added:
                        flipped[idx].discard(v)
                    for idx, v in removed:
                        flipped[idx].add(v)
            join.was_total = now_total
            for group in join.groups.values():
                if flipped is not None:
                    named = group.named_relation(flipped)
                    pair = (named, frozenset()) if now_total else (frozenset(), named)
                elif now_total:
                    pair = (group.named(added), group.named(removed))
                else:
                    pair = _NO_DELTA
                for consumer in group.consumers:
                    consumer.delivered = pair
                published.extend(group.consumers)
        return published
