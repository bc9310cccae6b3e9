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
  registration, router-registered and repaired in flush phases A-D like
  any other query; it is marked ``internal`` so it never publishes.
- Each registered query is a :class:`PlannedQuery` whose index is a
  :class:`PlanAdapter`: the canonical renaming over the join's index, so
  N same-shape queries cost one index and each still reads its own
  correctly-named match sets, deltas, and result graph.
- ``unregister`` drops the query from its join's consumers; a join with
  no consumers left detaches and closes its internal query, which
  returns every eligibility and substrate lease.

After phase D, :meth:`SharedPlan.deliver` pops the match delta of each
interned index the flush routed and hands it to that join's consumers,
which the pool publishes in phase E of the same flush — so one delta per
join and flush is all the state delivery keeps.

Isomorphism queries are not interned (their state is per embedding, and
interning them needs isomorphism-invariant keys); each owns its index.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Tuple

from ..graphs.digraph import DiGraph, Node
from ..matching.relation import MatchRelation, totalize
from ..patterns.minimize import canonical_pattern
from ..patterns.pattern import Pattern, PatternNode
from .query import ContinuousQuery

# Isomorphism matches are embeddings, not per-node match sets; the pool
# gives each isomorphism query its own index.
PLANNABLE_SEMANTICS = ("simulation", "bounded")

# Net (added, removed) match pairs of one flush, in canonical nodes.
PairDelta = Tuple[AbstractSet[Tuple[int, Node]], AbstractSet[Tuple[int, Node]]]
_NO_DELTA: PairDelta = (frozenset(), frozenset())


class SharedJoin:
    """One interned pattern: an internal query over its canonical form
    and the planned queries that read it."""

    __slots__ = ("key", "query", "consumers")

    def __init__(self, key: Tuple, query: ContinuousQuery) -> None:
        self.key = key
        self.query = query
        self.consumers: List["PlannedQuery"] = []


class PlanAdapter:
    """The ``index`` facade a planned query carries: reads its
    :class:`SharedJoin`'s index through the original pattern's canonical
    renaming.

    Exposes the slice of the index interface the engine consumes (match
    sets, deltas, totality, result graph, stats, invariants) — so
    :class:`~repro.engine.query.ContinuousQuery`'s delta emission and the
    CLI/bench plumbing work unchanged.
    """

    __slots__ = ("join", "_renaming", "_originals", "delta")

    def __init__(self, join: SharedJoin, renaming: Dict[PatternNode, int]) -> None:
        self.join = join
        self._renaming = dict(renaming)
        self._originals: Dict[int, List[PatternNode]] = {}
        for orig, idx in self._renaming.items():
            self._originals.setdefault(idx, []).append(orig)
        # The join's delta of the current flush, set by SharedPlan.deliver
        # and taken by the first pop.
        self.delta: PairDelta = _NO_DELTA

    @property
    def stats(self):
        return self.join.query.stats

    def raw_match_sets(self) -> MatchRelation:
        raw = self.join.query.index.raw_match_sets()
        return {orig: set(raw[idx]) for orig, idx in self._renaming.items()}

    def matches(self) -> MatchRelation:
        return totalize(self.raw_match_sets())

    def is_total(self) -> bool:
        return self.join.query.index.is_total()

    def pop_match_delta(self) -> Tuple[set, set]:
        """The join's delta of this flush in the original pattern's node
        names (a canonical index fans out to every original node
        minimization merged); a second pop in one flush returns nothing."""
        (added, removed), self.delta = self.delta, _NO_DELTA
        originals = self._originals
        return (
            {(orig, v) for idx, v in added for orig in originals[idx]},
            {(orig, v) for idx, v in removed for orig in originals[idx]},
        )

    def result_graph(self) -> DiGraph:
        """The paper's result graph, read off the interned index (it is
        over data nodes, so the renaming does not enter)."""
        return self.join.query.result_graph()

    def check_invariants(self) -> None:
        self.join.query.index.check_invariants()


class PlannedQuery(ContinuousQuery):
    """A registered query rewritten against the pool's shared plan.

    Its ``index`` is a :class:`PlanAdapter` over an interned
    :class:`SharedJoin`; it is *not* router-registered — the join's
    internal query is, and the plan delivers its changes after phase D.
    ``distance_routed`` reports the internal query's routing class.
    Delta emission, feeds, and result access inherit from
    :class:`ContinuousQuery`.
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
        self._plan = plan
        self._adapter = adapter
        pool = plan.pool
        super().__init__(
            name,
            pattern,
            pool.graph,
            semantics=semantics,
            substrate=pool.substrate,
            eligibility=pool.eligibility,
        )
        self.distance_routed = adapter.join.query.distance_routed

    def _build_index(
        self, pattern, graph, semantics, distance_mode, max_embeddings,
        substrate, eligibility,
    ):
        return self._adapter

    def result_graph(self) -> DiGraph:
        return self._adapter.result_graph()

    def close(self) -> None:
        """Leave the join (called by pool.unregister)."""
        self._plan.release(self)


class SharedPlan:
    """The pool's multi-query plan: one interned index per distinct
    pattern.

    Owned by :class:`~repro.engine.pool.MatcherPool`, which builds every
    ``simulation`` and ``bounded`` registration through
    :meth:`build_query`.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
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
        return sum(len(join.consumers) for join in self._joins.values())

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
        """Join ``pattern``'s shape (building its internal index on first
        use) and wrap it for the registered query.  The index build
        validates the pattern for the semantics."""
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
            self._by_query[id(internal)] = join
            pool._attach_view(internal)
        query = PlannedQuery(
            name, pattern, self, semantics, PlanAdapter(join, canon.renaming)
        )
        join.consumers.append(query)
        return query

    def release(self, query: PlannedQuery) -> None:
        """Drop ``query`` from its join (a repeat is a no-op); the last
        consumer out detaches and closes the internal query."""
        join = query.index.join
        if query not in join.consumers:
            return
        join.consumers.remove(query)
        if not join.consumers:
            del self._joins[join.key]
            del self._by_query[id(join.query)]
            self.pool._detach_view(join.query)

    # ------------------------------------------------------------------
    # Per-flush delivery
    # ------------------------------------------------------------------
    def deliver(self, routed: Iterable[ContinuousQuery]) -> List[ContinuousQuery]:
        """Hand each routed interned index's match delta to its join's
        consumers.

        Called by the pool after flush phase D with the queries the flush
        routed, when every one of them is repaired; only an interned
        index a flush routed can have changed.  Returns the planned
        queries of every join whose relation changed, so the pool
        publishes their deltas.
        """
        touched: List[ContinuousQuery] = []
        for q in routed:
            join = self._by_query.get(id(q))
            if join is None:  # an isomorphism query
                continue
            delta = q.index.pop_match_delta()
            if not (delta[0] or delta[1]):
                continue
            for consumer in join.consumers:
                consumer.index.delta = delta
            touched.extend(join.consumers)
        return touched
