"""Label/predicate-keyed update routing for the continuous-query pool.

With thousands of standing patterns over one shared graph, handing every
update to every pattern is the naive loop the paper's incremental
algorithms were built to avoid at the single-pattern level.  The router
lifts the same idea to the pool level — the "fixed queries under updates"
regime of Berkholz et al., one structure per sub-formula, so an update
costs what it touches rather than what is registered — by indexing each
query's *routing signature*:

- **endpoint-routed** queries (simulation, isomorphism and bound-1
  bounded patterns): one representative equality atom
  ``(attribute, value)`` per pattern-node predicate (a data node can only
  satisfy the predicate if its attribute tuple contains that item), so
  an update endpoint's attrs select a sound candidate superset via dict
  lookups, confirmed by the exact pattern-edge pairing
  (:meth:`~repro.engine.query.ContinuousQuery.touches_edge`: member-set
  lookups on the shared eligible sets).  Predicates lacking equality
  atoms (``TRUE`` or inequality-only) fall into a wildcard-node bucket;
- **distance-routed** queries (bounded patterns with a bound above 1, or
  ``*``): an edge between unlabeled nodes can shorten or break a witness
  path, so endpoint attributes alone are unsound.  An update of
  ``(x, y)`` reaches a pair only if ``d(a, x) + 1 + d(y, c) <= k`` (the
  rule repair applies to each pair), and at its loosest that depends on
  nothing but the nearest source member in the edge's backward leg and
  the nearest target member in its forward leg.  So their pattern edges
  are grouped by *source predicate*: per edge the router reads the legs
  from the pool substrate (the same BFS pair the routed queries' repair
  then reads, at the pool's largest finite leg radius), tests each
  distinct source predicate once against the backward leg, reads each
  needed target predicate's nearest distance in the forward leg once,
  and routes a query when one of its pattern edges fits its bound
  (``*``: both reachability legs meet their sets).  Queries with a
  trivial (``TRUE``) predicate are distance-routed too: the pool
  announces fresh nodes to the eligibility substrate before insertion
  routing, so a brand-new attribute-less node is already a ``TRUE``
  member when the rule is applied;
- node events route by predicate **flips**: the pool's eligibility
  substrate evaluates each distinct predicate once per event, and
  :meth:`route_flips` selects exactly the queries whose patterns use a
  flipped predicate.

Queries that fail their stage do **zero** work for the update.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..graphs.digraph import Node
from ..graphs.traversal import Legs
from ..patterns.pattern import Bound
from ..patterns.predicate import Predicate
from .query import ContinuousQuery, EqKey


class _SourceGroup:
    """The pattern edges of the distance-routed queries that share one
    source predicate: its shared eligible set, and per (target predicate,
    bound) the target's eligible set and the queries using that edge."""

    __slots__ = ("members", "edges")

    def __init__(self, members: Set[Node]) -> None:
        self.members = members
        self.edges: Dict[
            Tuple[Predicate, Bound], Tuple[Set[Node], Set[int]]
        ] = {}


class UpdateRouter:
    """Maps updates to the registered queries they can possibly affect.

    ``substrate`` is the pool's
    :class:`~repro.engine.distances.SharedDistanceSubstrate`, whose legs
    route distance-routed queries; a router without one accepts only
    endpoint-routed queries.  ``stats``, when given, is any object with
    an int ``distance_checks`` attribute; every pattern-edge rule the
    router evaluates is counted there.  All queries of one router lease
    their eligible sets from one eligibility index.
    """

    def __init__(self, substrate=None, stats=None) -> None:
        self._substrate = substrate
        self._stats = stats
        self._queries: Dict[int, ContinuousQuery] = {}
        self._order: Dict[int, int] = {}  # registration order for stable output
        self._next_rank = 0
        self._eq: Dict[EqKey, Set[int]] = {}
        self._wild_node: Set[int] = set()
        # Distance-routed pattern edges by source predicate: finite bounds
        # read legs at the largest finite leg radius registered, * bounds
        # reachability legs.
        self._finite: Dict[Predicate, _SourceGroup] = {}
        self._unbounded: Dict[Predicate, _SourceGroup] = {}
        self._radius = 0
        # Queries indexed by interned predicate, for flip routing.
        self._by_pred: Dict[Predicate, Set[int]] = {}

    def __len__(self) -> int:
        return len(self._queries)

    @property
    def leg_radius(self) -> Optional[int]:
        """The leg radius finite-bound routing asks the substrate for
        (None when no distance-routed query has a finite bound)."""
        return self._radius if self._finite else None

    def register(self, query: ContinuousQuery) -> None:
        qid = id(query)
        if query.distance_routed and self._substrate is None:
            raise ValueError(
                f"{query.name!r} is distance-routed; the router needs the "
                "pool's distance substrate"
            )
        self._queries[qid] = query
        self._order[qid] = self._next_rank
        self._next_rank += 1
        for pred in query.predicates:
            # Unsatisfiable conjunctions never flip (the substrate keeps
            # them as empty, upkeep-free sets), so they consume no routing
            # bucket either.
            if not pred.is_unsatisfiable():
                self._by_pred.setdefault(pred, set()).add(qid)
        if not query.distance_routed:
            for key in query.eq_keys:
                self._eq.setdefault(key, set()).add(qid)
            if query.wildcard_node:
                self._wild_node.add(qid)
            return
        for groups, src, tgt, bound in self._distance_edges(query):
            group = groups.get(src)
            if group is None:
                group = groups[src] = _SourceGroup(query.members[src])
            entry = group.edges.get((tgt, bound))
            if entry is None:
                entry = group.edges[(tgt, bound)] = (query.members[tgt], set())
            entry[1].add(qid)
        self._refresh_radius()

    def unregister(self, query: ContinuousQuery) -> None:
        qid = id(query)
        if qid not in self._queries:
            return
        del self._queries[qid]
        del self._order[qid]
        for pred in query.predicates:
            _discard(self._by_pred, pred, qid)
        if not query.distance_routed:
            for key in query.eq_keys:
                _discard(self._eq, key, qid)
            self._wild_node.discard(qid)
            return
        for groups, src, tgt, bound in self._distance_edges(query):
            group = groups[src]
            qids = group.edges[(tgt, bound)][1]
            qids.discard(qid)
            if not qids:
                del group.edges[(tgt, bound)]
                if not group.edges:
                    del groups[src]
        self._refresh_radius()

    def _distance_edges(self, query: ContinuousQuery):
        """``(groups, source, target, bound)`` per distinct pattern edge
        of a distance-routed query that can route: an unsatisfiable end
        has no members, so its edge never meets the rule."""
        for src, tgt, bound in dict.fromkeys(query.edge_predicates):
            if not (src.is_unsatisfiable() or tgt.is_unsatisfiable()):
                groups = self._unbounded if bound is None else self._finite
                yield groups, src, tgt, bound

    def _refresh_radius(self) -> None:
        """Finite-bound routing reads legs at the largest registered
        finite bound minus one."""
        self._radius = max(
            (b for group in self._finite.values() for _, b in group.edges),
            default=1,
        ) - 1

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def _node_candidates(self, attrs: Mapping[str, Any]) -> Set[int]:
        out = set(self._wild_node)
        for item in attrs.items():
            try:
                bucket = self._eq.get(item)
            except TypeError:  # unhashable attribute value
                continue
            if bucket:
                out.update(bucket)
        return out

    def _sorted(self, qids) -> List[ContinuousQuery]:
        return [
            self._queries[qid]
            for qid in sorted(qids, key=self._order.__getitem__)
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_edge(
        self,
        v: Any,
        w: Any,
        v_attrs: Mapping[str, Any],
        w_attrs: Mapping[str, Any],
    ) -> List[ContinuousQuery]:
        """Queries an edge update between ``v`` and ``w`` can affect.

        Endpoint-routed queries: eq-key candidate lookup on both
        endpoints' attrs, confirmed by the endpoint pairing
        (``touches_edge``) — sound and complete for simulation and
        isomorphism semantics and bound-1 bounded patterns (an edge only
        enters their bookkeeping when its endpoints can play adjacent
        pattern nodes).  Distance-routed queries: the leg rule, one test
        per distinct source predicate and one nearest-distance read per
        distinct target predicate (an endpoint pairing is the rule's
        distance-0 case).

        Callers must time the call against the pool's distance
        structures: pre-edit for deletions, post-``observe`` for
        insertions (see :meth:`MatcherPool.flush`).
        """
        selected: Set[int] = set()
        if self._eq or self._wild_node:
            cands = self._node_candidates(v_attrs)
            cands &= self._node_candidates(w_attrs)
            for qid in cands:
                if self._queries[qid].touches_edge(v, w):
                    selected.add(qid)
        checks = 0
        if self._finite:
            legs = self._substrate.legs(v, w, self._radius)
            checks += _route_by_legs(legs, self._finite, selected)
        if self._unbounded:
            legs = self._substrate.legs(v, w, None)
            checks += _route_by_legs(legs, self._unbounded, selected)
        if checks and self._stats is not None:
            self._stats.distance_checks += checks
        return self._sorted(selected)

    def route_flips(
        self, predicates: Iterable[Predicate]
    ) -> List[ContinuousQuery]:
        """Queries whose patterns use a flipped predicate.

        The substrate already evaluated each distinct predicate exactly
        once for the node event; this stage is pure dict lookups, so the
        per-event routing cost scales with the number of *flipped*
        predicates and their users, not with pool size.
        """
        selected: Set[int] = set()
        for pred in predicates:
            bucket = self._by_pred.get(pred)
            if bucket:
                selected.update(bucket)
        return self._sorted(selected)

    # Node events route only through route_flips.  These two names stay
    # solely because the end-to-end benchmark's tracer
    # (benchmarks/e2e/spans.py) looks them up on the class.
    def route_node(self, *args, **kwargs):
        raise RuntimeError("route_node was removed; use route_flips")

    def route_attr_change(self, *args, **kwargs):
        raise RuntimeError("route_attr_change was removed; use route_flips")


def _discard(buckets: Dict[Any, Set[int]], key: Any, qid: int) -> None:
    bucket = buckets.get(key)
    if bucket is not None:
        bucket.discard(qid)
        if not bucket:
            del buckets[key]


def _route_by_legs(
    legs: Legs, groups: Dict[Predicate, _SourceGroup], selected: Set[int]
) -> int:
    """Add to ``selected`` the queries of every pattern edge in ``groups``
    that meets the leg rule over ``legs``; return how many pattern edges
    were evaluated (only those whose source predicate the backward leg
    meets).

    A finite bound ``k`` routes when ``d_back + 1 + d_fwd <= k`` for the
    nearest source member ``d_back`` and the nearest target member
    ``d_fwd``; ``legs`` may reach beyond ``k - 1``, which the sum test
    absorbs.  A ``*`` bound (``groups`` over reachability legs) routes
    when both legs meet their sets.
    """
    back, fwd = legs
    back_nodes, fwd_nodes = back.keys(), fwd.keys()
    # Nearest distance in the forward leg (-1: none) per target, keyed by
    # the identity of its shared eligible set.
    nearest: Dict[int, int] = {}
    checks = 0
    for group in groups.values():
        sources = group.members
        # isdisjoint probes the larger side from the smaller.
        if back_nodes.isdisjoint(sources):
            continue
        d_back = back[next(filter(sources.__contains__, back))]
        for (_tgt, bound), (targets, qids) in group.edges.items():
            checks += 1
            if bound is not None and d_back >= bound:
                continue
            d_fwd = nearest.get(id(targets))
            if d_fwd is None:
                d_fwd = nearest[id(targets)] = (
                    -1 if fwd_nodes.isdisjoint(targets)
                    else fwd[next(filter(targets.__contains__, fwd))]
                )
            if d_fwd >= 0 and (bound is None or d_back + 1 + d_fwd <= bound):
                selected.update(qids)
    return checks
