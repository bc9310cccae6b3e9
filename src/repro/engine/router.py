"""Label/predicate-keyed update routing for the continuous-query pool.

With thousands of standing patterns over one shared graph, handing every
update to every pattern is the naive loop the paper's incremental
algorithms were built to avoid at the single-pattern level.  The router
lifts the same idea to the pool level — the "fixed queries under updates"
regime of Berkholz et al. — by indexing each query's *routing signature*:

- one representative equality atom ``(attribute, value)`` per pattern-node
  predicate (a data node can only satisfy the predicate if its attribute
  tuple contains that item), so an update endpoint's attrs select a sound
  candidate superset via dict lookups;
- queries with a predicate lacking equality atoms (``TRUE`` or
  inequality-only) fall into a wildcard-node bucket;
- bounded queries whose bounds exceed 1 (or ``*``) are **distance-routed**:
  an edge between unlabeled nodes can shorten or break a witness path, so
  endpoint attributes alone are unsound — instead each such query's
  :meth:`~repro.engine.query.ContinuousQuery.can_affect_edge` oracle
  proves or refutes relevance per edge from the edge's memoized legs
  in the pool substrate (the same BFS pair the routed queries' repair
  then reads): an edge is routed only when the
  nearest eligible source before it and the nearest eligible target
  after it fit a witness within the bound ``k``:
  ``d(a, x) + 1 + d(y, c) <= k``, the rule repair applies to each pair.
  Trivial-(``TRUE``)-predicate queries are distance-routed too: the pool
  announces fresh nodes to the eligibility substrate before insertion
  routing, so a brand-new attribute-less node is already a ``TRUE``
  member when the oracle rules;
- node events route by predicate **flips**: the pool's eligibility
  substrate evaluates each distinct predicate once per event, and
  :meth:`route_flips` selects exactly the queries whose patterns use a
  flipped predicate.

Edge routing is therefore three-staged: eq-key candidate lookup, endpoint
confirm (``touches_edge`` — member-set lookups on the shared eligible
sets), and the distance oracle for distance-routed queries.  Queries that
fail every stage do **zero** work for the update.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Set

from ..patterns.predicate import Predicate
from .query import ContinuousQuery, EqKey


class UpdateRouter:
    """Maps updates to the registered queries they can possibly affect."""

    def __init__(self) -> None:
        self._queries: Dict[int, ContinuousQuery] = {}
        self._order: Dict[int, int] = {}  # registration order for stable output
        self._next_rank = 0
        self._eq: Dict[EqKey, Set[int]] = {}
        self._wild_node: Set[int] = set()
        self._dist: Set[int] = set()
        # Queries indexed by interned predicate, for flip routing.
        self._by_pred: Dict[Predicate, Set[int]] = {}

    def __len__(self) -> int:
        return len(self._queries)

    def register(self, query: ContinuousQuery) -> None:
        qid = id(query)
        self._queries[qid] = query
        self._order[qid] = self._next_rank
        self._next_rank += 1
        for key in query.eq_keys:
            self._eq.setdefault(key, set()).add(qid)
        for pred in query.predicates:
            # Unsatisfiable conjunctions never flip (the substrate keeps
            # them as empty, upkeep-free sets), so they consume no routing
            # bucket either.
            if not pred.is_unsatisfiable():
                self._by_pred.setdefault(pred, set()).add(qid)
        if query.wildcard_node:
            self._wild_node.add(qid)
        if query.distance_routed:
            self._dist.add(qid)

    def unregister(self, query: ContinuousQuery) -> None:
        qid = id(query)
        if qid not in self._queries:
            return
        del self._queries[qid]
        del self._order[qid]
        for key in query.eq_keys:
            bucket = self._eq.get(key)
            if bucket is not None:
                bucket.discard(qid)
                if not bucket:
                    del self._eq[key]
        for pred in query.predicates:
            bucket = self._by_pred.get(pred)
            if bucket is not None:
                bucket.discard(qid)
                if not bucket:
                    del self._by_pred[pred]
        self._wild_node.discard(qid)
        self._dist.discard(qid)

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

        Two stages:

        1. eq-key candidate lookup on both endpoints' attrs, confirmed by
           the endpoint pairing (``touches_edge``) — sound and complete
           for simulation/isomorphism semantics and bound-1 bounded
           patterns (an edge only enters their bookkeeping when its
           endpoints can play adjacent pattern nodes);
        2. for distance-routed queries not already selected, the
           ``can_affect_edge`` oracle — an endpoint pairing (a possible
           direct pair) also routes them without an oracle consult.

        Callers must time the call against the pool's distance
        structures: pre-edit for deletions, post-``observe`` for
        insertions (see :meth:`MatcherPool.flush`).
        """
        cands = self._node_candidates(v_attrs) & self._node_candidates(w_attrs)
        selected: Set[int] = set()
        for qid in cands:
            q = self._queries[qid]
            if q.touches_edge(v, w):
                selected.add(qid)
            elif qid in self._dist and q.can_affect_edge(v, w):
                selected.add(qid)
        for qid in self._dist:
            # touches_edge implies eq/wildcard candidacy, so queries
            # outside ``cands`` are decided by the oracle alone.
            if qid not in selected and qid not in cands:
                if self._queries[qid].can_affect_edge(v, w):
                    selected.add(qid)
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
