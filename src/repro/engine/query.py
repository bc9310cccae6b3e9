"""One registered continuous query of a :class:`~repro.engine.pool.MatcherPool`.

A :class:`ContinuousQuery` owns the incremental index for one
``(pattern, semantics)`` over the pool's shared data graph, carries the
query's *routing signature* (which updates can possibly touch its
candidate space: eq-keys, predicates, and per pattern edge its two
predicates, their shared eligible sets and its bound, which the
:class:`~repro.engine.router.UpdateRouter` indexes), and turns the
index's raw promotion/demotion deltas into user-facing
:class:`~repro.engine.feeds.MatchDelta` events — applying the paper's
totalization convention (a relation missing some pattern node collapses
to empty) at the feed boundary.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..incremental.incbsim import BoundedSimulationIndex
from ..incremental.inciso import IsoIndex
from ..incremental.incsim import SimulationIndex
from ..matching.isomorphism import Embedding
from ..matching.relation import MatchRelation, as_pairs
from ..matching.result_graph import (
    isomorphism_result_graph,
    simulation_result_graph,
)
from ..patterns.pattern import Bound, Pattern, PatternError, PatternNode
from ..patterns.predicate import Predicate
from .feeds import ChangeFeed, MatchDelta, MatchPair

SEMANTICS = ("simulation", "bounded", "isomorphism")

EqKey = Tuple[str, Any]


def build_index(
    pattern: Pattern,
    graph: DiGraph,
    semantics: str,
    distance_mode: str = "bfs",
    max_embeddings: Optional[int] = None,
    *,
    substrate,
    eligibility,
):
    """Validate and build the incremental index for one pool query.

    Every index leases its per-pattern-node eligible sets from
    ``eligibility`` (the pool's
    :class:`~repro.engine.eligibility.SharedEligibilityIndex`: one shared
    member set per distinct predicate), and a bounded index leases its
    distance structures from ``substrate`` (the pool's
    :class:`~repro.engine.distances.SharedDistanceSubstrate`); the other
    semantics have no distance structures and ignore it.
    """
    if semantics not in SEMANTICS:
        raise ValueError(
            f"semantics must be one of {SEMANTICS}, got {semantics!r}"
        )
    if semantics in ("simulation", "isomorphism") and not pattern.is_normal():
        raise PatternError(
            f"{semantics} requires a normal pattern; "
            "use semantics='bounded' for b-patterns"
        )
    pattern.validate()
    if semantics == "simulation":
        return SimulationIndex(pattern, graph, eligibility=eligibility)
    if semantics == "bounded":
        return BoundedSimulationIndex(
            pattern,
            graph,
            distance_mode=distance_mode,
            substrate=substrate,
            eligibility=eligibility,
        )
    return IsoIndex(
        pattern, graph, max_embeddings=max_embeddings, eligibility=eligibility
    )


class ContinuousQuery:
    """A standing ``(pattern, semantics)`` query over a shared graph."""

    # True on plan-rewritten subclasses (see repro.engine.plan) — those
    # queries are never router-registered.
    planned = False
    # Pool time at which a TTL'd registration retires (pool.register(...,
    # ttl=...)); None = the query lives until unregistered.  The pool
    # auto-unregisters expired queries at the top of each flush.
    expires_at: Optional[float] = None

    def __init__(
        self,
        name: str,
        pattern: Pattern,
        graph: DiGraph,
        semantics: str = "bounded",
        distance_mode: str = "bfs",
        max_embeddings: Optional[int] = None,
        *,
        substrate,
        eligibility,
        internal: bool = False,
    ) -> None:
        self.name = name
        self.pattern = pattern
        self.graph = graph
        self.semantics = semantics
        # Internal queries (the plan's interned indexes) are repaired
        # like any other query but never emit user-facing deltas.
        self.internal = internal
        self.index = self._build_index(
            pattern,
            graph,
            semantics,
            distance_mode,
            max_embeddings,
            substrate,
            eligibility,
        )
        self._feeds: List[ChangeFeed] = []
        self.last_delta: Optional[MatchDelta] = None
        # --- routing signature -----------------------------------------
        # Node events route as predicate *flips* (the eligibility
        # substrate evaluates each distinct predicate once and tells the
        # router which verdicts changed), and endpoint confirms are
        # member-set lookups on the shared sets.
        self.predicates: FrozenSet[Predicate] = frozenset(
            pattern.predicate(u) for u in pattern.nodes()
        )
        self._nodes_by_pred: Dict[Predicate, List[PatternNode]] = {}
        for u in pattern.nodes():
            self._nodes_by_pred.setdefault(pattern.predicate(u), []).append(u)
        # The shared eligible set of each predicate.  The index's leases
        # keep these entries alive for the query's lifetime; the index
        # was built above, so they all exist.
        self.members: Dict[Predicate, Set[Node]] = {
            pred: eligibility.entry(pred).members for pred in self.predicates
        }
        # (source predicate, target predicate, bound) per pattern edge.
        self.edge_predicates: List[Tuple[Predicate, Predicate, Bound]] = [
            (pattern.predicate(u), pattern.predicate(u2), pattern.bound(u, u2))
            for u, u2 in pattern.edges()
        ]
        self._edge_member_pairs: List[Tuple[Set[Node], Set[Node]]] = [
            (self.members[src], self.members[tgt])
            for src, tgt, _ in self.edge_predicates
        ]
        # One representative equality atom per predicate: a node can only
        # satisfy the predicate if its attrs contain that (attr, value)
        # item, so indexing one atom yields a sound candidate superset.
        # The representative is the min by (attribute, repr(value)) so
        # routing is invariant under predicate atom order.
        eq_keys: Set[EqKey] = set()
        wildcard = False
        for pred in self.predicates:
            eq_atoms = [a for a in pred.atoms if a.op == "="]
            if eq_atoms:
                rep = min(eq_atoms, key=lambda a: (a.attribute, repr(a.value)))
                eq_keys.add((rep.attribute, rep.value))
            else:
                wildcard = True  # TRUE / inequality-only: matches broadly
        self.eq_keys: FrozenSet[EqKey] = frozenset(eq_keys)
        self.wildcard_node: bool = wildcard
        # --- edge-routing class ------------------------------------------
        # Bounded queries with a bound > 1 (or *) are distance-routed:
        # the router tests their pattern edges against the edge's legs —
        # trivial-predicate ones included, since the pool announces fresh
        # nodes to the eligibility substrate before insertion routing.
        # Bound-1 patterns stay endpoint-routed.
        self.distance_routed: bool = (
            isinstance(self.index, BoundedSimulationIndex)
            and self.index.distance_routed()
        )
        # --- delta bookkeeping -----------------------------------------
        if isinstance(self.index, IsoIndex):
            self._was_total = True  # unused for embeddings
            self._pair_counts: Dict[MatchPair, int] = {}
            for emb in self.index.embeddings():
                for pair in emb.items():
                    self._pair_counts[pair] = self._pair_counts.get(pair, 0) + 1
        else:
            self._was_total = self.index.is_total()

    def _build_index(
        self, pattern, graph, semantics, distance_mode, max_embeddings,
        substrate, eligibility,
    ):
        """Index construction hook; plan-rewritten subclasses override it
        to attach a shared-join adapter instead of a private index."""
        return build_index(
            pattern,
            graph,
            semantics,
            distance_mode=distance_mode,
            max_embeddings=max_embeddings,
            substrate=substrate,
            eligibility=eligibility,
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def matches(self) -> MatchRelation:
        """The maximum match relation (simulation / bounded semantics)."""
        if isinstance(self.index, IsoIndex):
            raise PatternError(
                "isomorphism semantics yields embeddings, not a relation; "
                "call .embeddings()"
            )
        return self.index.matches()

    def embeddings(self) -> List[Embedding]:
        """All isomorphic embeddings (isomorphism semantics only)."""
        if not isinstance(self.index, IsoIndex):
            raise PatternError(
                f"{self.semantics} semantics yields a relation; call .matches()"
            )
        return self.index.embeddings()

    def is_match(self) -> bool:
        """``P |> G`` under the chosen semantics?"""
        if isinstance(self.index, IsoIndex):
            return self.index.has_match()
        return any(vs for vs in self.index.matches().values())

    def result_graph(self) -> DiGraph:
        """The result graph ``Gr`` (paper Section 4)."""
        if isinstance(self.index, IsoIndex):
            return isomorphism_result_graph(
                self.pattern, self.graph, self.index.embeddings()
            )
        if isinstance(self.index, BoundedSimulationIndex):
            return self.index.result_graph()
        return simulation_result_graph(
            self.pattern, self.graph, self.index.matches()
        )

    @property
    def stats(self):
        """Work counters of the underlying incremental index (if any)."""
        return getattr(self.index, "stats", None)

    # ------------------------------------------------------------------
    # Change feed
    # ------------------------------------------------------------------
    def subscribe(self, maxlen: Optional[int] = None) -> ChangeFeed:
        """A new drainable feed receiving this query's match deltas."""
        feed = ChangeFeed(self.name, maxlen=maxlen)
        self._feeds.append(feed)
        return feed

    def unsubscribe(self, feed: ChangeFeed) -> None:
        try:
            self._feeds.remove(feed)
        except ValueError:
            pass

    def close(self) -> None:
        """Release shared-substrate leases (called by pool.unregister)."""
        release = getattr(self.index, "release", None)
        if release is not None:
            release()

    def emit_delta(self, seq: int) -> MatchDelta:
        """Pop the index's raw delta, totalize, publish, and return it."""
        if isinstance(self.index, IsoIndex):
            delta = self._emit_iso_delta(seq)
        else:
            delta = self._emit_relation_delta(seq)
        self.last_delta = delta
        for feed in self._feeds:
            feed.publish(delta)
        return delta

    def _emit_relation_delta(self, seq: int) -> MatchDelta:
        raw_added, raw_removed = self.index.pop_match_delta()
        now_total = self.index.is_total()
        if self._was_total and now_total:
            added, removed = raw_added, raw_removed
        elif not self._was_total and not now_total:
            added, removed = set(), set()
        else:
            # Totality flipped: the user-facing relation went from (or to)
            # empty wholesale.  Reconstruct the other side from the raw
            # state and the raw delta.
            after = set(as_pairs(self.index.raw_match_sets()))
            if now_total:
                added, removed = after, set()
            else:
                before = (after - raw_added) | raw_removed
                added, removed = set(), before
        self._was_total = now_total
        return MatchDelta(
            self.name, seq, added=frozenset(added), removed=frozenset(removed)
        )

    def _emit_iso_delta(self, seq: int) -> MatchDelta:
        added_embs, removed_embs = self.index.pop_match_delta()
        added_pairs: Set[MatchPair] = set()
        removed_pairs: Set[MatchPair] = set()
        counts = self._pair_counts
        for emb in removed_embs:
            for pair in emb.items():
                counts[pair] -= 1
                if counts[pair] == 0:
                    del counts[pair]
                    removed_pairs.add(pair)
        for emb in added_embs:
            for pair in emb.items():
                if counts.get(pair, 0) == 0:
                    if pair in removed_pairs:
                        removed_pairs.discard(pair)
                    else:
                        added_pairs.add(pair)
                counts[pair] = counts.get(pair, 0) + 1
        return MatchDelta(
            self.name,
            seq,
            added=frozenset(added_pairs),
            removed=frozenset(removed_pairs),
            added_embeddings=tuple(added_embs),
            removed_embeddings=tuple(removed_embs),
        )

    # ------------------------------------------------------------------
    # Endpoint routing (consulted by UpdateRouter)
    # ------------------------------------------------------------------
    def touches_edge(self, v: Node, w: Node) -> bool:
        """Can an edge (v, w) affect this query through its endpoints?

        The router's endpoint stage, for queries that are not
        ``distance_routed``.  A pair of member-set lookups on the shared
        eligible sets per pattern edge — sound because the substrate
        keeps the sets mirroring predicate truth through flush phase A,
        before any edge is routed.
        """
        return any(
            v in src and w in tgt for src, tgt in self._edge_member_pairs
        )

    # ------------------------------------------------------------------
    # Repair delegation (invoked by the pool; graph already mutated
    # except where noted)
    # ------------------------------------------------------------------
    def prepare_deletions(self, edges: List[Tuple[Node, Node]]):
        """Pre-deletion prep; call BEFORE the pool removes the edges."""
        return self.index.prepare_deleted_edges(edges)

    def repair_deletions(self, prepared) -> None:
        self.index.repair_deleted_edges(prepared)

    def repair_insertions(self, edges: List[Tuple[Node, Node]]) -> None:
        self.index.repair_inserted_edges(edges)

    def apply_node_added(self, v: Node, attrs: Mapping[str, Any]) -> None:
        """A node appeared in the shared graph (attrs already applied)."""
        self.index.add_node(v, **dict(attrs))

    def apply_eligibility_flips(self, v: Node, flips) -> None:
        """One node's flips: :meth:`apply_eligibility_flip_batch` for a
        batch of one."""
        self.apply_eligibility_flip_batch({v: flips})

    def apply_eligibility_flip_batch(
        self, by_node: Mapping[Node, List]
    ) -> None:
        """Batched shared-eligibility repair: one routing decision per
        flush, flips for the whole node-ops batch (netted per (predicate,
        node) by the pool, sets already final) delivered to the index in
        one pass."""
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]] = []
        for v, flips in by_node.items():
            gained: List[PatternNode] = []
            lost: List[PatternNode] = []
            for pred, is_gain in flips:
                for u in self._nodes_by_pred.get(pred, ()):
                    (gained if is_gain else lost).append(u)
            if gained or lost:
                events.append((v, gained, lost))
        if events:
            self.index.apply_eligibility_flip_batch(events)

    # Attribute changes arrive as eligibility flips and the pool substrate
    # observes edge batches, so nothing calls these.  The names stay solely
    # because the end-to-end benchmark's tracer (benchmarks/e2e/spans.py)
    # looks them up on the class.
    def observe_deletions(self, *args, **kwargs):
        raise RuntimeError("observe_deletions was removed")

    def observe_insertions(self, *args, **kwargs):
        raise RuntimeError("observe_insertions was removed")

    def apply_attr_update(self, *args, **kwargs):
        raise RuntimeError(
            "apply_attr_update was removed; use apply_eligibility_flip_batch"
        )

    def __repr__(self) -> str:
        return (
            f"ContinuousQuery({self.name!r}, semantics={self.semantics!r}, "
            f"{self.pattern!r})"
        )
