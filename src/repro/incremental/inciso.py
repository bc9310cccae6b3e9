"""Incremental subgraph isomorphism (paper Section 7).

Theorem 7.1 proves IncIsoMat is unbounded (even trees/forests) and IncIso
NP-complete for fixed data graphs — there is no good incremental algorithm.
What *can* be built is an embedding index that avoids recomputing matches
that cannot have changed:

- every current embedding is indexed by the data edges it uses;
- a deleted data edge invalidates exactly the embeddings in its posting
  list (O(|affected|));
- an inserted data edge can only create embeddings that *use* it, so the
  search is re-run anchored on the new edge (each pattern edge is pinned to
  the new data edge in turn and VF2 completes the mapping) — correct, but
  with the exponential worst case the theorem promises;
- a node whose predicate verdicts flip loses the embeddings mapping a
  lost pattern node to it, and gains those found by a search anchored
  on it at each gained pattern node.  A node an inserted edge brings
  into the graph is such a node: it gains every pattern node whose
  predicate it satisfies, so a pattern node no pattern edge touches can
  map to it.

These are the repair methods the pool drives around its shared graph.
Like the simulation indexes, the index keeps per-pattern-node eligible
sets (leased from the pool's eligibility substrate, or its own) and
learns of changed verdicts only as resolved flips.  The standalone
``insert_edge``/``delete_edge``/``apply_batch``/``update_node_attrs``/
``add_node`` are drivers over the repair methods
(:class:`~repro.incremental.drivers.StandaloneDriver`), which resolve a
standalone index's flips: a unit update is a batch of one.
:class:`LocalizedIsoIndex` only narrows the graph the anchored search
explores.

``IsoIndex`` is the comparison point the experiments use to show why the
simulation family is the practical choice on evolving graphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..matching.isomorphism import Embedding, iter_embeddings
from ..matching.relation import MatchRelation
from ..patterns.pattern import Pattern, PatternError, PatternNode
from .delta import DeltaLog
from .drivers import StandaloneDriver

EdgeKey = Tuple[Node, Node]
EmbKey = FrozenSet[Tuple[PatternNode, Node]]


def _undirected_ball(graph: DiGraph, sources, radius: int):
    """Nodes within ``radius`` undirected hops of any source."""
    seen = set(sources)
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in graph.children(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
            for w in graph.parents(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return seen


class IsoIndex(StandaloneDriver):
    """The set ``Miso(P, G)`` maintained under edge updates."""

    def __init__(
        self,
        pattern: Pattern,
        graph: DiGraph,
        max_embeddings: Optional[int] = None,
        eligibility=None,
    ) -> None:
        if not pattern.is_normal():
            raise PatternError("IsoIndex requires a normal pattern")
        self.pattern = pattern
        self.graph = graph
        self.max_embeddings = max_embeddings
        # A pool-level SharedEligibilityIndex: the eligible sets are its
        # shared member sets (one evaluation per distinct predicate per
        # pool), and node events arrive as resolved flips
        # (apply_eligibility_flip_batch).  A standalone index owns its
        # sets, and its driver resolves the flips.  Every search takes its
        # candidates from these sets.
        self._eligibility = eligibility
        self.eligible: MatchRelation = self._lease_eligible()
        self._embeddings: Dict[EmbKey, Embedding] = {}
        self._by_edge: Dict[EdgeKey, Set[EmbKey]] = {}
        self.delta = DeltaLog()
        self._store_until_full(
            iter_embeddings(pattern, graph, candidates=self.eligible)
        )
        # The initial embedding set is state, not change.
        self.delta.clear()

    # ------------------------------------------------------------------
    # Index bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _key(emb: Embedding) -> EmbKey:
        return frozenset(emb.items())

    def _used_edges(self, emb: Embedding) -> List[EdgeKey]:
        return [(emb[u1], emb[u2]) for u1, u2 in self.pattern.edges()]

    def _store(self, emb: Embedding) -> bool:
        key = self._key(emb)
        if key in self._embeddings:
            return False
        stored = dict(emb)
        self._embeddings[key] = stored
        self.delta.add(key, stored)
        for edge in self._used_edges(emb):
            self._by_edge.setdefault(edge, set()).add(key)
        return True

    def _discard(self, key: EmbKey) -> None:
        emb = self._embeddings.pop(key, None)
        if emb is None:
            return
        self.delta.remove(key, emb)
        for edge in self._used_edges(emb):
            postings = self._by_edge.get(edge)
            if postings is not None:
                postings.discard(key)
                if not postings:
                    del self._by_edge[edge]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def embeddings(self) -> List[Embedding]:
        return [dict(e) for e in self._embeddings.values()]

    def count(self) -> int:
        return len(self._embeddings)

    def has_match(self) -> bool:
        return bool(self._embeddings)

    def pop_match_delta(self) -> Tuple[List[Embedding], List[Embedding]]:
        """Net ``(added, removed)`` embeddings since the last pop."""
        added, removed = self.delta.pop()
        return (
            [dict(e) for e in added.values()],
            [dict(e) for e in removed.values()],
        )

    # ------------------------------------------------------------------
    # Repair after the graph was edited
    # ------------------------------------------------------------------
    def _full(self) -> bool:
        return (
            self.max_embeddings is not None
            and len(self._embeddings) >= self.max_embeddings
        )

    def _store_until_full(self, embeddings: Iterable[Embedding]) -> bool:
        """Store ``embeddings`` until the cap is reached; False once it is."""
        for emb in embeddings:
            self._store(emb)
            if self._full():
                return False
        return True

    def _search_space(self, v: Node, w: Node) -> Tuple[DiGraph, MatchRelation]:
        """The graph an anchored search on edge (v, w) explores, and its
        candidates."""
        return self.graph, self.eligible

    def _search_anchored(self, v: Node, w: Node) -> None:
        """Embeddings using edge (v, w): each pattern edge is pinned to it
        in turn and VF2 completes the mapping."""
        graph, candidates = self._search_space(v, w)
        for u1, u2 in self.pattern.edges():
            if self._full():
                return
            if u1 == u2:
                if v != w:
                    continue  # a self-loop pattern edge needs a data self-loop
                seed: Embedding = {u1: v}
            else:
                if v == w:
                    continue  # injectivity forbids mapping two nodes to one
                seed = {u1: v, u2: w}
            if not self._store_until_full(
                iter_embeddings(
                    self.pattern, graph, partial=seed, candidates=candidates
                )
            ):
                return

    def repair_deleted_edges(self, edges: Iterable[EdgeKey]) -> None:
        """Drop the embeddings whose image used an edge already removed
        from the graph (their posting lists)."""
        for edge in edges:
            for key in list(self._by_edge.get(edge, ())):
                self._discard(key)

    def repair_inserted_edges(self, edges: Iterable[EdgeKey]) -> None:
        """Anchored search on edges already present in the graph."""
        for v, w in edges:
            if self.graph.has_edge(v, w):
                self._search_anchored(v, w)

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after predicate verdicts flipped for a batch of node
        events (one ``(node, gained, lost)`` triple per event; flips
        netted, the graph's edges unchanged).

        A lost pattern node invalidates exactly the embeddings mapping it
        to the node — one scan drops them for the whole batch.  A gained
        one can only create embeddings that map it to the node, found by
        a search anchored there — against the final graph, so per-event
        interleaving is immaterial.  Pattern nodes whose verdict did not
        flip need no work.
        """
        lost_pairs = {
            (u, v) for v, _gained, lost in events for u in lost
        }
        if lost_pairs:
            for key in list(self._embeddings):
                emb = self._embeddings[key]
                if any(emb.get(u) == v for u, v in lost_pairs):
                    self._discard(key)
        for v, gained, _lost in events:
            for u in gained:
                if not self._store_until_full(
                    iter_embeddings(
                        self.pattern, self.graph, partial={u: v},
                        candidates=self.eligible,
                    )
                ):
                    return


class LocalizedIsoIndex(IsoIndex):
    """IsoIndex with locality-bounded anchored search (paper Section 9).

    The paper lists "bounded incremental heuristic algorithms for subgraph
    isomorphism, with performance guarantees" as open work.  This variant
    bounds the re-search after an insertion to the *undirected ball* of
    radius ``radius`` around the new edge:

    - any embedding that uses the edge maps every pattern node within
      ``|Vp| - 1`` undirected hops of an endpoint **when the pattern is
      weakly connected**, so ``radius >= |Vp| - 1`` (the default) is exact
      for connected patterns while searching a far smaller subgraph;
    - a smaller radius is a heuristic: cheaper still, but it may miss
      embeddings whose far side lies outside the ball (deletions and
      predicate checks remain exact either way).
    """

    def __init__(self, pattern, graph, radius=None, max_embeddings=None):
        if radius is None:
            radius = max(1, pattern.num_nodes() - 1)
        self.radius = radius
        super().__init__(pattern, graph, max_embeddings=max_embeddings)

    def _search_space(self, v: Node, w: Node) -> Tuple[DiGraph, MatchRelation]:
        ball = _undirected_ball(self.graph, (v, w), self.radius)
        return (
            self.graph.subgraph(ball),
            {u: members & ball for u, members in self.eligible.items()},
        )
