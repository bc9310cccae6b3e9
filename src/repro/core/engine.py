"""The :class:`Matcher` facade — one object for batch + incremental matching.

This is the public entry point a downstream user reaches for::

    from repro import Matcher, Pattern

    pattern = Pattern.from_spec(
        {"CTO": "job = CTO", "DB": "job = DB", "Bio": "job = Bio"},
        [("CTO", "DB", 2), ("DB", "Bio", 1), ("DB", "CTO", "*"),
         ("CTO", "Bio", 1)],
    )
    matcher = Matcher(pattern, graph, semantics="bounded")
    matcher.matches()                  # maximum match (dict)
    matcher.insert_edge("Don", "Tom")  # incremental repair
    matcher.apply(updates)             # batch incremental repair

Semantics:

- ``"simulation"``  — graph simulation (normal patterns), maintained by
  :class:`SimulationIndex` (IncMatch family);
- ``"bounded"``     — bounded simulation (b-patterns), maintained by
  :class:`BoundedSimulationIndex` (IncBMatch family);
- ``"isomorphism"`` — subgraph isomorphism (normal patterns), maintained by
  :class:`IsoIndex` (embedding index; unbounded worst case per Thm. 7.1).

Since the :mod:`repro.engine` subsystem landed, ``Matcher`` is a thin
single-pattern view over a one-query :class:`~repro.engine.pool.MatcherPool`
— the same routing/flush/change-feed plumbing that serves thousands of
concurrent standing queries serves this facade.  ``matcher.query`` exposes
the underlying :class:`~repro.engine.query.ContinuousQuery` (e.g. to
subscribe to match deltas); ``matcher.pool`` exposes the pool.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..engine.feeds import ChangeFeed
from ..engine.pool import MatcherPool
from ..graphs.digraph import DiGraph, Node
from ..incremental.types import Update
from ..matching.isomorphism import Embedding
from ..matching.relation import MatchRelation
from ..patterns.pattern import Pattern

SEMANTICS = ("simulation", "bounded", "isomorphism")


class Matcher:
    """Graph pattern matching with incremental maintenance."""

    def __init__(
        self,
        pattern: Pattern,
        graph: DiGraph,
        semantics: str = "bounded",
        distance_mode: str = "bfs",
        max_embeddings: Optional[int] = None,
    ) -> None:
        self.pattern = pattern
        self.semantics = semantics
        self.graph = graph
        self.pool = MatcherPool(graph)
        self.query = self.pool.register(
            pattern,
            semantics=semantics,
            name="matcher",
            distance_mode=distance_mode,
            max_embeddings=max_embeddings,
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def matches(self) -> MatchRelation:
        """The maximum match relation (simulation semantics).

        For isomorphism semantics, use :meth:`embeddings` instead; this
        raises to avoid silently conflating the two output types.
        """
        return self.query.matches()

    def embeddings(self) -> List[Embedding]:
        """All isomorphic embeddings (isomorphism semantics only)."""
        return self.query.embeddings()

    def is_match(self) -> bool:
        """``P |> G`` under the chosen semantics?"""
        return self.query.is_match()

    def result_graph(self) -> DiGraph:
        """The result graph ``Gr`` (paper Section 4)."""
        return self.query.result_graph()

    def subscribe(self, maxlen: Optional[int] = None) -> ChangeFeed:
        """A change feed of per-flush match deltas for this matcher."""
        return self.query.subscribe(maxlen=maxlen)

    @property
    def stats(self):
        """Work counters of the underlying incremental index (if any)."""
        return self.query.stats

    @property
    def index(self):
        """The underlying index — escape hatch for advanced use.

        A simulation or bounded matcher reads the pool's interned index
        of its canonical pattern, whose nodes are the
        ``canonical_pattern(pattern).renaming`` values of this pattern's
        nodes; an isomorphism matcher owns its index.
        """
        if self.query.planned:
            return self.query.index.join.query.index
        return self.query.index

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, v: Node, w: Node) -> bool:
        """Insert a data edge and incrementally repair the match."""
        return self.pool.insert_edge(v, w)

    def delete_edge(self, v: Node, w: Node) -> bool:
        """Delete a data edge and incrementally repair the match."""
        return self.pool.delete_edge(v, w)

    def add_node(self, v: Node, **attrs) -> None:
        """Add/refresh a node (and repair the match/embedding set).

        All semantics route through the pool's flush — the single writer
        of the graph and the shared eligibility sets — so isomorphism
        indexes re-anchor here too rather than lazily on the next edge op.
        """
        self.pool.add_node(v, **attrs)

    def update_node_attrs(self, v: Node, **attrs) -> None:
        """Merge new attributes into ``v`` and repair the match — the
        "user edits her profile" update class the paper motivates."""
        self.pool.update_node_attrs(v, **attrs)

    def apply(self, updates: Iterable[Update]) -> None:
        """Apply a batch of updates with the batch incremental algorithm."""
        self.pool.apply(updates)
