"""Standalone entry points of the incremental indexes, as drivers over
their repair methods.

Each index implements every paper algorithm once, as the repair methods
a :class:`~repro.engine.pool.MatcherPool` runs around its shared graph
(``prepare_deleted_edges`` / ``repair_deleted_edges`` /
``repair_inserted_edges`` / ``apply_eligibility_flip_batch``).  An index
that owns its graph reaches them through :class:`StandaloneDriver`.  The
paper's update model (Section 4, quoted in :mod:`.types`) makes a unit
update a batch of one: every edge entry point nets its updates with
:func:`~.types.net_updates` and then runs the same phases as a pool
flush — prepare the deletions on the pre-edit graph, remove them, sync
the index's own structures, repair; add the insertions, sync, repair.
The node entry points are one path too: ``add_node`` on a node already
in an index's own graph is an attribute change (``update_node_attrs``),
and a fresh node is registered by the index's ``_register_node``.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..graphs.digraph import Node
from ..patterns.pattern import PatternNode
from .types import Update, delete, insert, net_updates

EdgeList = List[Tuple[Node, Node]]


class StandaloneDriver:
    """Unit, batch and attribute entry points over an index's repair
    methods; mixed into each incremental index."""

    def insert_edge(self, v: Node, w: Node) -> bool:
        """Insert data edge (v, w) and repair; returns whether the graph
        changed."""
        return bool(self._drive([insert(v, w)]))

    def delete_edge(self, v: Node, w: Node) -> bool:
        """Delete data edge (v, w) and repair; returns whether the graph
        changed."""
        return bool(self._drive([delete(v, w)]))

    def apply_batch(self, updates: Iterable[Update]) -> None:
        """Net the batch, then one deletion repair and one insertion
        repair."""
        self._drive(list(updates))

    def apply_batch_naive(self, updates: Iterable[Update]) -> None:
        """Unit updates one at a time (the paper's ``IncMatch_n``-style
        baseline)."""
        for upd in updates:
            self._drive([upd])

    def _drive(self, updates: List[Update]) -> List[Update]:
        """Apply ``updates`` to the graph and repair; returns the net
        updates."""
        net = net_updates(self.graph, updates)
        deleted = [u.edge for u in net if u.op == "delete"]
        inserted = [u.edge for u in net if u.op == "insert"]
        if deleted:
            prepared = self.prepare_deleted_edges(deleted)
            for v, w in deleted:
                self.graph.remove_edge(v, w)
            self._sync_own_structures(deleted, [])
            self.repair_deleted_edges(prepared)
        if inserted:
            for v, w in inserted:
                self.graph.add_edge(v, w)
            self._sync_own_structures([], inserted)
            self.repair_inserted_edges(inserted)
        return net

    def prepare_deleted_edges(self, edges: EdgeList):
        """Pre-deletion work on the graph that still holds ``edges``; the
        result is handed to ``repair_deleted_edges``.  Indexes that need
        none get the edges back."""
        return edges

    def _sync_own_structures(
        self, deleted: EdgeList, inserted: EdgeList
    ) -> None:
        """Bring structures the index owns up to date with an edge batch
        just applied to the graph (none by default)."""

    def add_node(self, v: Node, **attrs) -> None:
        """Add ``v`` to the graph, or refresh its attributes, and repair.

        On an index that owns its eligible sets, a node already in the
        graph is an attribute change: :meth:`update_node_attrs` (the
        verdicts before and after give the flips, so a predicate that
        stops holding drops its matches).  A fresh node is registered:
        every pattern node it satisfies is gained.  A pool-leased index
        always registers, because the pool announces only fresh nodes to
        it (attribute changes reach it as resolved flips).
        """
        if self._eligibility is None and v in self.graph:
            self.update_node_attrs(v, **attrs)
            return
        self.graph.add_node(v, **attrs)
        self._register_node(v)

    def update_node_attrs(self, v: Node, **attrs) -> None:
        """Change ``v``'s attributes and repair the match.

        The paper motivates incremental matching with users who "edit
        [their] profile": a predicate can start or stop holding, so ``v``
        may gain or lose eligibility per pattern node.  The verdicts are
        re-evaluated against the index's eligible sets, which are updated,
        and the flips repaired by ``apply_eligibility_flip_batch`` as a
        batch of one event.  A pool-leased index receives attribute
        changes as resolved flips instead.
        """
        if self._eligibility is not None:
            raise RuntimeError(
                f"a shared-eligibility {type(self).__name__} receives "
                "attribute changes as resolved flips "
                "(apply_eligibility_flip_batch), driven by the pool"
            )
        if v not in self.graph:
            self.add_node(v, **attrs)
            return
        self.graph.add_node(v, **attrs)
        node_attrs = self.graph.attrs(v)
        gained: List[PatternNode] = []
        lost: List[PatternNode] = []
        for u in self.pattern.nodes():
            ok = self.pattern.predicate(u).satisfied_by(node_attrs)
            if ok and v not in self.eligible[u]:
                self.eligible[u].add(v)
                gained.append(u)
            elif not ok and v in self.eligible[u]:
                self.eligible[u].remove(v)
                lost.append(u)
        self.apply_eligibility_flip_batch([(v, gained, lost)])
