"""Standalone entry points of the incremental indexes, as drivers over
their repair methods.

Each index implements every paper algorithm once, as the repair methods
a :class:`~repro.engine.pool.MatcherPool` runs around its shared graph
(``prepare_deleted_edges`` / ``repair_deleted_edges`` /
``repair_inserted_edges`` / ``apply_eligibility_flip_batch``).  An index
that owns its graph and its eligible sets reaches them through
:class:`StandaloneDriver`; an index that leases its sets from a pool is
refused, because the pool's eligibility substrate alone moves nodes in
and out of them.  The paper's update model (Section 4, quoted in
:mod:`.types`) makes a unit update a batch of one: every edge entry
point nets its updates with :func:`~.types.net_updates` and then runs
the same phases as a pool flush — prepare the deletions on the pre-edit
graph, remove them, sync the index's own structures, repair; add the
insertions, sync, repair.

A node event takes the pool's one path too: the index's eligible sets
are brought up to the node's current verdicts, and the flips are
repaired by ``apply_eligibility_flip_batch``
(:meth:`StandaloneDriver._flip_verdicts`).  ``add_node`` and
``update_node_attrs`` run it for one node; an insertion batch runs it
for the endpoints it brings into the graph, whose verdicts enter the
sets before the insertion repair and whose gains are handed over after
it, as a pool flush does.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..graphs.digraph import Node
from ..matching.relation import MatchRelation
from ..matching.simulation import candidate_sets
from ..patterns.pattern import PatternNode
from .types import Update, delete, insert, net_updates

EdgeList = List[Tuple[Node, Node]]
# One node's flipped verdicts: (node, gained pattern nodes, lost ones).
FlipEvent = Tuple[Node, List[PatternNode], List[PatternNode]]


class StandaloneDriver:
    """Unit, batch and node entry points over an index's repair methods,
    and the lease and release of its eligible sets; mixed into each
    incremental index."""

    def _lease_eligible(self) -> MatchRelation:
        """The per-pattern-node eligible sets: with a pool's
        ``_eligibility`` substrate, one leased read-view per pattern-node
        predicate (pattern nodes with equal predicates alias one set);
        standalone, the index's own sets, evaluated from the
        predicates."""
        if self._eligibility is None:
            return candidate_sets(self.pattern, self.graph)
        return {
            u: self._eligibility.lease(self.pattern.predicate(u)).members
            for u in self.pattern.nodes()
        }

    def release(self) -> None:
        """Release the eligible-set leases (pool unregister); idempotent.

        A released index must not be repaired again: the substrate may
        drop its sets once the last lease is gone.
        """
        if self._eligibility is not None:
            for u in self.pattern.nodes():
                self._eligibility.release(self.pattern.predicate(u))
            self._eligibility = None

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
        self._refuse_leased()
        for upd in updates:
            self._drive([upd])

    def _refuse_leased(self) -> None:
        if self._eligibility is not None:
            raise RuntimeError(
                f"a shared-eligibility {type(self).__name__} is repaired "
                "by the pool that leases its eligible sets, not through "
                "the standalone entry points"
            )

    def _drive(self, updates: List[Update]) -> List[Update]:
        """Apply ``updates`` to the graph and repair; returns the net
        updates."""
        self._refuse_leased()
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
            fresh = dict.fromkeys(
                node
                for edge in inserted
                for node in edge
                if node not in self.graph
            )
            for v, w in inserted:
                self.graph.add_edge(v, w)
            flips = self._flip_verdicts(fresh)
            self._sync_own_structures([], inserted)
            self.repair_inserted_edges(inserted)
            if flips:
                self.apply_eligibility_flip_batch(flips)
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
        """Add ``v`` to the graph, or merge ``attrs`` into its
        attributes, and repair.

        The paper motivates incremental matching with users who "edit
        [their] profile": a predicate can start or stop holding, so ``v``
        may gain or lose eligibility per pattern node.  The flips of its
        verdicts are repaired by ``apply_eligibility_flip_batch`` as a
        batch of one event; a fresh node gains every pattern node whose
        predicate it satisfies.
        """
        self._refuse_leased()
        self.graph.add_node(v, **attrs)
        flips = self._flip_verdicts([v])
        if flips:
            self.apply_eligibility_flip_batch(flips)

    def update_node_attrs(self, v: Node, **attrs) -> None:
        """Change ``v``'s attributes and repair: :meth:`add_node`, which
        adds ``v`` first when it is not in the graph yet."""
        self.add_node(v, **attrs)

    def _flip_verdicts(self, nodes: Iterable[Node]) -> List[FlipEvent]:
        """Evaluate the predicates of ``nodes`` (already in the graph with
        their final attributes) against the index's eligible sets, move
        each node into the sets it gained and out of those it lost, and
        return one ``(node, gained, lost)`` event per node whose verdicts
        flipped — what the pool's eligibility substrate does for a leased
        index."""
        events: List[FlipEvent] = []
        for v in nodes:
            attrs = self.graph.attrs(v)
            gained: List[PatternNode] = []
            lost: List[PatternNode] = []
            for u in self.pattern.nodes():
                members = self.eligible[u]
                if self.pattern.predicate(u).satisfied_by(attrs):
                    if v not in members:
                        members.add(v)
                        gained.append(u)
                elif v in members:
                    members.remove(v)
                    lost.append(u)
            if gained or lost:
                events.append((v, gained, lost))
        return events
