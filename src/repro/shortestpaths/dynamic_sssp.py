"""Dynamic single-source shortest paths (Ramalingam & Reps 1996).

The paper's landmark maintenance (Section 6.4) "adopt[s] a variant of a
dynamic fixed point algorithm [Ramalingam and Reps 1996a]" to update
distance vectors.  This module is that substrate: it maintains hop
distances from a fixed source under edge insertions and deletions,
touching only the affected area.

- Insertion is a decrease-only relaxation cascade.  A source that was not
  in the graph when the column was built has no entry; the first inserted
  edge that touches it puts it at distance 0.
- Deletion runs the two-phase RR algorithm: (1) identify the affected set —
  nodes whose every tight in-edge comes from another affected node; (2)
  recompute the affected set with a Dijkstra seeded from its unaffected
  boundary.
- A mixed batch repairs its deletions first, on a graph that already holds
  its insertions, so phase 2 may settle an affected node *below* its old
  distance through a same-batch inserted edge.  Phase 2 relaxes only inside
  the affected set, so every node it lowers is handed to the insertion
  cascade, which carries the decrease to unaffected descendants.
  :meth:`DynamicSSSP.on_batch` is the one update entry point; a unit
  update is a batch of one edge.

A column may stop at a *horizon* ``H``: it then holds exactly the nodes
within ``H`` hops of its source, at their distances, and nothing past
them (``None``, the default, keeps the full column).  The build labels
level ``H`` without expanding it, the insertion cascade never relaxes
out of a node at ``H``, and deletion phase 2 settles nothing past ``H``,
so an affected node that the deletions lift past ``H`` is dropped like
an unreachable one.

A column keeps no distance map of its own.  It reads and writes its source's
entry in a node-major table ``table[v][source]`` holding finite distances
only: a :class:`~repro.landmarks.vector.LandmarkIndex` shares one table
among all its columns (the paper's per-node vector ``distvt``), and a
standalone column gets a private table.

All updates assume the underlying graph has **already been mutated**; the
class only repairs its distances.  ``stats.nodes_touched`` counts the work
done, which is how the experiments measure ``|AFF|``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node

INF = float("inf")

# Node-major distance table: ``table[v][source]`` is the finite distance of
# ``v`` in the column of ``source``; a missing entry means unreachable.
DistTable = Dict[Node, Dict[Node, int]]


class SSSPStats:
    """Work counters: the affected-area proxy used by the experiments."""

    __slots__ = ("nodes_touched", "edges_scanned")

    def __init__(self) -> None:
        self.nodes_touched = 0
        self.edges_scanned = 0

    def reset(self) -> None:
        self.nodes_touched = 0
        self.edges_scanned = 0


class DynamicSSSP:
    """Hop distances from ``source`` maintained under edge updates.

    ``table`` is the node-major table the column stores its entries in
    (shared by the columns of a landmark index); by default the column
    gets a private one.  ``horizon`` truncates the column at that many
    hops (see the module docstring).
    """

    def __init__(
        self,
        graph: DiGraph,
        source: Node,
        table: Optional[DistTable] = None,
        horizon: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self.source = source
        self.horizon = horizon
        self.stats = SSSPStats()
        self._table: DistTable = {} if table is None else table
        self._build()

    def _drop(self, v: Node) -> None:
        """Remove ``v``'s entry (it became unreachable)."""
        row = self._table[v]
        del row[self.source]
        if not row:
            del self._table[v]

    # -- queries ---------------------------------------------------------
    def dist(self, v: Node) -> float:
        """``v``'s distance; INF when unreachable or past the horizon."""
        row = self._table.get(v)
        return INF if row is None else row.get(self.source, INF)

    def distances(self) -> Dict[Node, int]:
        """Finite distances only; missing nodes are unreachable or past
        the horizon."""
        s = self.source
        return {v: row[s] for v, row in self._table.items() if s in row}

    # -- full build (the batch baseline) ---------------------------------
    def _build(self) -> None:
        """BFS level by level up to the horizon, writing each reached
        node's entry once; the last level is labelled but not expanded."""
        s = self.source
        if s not in self._graph:
            return
        table, out = self._table, self._graph.children
        table.setdefault(s, {})[s] = 0
        horizon = INF if self.horizon is None else self.horizon
        level = [s]
        d = 0
        while level and d < horizon:
            d += 1
            nxt = []
            for v in level:
                for w in out(v):
                    row = table.get(w)
                    if row is None:
                        table[w] = {s: d}
                    elif s not in row:
                        row[s] = d
                    else:
                        continue
                    nxt.append(w)
            level = nxt

    # -- deletion: two-phase Ramalingam-Reps ------------------------------
    def _repair(self, seeds: Iterable[Node]) -> Tuple[int, List[Node]]:
        """RR over the heads of deleted edges.  Returns the number of
        changed nodes and the affected nodes settled below their old
        distance (possible only through an edge the distances have not
        seen yet: a same-batch insertion)."""
        table, s = self._table, self.source
        graph = self._graph
        out, in_ = graph.children, graph.parents
        scanned = 0
        # Phase 1: identify the affected set.
        affected: Set[Node] = set()
        queue = deque(v for v in seeds if v in graph)
        while queue:
            v = queue.popleft()
            if v in affected:
                continue
            row = table.get(v)
            dv = None if row is None else row.get(s)
            if dv is None or v == s:
                continue  # unreachable already, or the source itself
            supported = False
            for p in in_(v):
                scanned += 1
                if p in affected:
                    continue
                rp = table.get(p)
                if rp is not None and rp.get(s) == dv - 1:
                    supported = True
                    break
            if supported:
                continue
            affected.add(v)
            for w in out(v):
                if w not in affected:
                    rw = table.get(w)
                    if rw is not None and rw.get(s) == dv + 1:
                        queue.append(w)
        self.stats.nodes_touched += len(affected)
        if not affected:
            self.stats.edges_scanned += scanned
            return 0, []
        # Phase 2: Dijkstra over the affected set, seeded from its
        # unaffected boundary.  Affected entries keep their old distance
        # until settled; the ones never settled became unreachable or
        # moved past the horizon.
        heap: List[Tuple[int, Node]] = []
        best: Dict[Node, int] = {}
        for v in affected:
            b = INF
            for p in in_(v):
                scanned += 1
                if p in affected:
                    continue
                rp = table.get(p)
                if rp is not None:
                    dp = rp.get(s)
                    if dp is not None and dp + 1 < b:
                        b = dp + 1
            if b != INF:
                best[v] = b
                heapq.heappush(heap, (b, v))
        settled: Set[Node] = set()
        lowered: List[Node] = []
        changed = 0
        horizon = INF if self.horizon is None else self.horizon
        while heap:
            d, v = heapq.heappop(heap)
            if d > horizon:
                break  # the rest settle past the horizon: dropped below
            if v in settled or best[v] != d:
                continue
            settled.add(v)
            row = table[v]
            if row[s] != d:
                changed += 1
                if d < row[s]:
                    lowered.append(v)
                row[s] = d
            for w in out(v):
                scanned += 1
                if w in affected and w not in settled:
                    if best.get(w, INF) > d + 1:
                        best[w] = d + 1
                        heapq.heappush(heap, (d + 1, w))
        self.stats.edges_scanned += scanned
        for v in affected - settled:
            self._drop(v)
            changed += 1
        return changed, lowered

    # -- batch updates -----------------------------------------------------
    def on_batch(
        self,
        inserted: Iterable[Tuple[Node, Node]] = (),
        deleted: Iterable[Tuple[Node, Node]] = (),
    ) -> int:
        """Repair after a mixed batch (graph already reflects all edits).

        Deletions are repaired together (one identify + one Dijkstra pass),
        then insertions run one combined decrease cascade — the batching
        that makes ``IncLM`` beat per-update ``InsLM + DelLM`` (Fig. 20(f)).
        The cascade also starts from every node the deletion pass lowered,
        and relaxes no edge out of a node at the horizon.
        """
        seeds = [y for _, y in deleted]
        changed, queue = self._repair(seeds) if seeds else (0, [])
        table, s, out = self._table, self.source, self._graph.children
        horizon = INF if self.horizon is None else self.horizon
        touched = 0
        for a, b in inserted:
            if (a == s or b == s) and s not in table.get(s, ()):
                table.setdefault(s, {})[s] = 0
            ra = table.get(a)
            da = None if ra is None else ra.get(s)
            if da is None or da >= horizon:
                continue
            rb = table.get(b)
            if rb is None:
                table[b] = {s: da + 1}
            elif rb.get(s, INF) > da + 1:
                rb[s] = da + 1
            else:
                continue
            touched += 1
            queue.append(b)
        # Combined decrease cascade, FIFO over every lowered node.
        scanned = 0
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            nd = table[v][s] + 1
            if nd > horizon:
                continue
            for w in out(v):
                scanned += 1
                rw = table.get(w)
                if rw is None:
                    table[w] = {s: nd}
                elif rw.get(s, INF) > nd:
                    rw[s] = nd
                else:
                    continue
                touched += 1
                queue.append(w)
        self.stats.nodes_touched += touched
        self.stats.edges_scanned += scanned
        return changed + touched
