"""All-pairs shortest path structures.

Paper Fig. 3 line 1 computes "the distance matrix X of G" via BFS from each
node; the remark at the end of Section 3 notes that weighted graphs can use
Floyd–Warshall instead.  Both are provided.  The matrix also records
*nonempty-path* self distances (shortest cycle lengths) because bounded
simulation maps a pattern edge to a path of length >= 1.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from .digraph import DiGraph, Node
from .traversal import bfs_distances

INF = float("inf")


class DistanceMatrix:
    """All-pairs nonempty-path distances, built by |V| BFS passes.

    ``dist(v, w)`` for ``v != w`` is the usual hop distance; ``dist(v, v)``
    is the shortest cycle through ``v`` (INF when acyclic at ``v``).

    The matrix can be maintained under updates: :meth:`apply_insert` runs a
    min-plus pass (O(|V|^2)), and :meth:`apply_deletions` re-BFSes the rows
    whose sources could reach a deleted edge — the maintenance profile of
    the ``IncBMatch_m`` baseline (Fan et al. 2010).
    """

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph
        self._rows: Dict[Node, Dict[Node, int]] = {}
        self._self: Dict[Node, float] = {}
        for v in graph.nodes():
            self._rows[v] = bfs_distances(graph, v)
        # Self distances need every row: the shortest cycle through v is
        # 1 + min over children of dist(child -> v).
        for v in graph.nodes():
            best: float = INF
            if graph.has_edge(v, v):
                best = 1
            else:
                for child in graph.children(v):
                    d = self._rows[child].get(v)
                    if d is not None and d + 1 < best:
                        best = d + 1
            self._self[v] = best

    def dist(self, v: Node, w: Node) -> float:
        """Shortest nonempty path length from v to w (INF if none)."""
        if v == w:
            return self._self.get(v, INF)
        row = self._rows.get(v)
        if row is None:
            return INF
        d = row.get(w)
        return INF if d is None else d

    def row(self, v: Node) -> Mapping[Node, int]:
        """Plain BFS distances from v (v itself maps to 0)."""
        return self._rows[v]

    def size_entries(self) -> int:
        """Number of finite entries stored (a space-cost proxy)."""
        return sum(len(r) for r in self._rows.values())

    def _refresh_self(self, v: Node) -> None:
        best: float = INF
        if self._graph.has_edge(v, v):
            best = 1
        else:
            for child in self._graph.children(v):
                d = self._rows.get(child, {}).get(v)
                if d is not None and d + 1 < best:
                    best = d + 1
        self._self[v] = best

    def apply_insert(self, x: Node, y: Node) -> None:
        """Min-plus repair after inserting (x, y) (graph already updated).

        Any improved distance decomposes as ``d_old(a, x) + 1 +
        d_old(y, c)`` (a shortest path uses the new edge at most once).
        """
        for v in (x, y):
            if v not in self._rows:
                self._rows[v] = bfs_distances(self._graph, v)
                self._refresh_self(v)
        row_y_old = dict(self._rows[y])
        for a, row in self._rows.items():
            dax = 0 if a == x else row.get(x)
            if dax is None:
                continue
            for c, dyc in row_y_old.items():
                alt = dax + 1 + dyc
                cur = row.get(c)
                if cur is None or alt < cur:
                    if c != a:
                        row[c] = alt
            # Shortest cycle through a may now route via (x, y).
            dya = 0 if a == y else row_y_old.get(a)
            if dya is not None and dax + 1 + dya < self._self.get(a, INF):
                self._self[a] = dax + 1 + dya

    def apply_deletions(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """Repair after deleting ``edges`` (graph already updated).

        Rows whose source could reach a deleted edge's tail are re-BFSed —
        the coarse-grained maintenance the matrix baseline pays for.  No
        other self distance can change: a cycle through a node that
        reaches no deleted tail used no deleted edge.
        """
        tails = {x for x, _ in edges}
        affected = [
            a
            for a, row in self._rows.items()
            if any(x == a or x in row for x in tails)
        ]
        for a in affected:
            self._rows[a] = bfs_distances(self._graph, a)
        for a in affected:
            self._refresh_self(a)


def floyd_warshall(
    graph: DiGraph,
    weight_attr: Optional[str] = None,
    edge_weights: Optional[Mapping[Tuple[Node, Node], float]] = None,
) -> Dict[Node, Dict[Node, float]]:
    """Floyd–Warshall all-pairs distances (supports weighted edges).

    ``edge_weights`` maps edges to nonnegative weights; missing edges (and
    a missing mapping entirely) default to weight 1.  Diagonal entries are
    the shortest *cycle* weights, preserving nonempty-path semantics.
    """
    nodes: List[Node] = list(graph.nodes())
    dist: Dict[Node, Dict[Node, float]] = {
        v: {w: INF for w in nodes} for v in nodes
    }
    for v, w in graph.edges():
        weight = 1.0
        if edge_weights is not None:
            weight = float(edge_weights.get((v, w), 1.0))
        if weight < 0:
            raise ValueError("edge weights must be nonnegative")
        if weight < dist[v][w]:
            dist[v][w] = weight
    for k in nodes:
        dk = dist[k]
        for i in nodes:
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in nodes:
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist
