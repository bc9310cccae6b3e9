"""Attributed directed graph — the data-graph substrate of the paper.

A data graph is ``G = (V, E, fA)`` (paper Section 2.1): a finite set of
nodes, a set of directed edges, and a function ``fA`` assigning each node a
tuple of attribute/value pairs.  This module provides a compact adjacency
representation with O(1) amortized edge insertion/deletion and O(1) parent
and child set access — the operations every algorithm in this repository is
built on.

Adjacency is stored as insertion-ordered ``dict`` keyed by neighbour (the
value is always ``None``): the ``.keys()`` views behave like sets for the
"is (v, v') an edge" and "iterate the parents of v" queries the incremental
algorithms of Sections 5 and 6 hammer, while iteration order is the edge
insertion order — deterministic across ``PYTHONHASHSEED``s, so fuzz seeds
and benchmark runs replay identically.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

Node = Hashable
Edge = Tuple[Node, Node]


class GraphError(Exception):
    """Raised for structurally invalid graph operations."""


class DiGraph:
    """A directed graph with per-node attribute tuples.

    Nodes may be any hashable value.  Attributes are stored as a plain
    ``dict`` per node (the paper's ``fA(v)`` tuple).  Parallel edges are not
    supported (the paper's model is a simple digraph); self-loops are
    allowed, since they matter for the "nonempty path" semantics of bounded
    simulation.

    .. warning:: **Attribute aliasing hazard.**  :meth:`attrs` returns the
       *live* attribute mapping: mutating it changes the graph without any
       observer — in particular a :class:`repro.engine.pool.MatcherPool` —
       seeing the change, so predicate eligibility is silently left stale.
       Engine and test code must route attribute writes through
       :meth:`set_attr` (direct graphs) or the pool's ``set_attr`` /
       ``add_node`` update events (pooled graphs); treat the mapping
       returned by :meth:`attrs` as read-only.
    """

    __slots__ = ("_succ", "_pred", "_attrs", "_num_edges")

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        attrs: Optional[Mapping[Node, Mapping[str, Any]]] = None,
    ) -> None:
        # Inner dicts are used as insertion-ordered sets (value always None).
        self._succ: Dict[Node, Dict[Node, None]] = {}
        self._pred: Dict[Node, Dict[Node, None]] = {}
        self._attrs: Dict[Node, Dict[str, Any]] = {}
        self._num_edges = 0
        if edges is not None:
            for v, w in edges:
                self.add_edge(v, w)
        if attrs is not None:
            for node, node_attrs in attrs.items():
                self.add_node(node, **dict(node_attrs))

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **attrs: Any) -> None:
        """Add ``node`` (idempotent) and merge ``attrs`` into its tuple."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._attrs[node] = {}
        if attrs:
            self._attrs[node].update(attrs)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} not in graph")
        for child in list(self._succ[node]):
            self.remove_edge(node, child)
        for parent in list(self._pred[node]):
            self.remove_edge(parent, node)
        del self._succ[node]
        del self._pred[node]
        del self._attrs[node]

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def nodes(self) -> Iterator[Node]:
        return iter(self._succ)

    def num_nodes(self) -> int:
        return len(self._succ)

    def __len__(self) -> int:
        return self.num_nodes()

    # ------------------------------------------------------------------
    # Attribute access (the paper's fA)
    # ------------------------------------------------------------------
    def attrs(self, node: Node) -> Mapping[str, Any]:
        """The attribute tuple ``fA(node)``.

        Returns the live mapping — treat it as **read-only** (see the class
        docstring for the aliasing hazard) and write through
        :meth:`set_attr` instead.
        """
        try:
            return self._attrs[node]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def get_attr(self, node: Node, name: str, default: Any = None) -> Any:
        return self.attrs(node).get(name, default)

    def set_attr(self, node: Node, name: str, value: Any) -> None:
        try:
            self._attrs[node][name] = value
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, v: Node, w: Node) -> bool:
        """Insert edge ``(v, w)``; returns False if it already existed.

        Endpoints are created on demand, matching the update model of
        Section 4 where an inserted edge may reference fresh nodes.
        """
        self.add_node(v)
        self.add_node(w)
        if w in self._succ[v]:
            return False
        self._succ[v][w] = None
        self._pred[w][v] = None
        self._num_edges += 1
        return True

    def remove_edge(self, v: Node, w: Node) -> bool:
        """Delete edge ``(v, w)``; returns False if it was absent."""
        succ = self._succ.get(v)
        if succ is None or w not in succ:
            return False
        del succ[w]
        del self._pred[w][v]
        self._num_edges -= 1
        return True

    def has_edge(self, v: Node, w: Node) -> bool:
        succ = self._succ.get(v)
        return succ is not None and w in succ

    def edges(self) -> Iterator[Edge]:
        """Edges in deterministic (node-insertion, edge-insertion) order."""
        for v, children in self._succ.items():
            for w in children:
                yield (v, w)

    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # Adjacency (the paper's Cr(u) / Pr(u))
    # ------------------------------------------------------------------
    def children(self, node: Node):
        """``Cr(node)``: direct successors as a set-like view.

        Iteration follows edge-insertion order.  Do not mutate the result.
        """
        try:
            return self._succ[node].keys()
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def parents(self, node: Node):
        """``Pr(node)``: direct predecessors as a set-like view.

        Iteration follows edge-insertion order.  Do not mutate the result.
        """
        try:
            return self._pred[node].keys()
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def out_degree(self, node: Node) -> int:
        return len(self.children(node))

    def in_degree(self, node: Node) -> int:
        return len(self.parents(node))

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        """A deep structural copy, built by bulk dict copies (no per-edge
        ``add_edge`` round trips)."""
        g = DiGraph.__new__(DiGraph)
        g._succ = {v: d.copy() for v, d in self._succ.items()}
        g._pred = {v: d.copy() for v, d in self._pred.items()}
        g._attrs = {n: a.copy() for n, a in self._attrs.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """The induced subgraph on ``nodes`` (attributes copied)."""
        keep = set(nodes)
        for node in keep:
            if node not in self._succ:
                raise GraphError(f"node {node!r} not in graph")
        g = DiGraph.__new__(DiGraph)
        # Preserve this graph's node order for determinism.
        order = [n for n in self._succ if n in keep]
        g._succ = {
            v: {w: None for w in self._succ[v] if w in keep} for v in order
        }
        g._pred = {
            v: {w: None for w in self._pred[v] if w in keep} for v in order
        }
        g._attrs = {n: self._attrs[n].copy() for n in order}
        g._num_edges = sum(len(d) for d in g._succ.values())
        return g

    def reverse(self) -> "DiGraph":
        """A copy with every edge flipped, built by swapping the bulk
        adjacency maps."""
        g = DiGraph.__new__(DiGraph)
        g._succ = {v: d.copy() for v, d in self._pred.items()}
        g._pred = {v: d.copy() for v, d in self._succ.items()}
        g._attrs = {n: a.copy() for n, a in self._attrs.items()}
        g._num_edges = self._num_edges
        return g

    def edge_set(self) -> FrozenSet[Edge]:
        return frozenset(self.edges())

    def __eq__(self, other: object) -> bool:
        # Same nodes, edges and attribute tuples; insertion order is
        # ignored.
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._num_edges == other._num_edges
            and self._succ == other._succ
            and self._attrs == other._attrs
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, identity hash
        return id(self)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_nodes()}, "
            f"|E|={self.num_edges()})"
        )
