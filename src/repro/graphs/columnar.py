"""Columnar graph backend: dense-id adjacency and interned attribute columns.

This module provides :class:`ColumnarDiGraph`, a drop-in second backend for
the :class:`repro.graphs.digraph.DiGraph` API.  Instead of dict-of-dicts
keyed by arbitrary hashable nodes, it stores the graph in *columns* indexed
by a dense integer id per node:

* :class:`NodeInterner` maps each hashable node to a small int (ids are
  recycled through a free list when nodes are removed, and
  :meth:`ColumnarDiGraph.compact` squeezes the id space back down);
* adjacency is a list of per-node id→None dicts (insertion-ordered id
  sets), so the hot "is (v,w) an edge" / "iterate children" operations hash
  small ints rather than strings or tuples;
* node attributes live in per-attribute *columns* (one Python list per
  attribute name, indexed by node id, with a ``MISSING`` sentinel), so
  ``Atom.satisfied_by`` ultimately reads an array slot and predicate sweeps
  scan a contiguous list instead of chasing per-node dicts.

Consumers written against the public ``DiGraph`` API — the incremental
matchers, ``SharedEligibilityIndex``, ``SharedDistanceSubstrate``,
``LandmarkIndex`` — run unchanged on either backend.  Id-space accessors
(:meth:`node_id`, :meth:`children_ids`, :meth:`parents_ids`,
:meth:`attr_column`) are exposed for structures that want to do their
bookkeeping in dense-int space; the traversal helpers in
``graphs/traversal.py`` reach the id-space BFS through duck-typed hooks.

The same attribute **aliasing hazard** documented on ``DiGraph`` applies
here: :meth:`ColumnarDiGraph.attrs` returns a live mapping view backed by
the columns; write through ``set_attr`` / pool update events instead.
"""

from __future__ import annotations

from collections import deque
from collections.abc import MutableMapping, Set as AbstractSet
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from . import kernels
from .digraph import DiGraph, Edge, GraphError, Node


class _Missing:
    """Sentinel for an unset attribute slot (``None`` is a legal value)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISSING>"


MISSING = _Missing()


class NodeInterner:
    """Bijection between hashable nodes and dense int ids.

    Ids are assigned in interning order and recycled via a free list, so the
    id space stays within ``O(max live nodes)`` between compactions.  The
    ``_nodes`` list is the inverse mapping (``_nodes[id] is MISSING`` marks
    a freed slot).
    """

    __slots__ = ("_ids", "_nodes", "_free")

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        self._nodes: List[Any] = []
        self._free: List[int] = []

    def intern(self, node: Node) -> int:
        """Return the id for ``node``, assigning one if needed."""
        i = self._ids.get(node)
        if i is None:
            if self._free:
                i = self._free.pop()
                self._nodes[i] = node
            else:
                i = len(self._nodes)
                self._nodes.append(node)
            self._ids[node] = i
        return i

    def get(self, node: Node) -> Optional[int]:
        """The id for ``node``, or ``None`` if not interned."""
        return self._ids.get(node)

    def node_of(self, node_id: int) -> Node:
        node = self._nodes[node_id]
        if node is MISSING:
            raise KeyError(node_id)
        return node

    def release(self, node: Node) -> int:
        """Free ``node``'s id for reuse; returns the released id."""
        i = self._ids.pop(node)
        self._nodes[i] = MISSING
        self._free.append(i)
        return i

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node: Node) -> bool:
        return node in self._ids

    def capacity(self) -> int:
        """Size of the id space including freed slots."""
        return len(self._nodes)

    def free_count(self) -> int:
        return len(self._free)

    def copy(self) -> "NodeInterner":
        other = NodeInterner.__new__(NodeInterner)
        other._ids = self._ids.copy()
        other._nodes = list(self._nodes)
        other._free = list(self._free)
        return other


class _NeighborView(AbstractSet):
    """Set-like live view over a per-node id-set, yielding node objects."""

    __slots__ = ("_graph", "_ids")

    def __init__(self, graph: "ColumnarDiGraph", ids: Dict[int, None]):
        self._graph = graph
        self._ids = ids

    def __contains__(self, node: object) -> bool:
        i = self._graph._interner._ids.get(node)
        return i is not None and i in self._ids

    def __iter__(self) -> Iterator[Node]:
        nodes = self._graph._interner._nodes
        return (nodes[i] for i in self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    @classmethod
    def _from_iterable(cls, it: Iterable[Node]):
        # Set-algebra results (view | other, view & other, ...) are plain sets.
        return set(it)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{{{', '.join(map(repr, self))}}}"


class _AttrRow(MutableMapping):
    """Live mapping view of one node's attribute row across all columns.

    ``row[name]`` is two lookups: the column dict, then a list index — this
    is the "array slot" read that ``Atom.satisfied_by`` bottoms out in.
    Mutating the row writes the column (the same aliasing hazard as the
    dict backend's live attr dict; prefer ``set_attr``).
    """

    __slots__ = ("_graph", "_id")

    def __init__(self, graph: "ColumnarDiGraph", node_id: int):
        self._graph = graph
        self._id = node_id

    def __getitem__(self, name: str) -> Any:
        col = self._graph._cols.get(name)
        if col is None:
            raise KeyError(name)
        value = col[self._id]
        if value is MISSING:
            raise KeyError(name)
        return value

    def __setitem__(self, name: str, value: Any) -> None:
        self._graph._set_attr_id(self._id, name, value)

    def __delitem__(self, name: str) -> None:
        col = self._graph._cols.get(name)
        if col is None or col[self._id] is MISSING:
            raise KeyError(name)
        col[self._id] = MISSING
        self._graph._attr_ver += 1

    def __iter__(self) -> Iterator[str]:
        i = self._id
        for name, col in self._graph._cols.items():
            if col[i] is not MISSING:
                yield name

    def __len__(self) -> int:
        i = self._id
        return sum(1 for col in self._graph._cols.values() if col[i] is not MISSING)

    def __contains__(self, name: object) -> bool:
        col = self._graph._cols.get(name)
        return col is not None and col[self._id] is not MISSING

    # ``MutableMapping`` defaults route ``get`` through a try/except
    # ``__getitem__`` and ``items`` through an ABC view that re-keys every
    # entry; both sit on router/predicate hot paths, so read the columns
    # directly instead.
    def get(self, name: str, default: Any = None) -> Any:
        col = self._graph._cols.get(name)
        if col is None:
            return default
        value = col[self._id]
        return default if value is MISSING else value

    def items(self):
        i = self._id
        return [
            (name, col[i])
            for name, col in self._graph._cols.items()
            if col[i] is not MISSING
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self))


class IdLease(object):
    """Token registering externally-held id-space state with a graph.

    Structures that cache dense node ids across calls (an id-keyed
    distance table, a closure over ``attr_column`` slots, ...) must hold a
    lease while those ids are live: :meth:`ColumnarDiGraph.compact`
    renumbers the id space, and a lease is how the graph knows someone
    would be broken by that.  A lease created with an ``on_remap``
    callback gets the old→new id map applied to it (the callback runs
    after the rewrite, so id-space accessors already answer in new ids);
    a lease without one makes ``compact()`` raise :class:`GraphError`
    instead of silently invalidating the holder.  Call :meth:`release`
    when the cached ids are dropped.
    """

    __slots__ = ("_graph", "_on_remap", "_released")

    def __init__(
        self,
        graph: "ColumnarDiGraph",
        on_remap: Optional[Any] = None,
    ) -> None:
        self._graph = graph
        self._on_remap = on_remap
        self._released = False

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Drop the lease; compaction no longer considers it."""
        if self._released:
            raise GraphError("id lease already released")
        self._released = True
        self._graph._leases.remove(self)


class ColumnarDiGraph(DiGraph):
    """Columnar implementation of the :class:`DiGraph` API.

    See the module docstring for the storage layout.  All inherited generic
    helpers (``__eq__``, degrees, ``edge_set``, ``__repr__``) work through
    the overridden primitives, so instances interoperate — and compare
    equal — with dict-backed ``DiGraph`` instances.
    """

    __slots__ = (
        "_interner",
        "_osucc",
        "_opred",
        "_cols",
        "_adj_ver",
        "_attr_ver",
        "_csr_cache",
        "_col_cache",
        "_ids_cache",
        "_leases",
    )

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        attrs: Optional[Mapping[Node, Mapping[str, Any]]] = None,
    ) -> None:
        self._interner = NodeInterner()
        # Indexed by node id; None marks a freed slot.
        self._osucc: List[Optional[Dict[int, None]]] = []
        self._opred: List[Optional[Dict[int, None]]] = []
        # Attribute name -> column list (len == interner capacity).
        self._cols: Dict[str, List[Any]] = {}
        self._num_edges = 0
        # Monotonic versions keying the lazy numpy snapshots below: the
        # adjacency version moves on any edge / node-set change, the attr
        # version on any column write (including node-set changes, which
        # resize columns).
        self._adj_ver = 0
        self._attr_ver = 0
        self._csr_cache: Dict[str, Tuple[int, Any, Any]] = {}
        self._col_cache: Dict[str, Tuple[int, Any]] = {}
        self._ids_cache: Optional[Tuple[int, Any]] = None
        self._leases: List[IdLease] = []
        if edges is not None:
            for v, w in edges:
                self.add_edge(v, w)
        if attrs is not None:
            for node, node_attrs in attrs.items():
                self.add_node(node, **dict(node_attrs))

    @classmethod
    def backend_name(cls) -> str:
        return "columnar"

    # ------------------------------------------------------------------
    # Internal id plumbing
    # ------------------------------------------------------------------
    def _intern(self, node: Node) -> int:
        interner = self._interner
        i = interner._ids.get(node)
        if i is not None:
            return i
        i = interner.intern(node)
        if i == len(self._osucc):
            self._osucc.append({})
            self._opred.append({})
            for col in self._cols.values():
                col.append(MISSING)
        else:
            # Recycled slot: adjacency was cleared and columns reset to
            # MISSING when the previous occupant was removed.
            self._osucc[i] = {}
            self._opred[i] = {}
        self._adj_ver += 1
        self._attr_ver += 1
        return i

    def _require(self, node: Node) -> int:
        i = self._interner._ids.get(node)
        if i is None:
            raise GraphError(f"node {node!r} not in graph")
        return i

    def _set_attr_id(self, node_id: int, name: str, value: Any) -> None:
        col = self._cols.get(name)
        if col is None:
            col = [MISSING] * len(self._osucc)
            self._cols[name] = col
        col[node_id] = value
        self._attr_ver += 1

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **attrs: Any) -> None:
        i = self._intern(node)
        if attrs:
            for name, value in attrs.items():
                self._set_attr_id(i, name, value)

    def remove_node(self, node: Node) -> None:
        i = self._interner._ids.get(node)
        if i is None:
            raise GraphError(f"node {node!r} not in graph")
        osucc = self._osucc
        opred = self._opred
        succ = osucc[i]
        pred = opred[i]
        self._num_edges -= len(succ) + len(pred)
        if i in succ and i in pred:
            self._num_edges += 1  # a self-loop was counted twice above
        for iw in succ:
            if iw != i:
                del opred[iw][i]
        for ip in pred:
            if ip != i:
                del osucc[ip][i]
        osucc[i] = None
        opred[i] = None
        for col in self._cols.values():
            col[i] = MISSING
        self._interner.release(node)
        self._adj_ver += 1
        self._attr_ver += 1

    def has_node(self, node: Node) -> bool:
        return node in self._interner._ids

    def nodes(self) -> Iterator[Node]:
        return iter(self._interner._ids)

    def num_nodes(self) -> int:
        return len(self._interner._ids)

    # ------------------------------------------------------------------
    # Attribute access
    # ------------------------------------------------------------------
    def attrs(self, node: Node) -> Mapping[str, Any]:
        """Live mapping view of ``fA(node)`` backed by the attribute
        columns.  Treat as read-only; write through :meth:`set_attr`."""
        return _AttrRow(self, self._require(node))

    def get_attr(self, node: Node, name: str, default: Any = None) -> Any:
        i = self._require(node)
        col = self._cols.get(name)
        if col is None:
            return default
        value = col[i]
        return default if value is MISSING else value

    def set_attr(self, node: Node, name: str, value: Any) -> None:
        self._set_attr_id(self._require(node), name, value)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, v: Node, w: Node) -> bool:
        iv = self._intern(v)
        iw = self._intern(w)
        succ = self._osucc[iv]
        if iw in succ:
            return False
        succ[iw] = None
        self._opred[iw][iv] = None
        self._num_edges += 1
        self._adj_ver += 1
        return True

    def remove_edge(self, v: Node, w: Node) -> bool:
        ids = self._interner._ids
        iv = ids.get(v)
        iw = ids.get(w)
        if iv is None or iw is None:
            return False
        succ = self._osucc[iv]
        if iw not in succ:
            return False
        del succ[iw]
        del self._opred[iw][iv]
        self._num_edges -= 1
        self._adj_ver += 1
        return True

    def has_edge(self, v: Node, w: Node) -> bool:
        ids = self._interner._ids
        iv = ids.get(v)
        iw = ids.get(w)
        return iv is not None and iw is not None and iw in self._osucc[iv]

    def edges(self) -> Iterator[Edge]:
        """Edges in deterministic (interning, edge-insertion) order."""
        nodes = self._interner._nodes
        osucc = self._osucc
        for v, iv in self._interner._ids.items():
            for iw in osucc[iv]:
                yield (v, nodes[iw])

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def children(self, node: Node):
        return _NeighborView(self, self._osucc[self._require(node)])

    def parents(self, node: Node):
        return _NeighborView(self, self._opred[self._require(node)])

    def out_degree(self, node: Node) -> int:
        return len(self._osucc[self._require(node)])

    def in_degree(self, node: Node) -> int:
        return len(self._opred[self._require(node)])

    # ------------------------------------------------------------------
    # numpy kernel snapshots (lazy, version-keyed; see graphs/kernels.py)
    # ------------------------------------------------------------------
    def _csr_arrays(self, reverse: bool = False) -> Tuple[Any, Any]:
        """CSR ``(indptr, indices)`` snapshot of the adjacency, rebuilt
        lazily when the adjacency version moved since the cached build.
        Only called on the numpy path."""
        key = "r" if reverse else "f"
        cached = self._csr_cache.get(key)
        if cached is not None and cached[0] == self._adj_ver:
            return cached[1], cached[2]
        rows = self._opred if reverse else self._osucc
        indptr, indices = kernels.build_csr(rows)
        self._csr_cache[key] = (self._adj_ver, indptr, indices)
        return indptr, indices

    def _column_snapshot(self, name: str):
        """Typed snapshot of one attr column (or ``None`` when the column
        does not exist), rebuilt lazily on the attr version."""
        col = self._cols.get(name)
        if col is None:
            return None
        cached = self._col_cache.get(name)
        if cached is not None and cached[0] == self._attr_ver:
            return cached[1]
        snap = kernels.make_column_snapshot(col, MISSING)
        self._col_cache[name] = (self._attr_ver, snap)
        return snap

    def _live_ids_array(self):
        """Live slot ids in interning order as an int64 array."""
        cached = self._ids_cache
        if cached is not None and cached[0] == self._adj_ver:
            return cached[1]
        ids = self._interner._ids
        arr = kernels.np.fromiter(
            ids.values(), dtype=kernels.np.int64, count=len(ids)
        )
        self._ids_cache = (self._adj_ver, arr)
        return arr

    def _bulk_atom_verdicts(
        self, name: str, op: str, value: Any, nodes: List[Node]
    ) -> Optional[List[bool]]:
        """Vectorized ``Atom`` verdicts over ``nodes`` (all must be live).

        Returns ``None`` to decline — kernels inactive, or the typed
        column cannot represent this (op, value) exactly — in which case
        the caller runs the per-node ``satisfied_by`` twin.
        """
        if not kernels.use_numpy():
            return None
        snap = self._column_snapshot(name)
        if snap is None:
            # No node carries this attribute: every verdict is False
            # (a missing attribute fails every op, including ``!=``).
            return [False] * len(nodes)
        ids = self._interner._ids
        id_arr = kernels.np.fromiter(
            (ids[v] for v in nodes), dtype=kernels.np.int64, count=len(nodes)
        )
        mask = kernels.atom_mask(snap, id_arr, op, value)
        if mask is None:
            return None
        return mask.tolist()

    def _atom_sweep_members(
        self, name: str, op: str, value: Any
    ) -> Optional[Set[Node]]:
        """Vectorized full-graph atom sweep → member set, or ``None`` to
        decline (same contract as :meth:`_bulk_atom_verdicts`)."""
        if not kernels.use_numpy():
            return None
        snap = self._column_snapshot(name)
        if snap is None:
            return set()
        id_arr = self._live_ids_array()
        mask = kernels.atom_mask(snap, id_arr, op, value)
        if mask is None:
            return None
        nodes = self._interner._nodes
        return {nodes[i] for i in id_arr[mask].tolist()}

    # ------------------------------------------------------------------
    # Id-space traversal fast paths (duck-typed hooks for traversal.py)
    # ------------------------------------------------------------------
    def _bfs_distances(
        self,
        source: Node,
        max_depth: Optional[int] = None,
        reverse: bool = False,
    ) -> Dict[Node, int]:
        """BFS entirely in id space: int-keyed frontier dicts and direct
        list-indexed adjacency, translating back to nodes only once at the
        end.  Same contract as :func:`repro.graphs.traversal.bfs_distances`.

        Unbounded sweeps dispatch to the vectorized CSR kernel when the
        numpy kernels are active; bounded balls stay on the dict twin
        (small frontiers lose to snapshot overhead).
        """
        sid = self._interner._ids.get(source)
        if sid is None:
            raise GraphError(f"node {source!r} not in graph")
        if max_depth is None and kernels.use_numpy():
            indptr, indices = self._csr_arrays(reverse)
            dist = kernels.bfs_distances_csr(indptr, indices, [sid])
            nodes = self._interner._nodes
            reached = kernels.np.flatnonzero(dist >= 0)
            return {
                nodes[i]: d
                for i, d in zip(reached.tolist(), dist[reached].tolist())
            }
        adj = self._opred if reverse else self._osucc
        dist: Dict[int, int] = {sid: 0}
        queue = deque([sid])
        while queue:
            i = queue.popleft()
            d = dist[i]
            if max_depth is not None and d >= max_depth:
                continue
            for j in adj[i]:
                if j not in dist:
                    dist[j] = d + 1
                    queue.append(j)
        nodes = self._interner._nodes
        return {nodes[i]: d for i, d in dist.items()}

    def _reachable_set(
        self, sources: Iterable[Node], reverse: bool = False
    ) -> Set[Node]:
        """Id-space closure; same contract as
        :func:`repro.graphs.traversal.reachable_set`.  Dispatches to the
        vectorized CSR kernel when the numpy kernels are active."""
        ids = self._interner._ids
        if kernels.use_numpy():
            seeds = [i for i in (ids.get(s) for s in sources) if i is not None]
            if not seeds:
                return set()
            indptr, indices = self._csr_arrays(reverse)
            reached = kernels.reachable_csr(indptr, indices, seeds)
            nodes = self._interner._nodes
            return {nodes[i] for i in reached.tolist()}
        adj = self._opred if reverse else self._osucc
        seen: Set[int] = set()
        queue = deque()
        for s in sources:
            i = ids.get(s)
            if i is not None and i not in seen:
                seen.add(i)
                queue.append(i)
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        nodes = self._interner._nodes
        return {nodes[i] for i in seen}

    def _ball_within(
        self, anchor: Node, k: Optional[int], reverse: bool
    ) -> Dict[Node, int]:
        """Id-space hook for :func:`repro.graphs.traversal.descendants_within`
        and :func:`~repro.graphs.traversal.ancestors_within`: one BFS
        serves both the hop distances *and* the shortest cycle through
        ``anchor``, ``dist(anchor, p) + 1`` minimized over the anchor's
        in-neighbours ``p`` (or out-neighbours, for the reverse ball), all
        of which the frontier already labelled.
        """
        sid = self._interner._ids.get(anchor)
        if sid is None:
            raise GraphError(f"node {anchor!r} not in graph")
        adj = self._opred if reverse else self._osucc
        dist: Dict[int, int] = {sid: 0}
        queue = deque([sid])
        while queue:
            i = queue.popleft()
            d = dist[i]
            if k is not None and d >= k:
                continue
            for j in adj[i]:
                if j not in dist:
                    dist[j] = d + 1
                    queue.append(j)
        # Close the cycle: one hop back into the anchor from any labelled
        # node that has an edge to it (its parents in the BFS direction).
        back = self._osucc if reverse else self._opred
        best: Optional[int] = None
        for p in back[sid]:
            d = dist.get(p)
            if d is not None and (best is None or d + 1 < best):
                best = d + 1
        nodes = self._interner._nodes
        out = {nodes[i]: d for i, d in dist.items() if i != sid}
        if best is not None and (k is None or best <= k):
            out[nodes[sid]] = best
        return out

    def _within_probe(
        self, source: Node, k: Optional[int], stats=None
    ) -> "_IdWithinProbe":
        """Id-space hook for :func:`repro.graphs.traversal.within_probe`."""
        sid = self._interner._ids.get(source)
        if sid is None:
            raise GraphError(f"node {source!r} not in graph")
        return _IdWithinProbe(self, sid, k, stats)

    def _shortest_cycle_through(
        self, node: Node, max_len: Optional[int] = None
    ) -> Optional[int]:
        """Id-space hook for :func:`repro.graphs.traversal.shortest_cycle_through`."""
        sid = self._interner._ids.get(node)
        if sid is None:
            raise GraphError(f"node {node!r} not in graph")
        succ = self._osucc[sid]
        if sid in succ:
            return 1
        limit = None if max_len is None else max_len - 1
        dist: Dict[int, int] = {sid: 0}
        queue = deque([sid])
        while queue:
            i = queue.popleft()
            d = dist[i]
            if limit is not None and d >= limit:
                continue
            for j in self._osucc[i]:
                if j not in dist:
                    dist[j] = d + 1
                    queue.append(j)
        best: Optional[int] = None
        for p in self._opred[sid]:
            d = dist.get(p)
            if d is None:
                continue
            length = d + 1
            if max_len is not None and length > max_len:
                continue
            if best is None or length < best:
                best = length
        return best

    def _scc_components_ids(self) -> List[List[int]]:
        """Iterative Tarjan over slot ids, sinks first.

        Mirrors :func:`repro.graphs.scc.strongly_connected_components` but
        keeps index/lowlink in capacity-sized lists and walks ``_osucc``
        rows directly — no per-node view objects, no node-object hashing.
        Free slots (``_osucc[i] is None``) are skipped.
        """
        osucc = self._osucc
        cap = len(osucc)
        index = [-1] * cap
        lowlink = [0] * cap
        on_stack = bytearray(cap)
        stack: List[int] = []
        comps: List[List[int]] = []
        counter = 0
        for root in range(cap):
            if osucc[root] is None or index[root] != -1:
                continue
            work: List[Tuple[int, List[int]]] = [(root, list(osucc[root]))]
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = 1
            while work:
                v, children = work[-1]
                advanced = False
                while children:
                    w = children.pop()
                    if index[w] == -1:
                        index[w] = lowlink[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = 1
                        work.append((w, list(osucc[w])))
                        advanced = True
                        break
                    if on_stack[w] and index[w] < lowlink[v]:
                        lowlink[v] = index[w]
                if advanced:
                    continue
                work.pop()
                if work:
                    p = work[-1][0]
                    if lowlink[v] < lowlink[p]:
                        lowlink[p] = lowlink[v]
                if lowlink[v] == index[v]:
                    comp: List[int] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
        return comps

    def _scc_components(self) -> List[List[Node]]:
        """Id-space hook for :func:`repro.graphs.scc.strongly_connected_components`."""
        nodes = self._interner._nodes
        return [[nodes[i] for i in comp] for comp in self._scc_components_ids()]

    def _condensation(self) -> Tuple["DiGraph", Dict[Node, int]]:
        """Id-space hook for :func:`repro.graphs.scc.condensation`.

        Builds the component DAG straight from the ``_osucc`` rows (int
        pairs, deduped before touching the DAG) and translates nodes to
        component indices in a single pass at the end.
        """
        comps = self._scc_components_ids()
        cap = len(self._osucc)
        comp_of_id = [0] * cap
        for ci, comp in enumerate(comps):
            for i in comp:
                comp_of_id[i] = ci
        dag = DiGraph()
        for ci in range(len(comps)):
            dag.add_node(ci)
        seen_cross: Set[Tuple[int, int]] = set()
        for i, adj in enumerate(self._osucc):
            if adj is None:
                continue
            ci = comp_of_id[i]
            for j in adj:
                cj = comp_of_id[j]
                if ci != cj and (ci, cj) not in seen_cross:
                    seen_cross.add((ci, cj))
                    dag.add_edge(ci, cj)
        nodes = self._interner._nodes
        comp_of: Dict[Node, int] = {}
        for ci, comp in enumerate(comps):
            for i in comp:
                comp_of[nodes[i]] = ci
        return dag, comp_of

    # ------------------------------------------------------------------
    # Id-space accessors (for structures doing dense-int bookkeeping)
    # ------------------------------------------------------------------
    @property
    def interner(self) -> NodeInterner:
        return self._interner

    def node_id(self, node: Node) -> Optional[int]:
        """Dense id of ``node``, or ``None`` if absent."""
        return self._interner._ids.get(node)

    def node_of(self, node_id: int) -> Node:
        return self._interner.node_of(node_id)

    def node_ids(self) -> Iterator[int]:
        return iter(self._interner._ids.values())

    def children_ids(self, node_id: int) -> Dict[int, None]:
        """Successor id-set of ``node_id``.  Do not mutate."""
        succ = self._osucc[node_id]
        if succ is None:
            raise GraphError(f"node id {node_id} not live")
        return succ

    def parents_ids(self, node_id: int) -> Dict[int, None]:
        """Predecessor id-set of ``node_id``.  Do not mutate."""
        pred = self._opred[node_id]
        if pred is None:
            raise GraphError(f"node id {node_id} not live")
        return pred

    def attr_column(self, name: str) -> Optional[List[Any]]:
        """The raw column for ``name`` (``MISSING``-padded), or ``None``.

        Indexed by node id; freed slots hold ``MISSING``.  Do not mutate.
        """
        return self._cols.get(name)

    # ------------------------------------------------------------------
    # Free-list compaction
    # ------------------------------------------------------------------
    def free_slot_count(self) -> int:
        return self._interner.free_count()

    def lease_ids(self, on_remap: Optional[Any] = None) -> IdLease:
        """Register externally-held id-space state with this graph.

        While the returned :class:`IdLease` is live, :meth:`compact` will
        call ``on_remap(old_to_new)`` after renumbering — or raise
        :class:`GraphError` before touching anything if the lease has no
        remap listener.  Structures caching dense ids across calls must
        hold one (and :meth:`IdLease.release` it when done); ids read
        without a lease are only valid until the next compaction.
        """
        lease = IdLease(self, on_remap)
        self._leases.append(lease)
        return lease

    def compact(self) -> Dict[int, int]:
        """Squeeze freed slots out of the id space.

        Live nodes are renumbered ``0..n-1`` in interning order; adjacency
        and columns are rewritten in place.  Returns the old→new id map
        (empty when nothing moved).

        Externally-held ids become stale: every live :class:`IdLease`
        with a remap listener has the map applied to it after the
        rewrite, and a live lease *without* one makes this raise
        :class:`GraphError` (before any mutation) rather than silently
        hand the holder wrong slots.
        """
        interner = self._interner
        if not interner._free:
            return {}
        for lease in self._leases:
            if lease._on_remap is None:
                raise GraphError(
                    "compact() would invalidate a live id lease with no "
                    "remap listener; release the lease first"
                )
        remap: Dict[int, int] = {}
        new_nodes: List[Any] = []
        for node, old in interner._ids.items():
            remap[old] = len(new_nodes)
            new_nodes.append(node)
        self._osucc = [
            {remap[iw]: None for iw in self._osucc[old]} for old in remap
        ]
        self._opred = [
            {remap[iw]: None for iw in self._opred[old]} for old in remap
        ]
        self._cols = {
            name: [col[old] for old in remap] for name, col in self._cols.items()
        }
        interner._ids = {node: remap[old] for node, old in interner._ids.items()}
        interner._nodes = new_nodes
        interner._free = []
        # Every id-keyed snapshot is now wrong: move both versions.
        self._adj_ver += 1
        self._attr_ver += 1
        for lease in list(self._leases):
            lease._on_remap(remap)
        return remap

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def _fresh_caches(self) -> None:
        """Initialize the version/cache/lease slots on a ``__new__`` twin
        (caches and leases never transfer to copies)."""
        self._adj_ver = 0
        self._attr_ver = 0
        self._csr_cache = {}
        self._col_cache = {}
        self._ids_cache = None
        self._leases = []

    def copy(self) -> "ColumnarDiGraph":
        g = ColumnarDiGraph.__new__(ColumnarDiGraph)
        g._interner = self._interner.copy()
        g._osucc = [d.copy() if d is not None else None for d in self._osucc]
        g._opred = [d.copy() if d is not None else None for d in self._opred]
        g._cols = {name: list(col) for name, col in self._cols.items()}
        g._num_edges = self._num_edges
        g._fresh_caches()
        return g

    def reverse(self) -> "ColumnarDiGraph":
        g = ColumnarDiGraph.__new__(ColumnarDiGraph)
        g._interner = self._interner.copy()
        g._osucc = [d.copy() if d is not None else None for d in self._opred]
        g._opred = [d.copy() if d is not None else None for d in self._osucc]
        g._cols = {name: list(col) for name, col in self._cols.items()}
        g._num_edges = self._num_edges
        g._fresh_caches()
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "ColumnarDiGraph":
        keep_ids = set()
        for node in nodes:
            keep_ids.add(self._require(node))
        g = ColumnarDiGraph.__new__(ColumnarDiGraph)
        g._interner = NodeInterner()
        g._osucc = []
        g._opred = []
        g._cols = {}
        g._num_edges = 0
        g._fresh_caches()
        remap: Dict[int, int] = {}
        # Intern in this graph's order for determinism.
        for node, old in self._interner._ids.items():
            if old in keep_ids:
                remap[old] = g._intern(node)
        for name, col in self._cols.items():
            new_col = [MISSING] * len(g._osucc)
            populated = False
            for old, new in remap.items():
                value = col[old]
                if value is not MISSING:
                    new_col[new] = value
                    populated = True
            if populated:
                g._cols[name] = new_col
        for old, new in remap.items():
            succ = g._osucc[new]
            for iw in self._osucc[old]:
                tw = remap.get(iw)
                if tw is not None:
                    succ[tw] = None
                    g._opred[tw][new] = None
            g._num_edges += len(succ)
        return g


class _IdWithinProbe:
    """Id-space twin of :class:`repro.graphs.traversal.WithinProbe`: the
    same lazily expanded depth-``k - 1`` BFS and last hop over the dense
    adjacency rows, translating only the asked target to its id."""

    __slots__ = (
        "_ids", "_osucc", "_opred", "_sid", "_last", "_dist", "_queue",
        "_cycle", "_stats",
    )

    def __init__(
        self, graph: ColumnarDiGraph, sid: int, k: Optional[int], stats=None
    ) -> None:
        self._ids = graph._interner._ids
        self._osucc = graph._osucc
        self._opred = graph._opred
        self._sid = sid
        self._last = None if k is None else k - 1
        self._dist: Dict[int, int] = {sid: 0}
        self._queue = deque([sid] if self._last != 0 else ())
        self._cycle = False
        self._stats = stats
        if stats is not None:
            stats.probe_nodes += 1

    def reaches(self, c: Node) -> bool:
        """Same contract as
        :meth:`repro.graphs.traversal.WithinProbe.reaches`."""
        cid = self._ids.get(c)
        if cid is None:
            return False
        dist = self._dist
        if cid == self._sid:
            if self._cycle or self._expand(cid, True):
                return True
        elif cid in dist or self._expand(cid, False):
            return True
        return not self._opred[cid].keys().isdisjoint(dist.keys())

    def _expand(self, cid: int, is_source: bool) -> bool:
        dist = self._dist
        queue = self._queue
        sid = self._sid
        osucc = self._osucc
        last = self._last
        before = len(dist)
        found = False
        while queue:
            i = queue.popleft()
            d = dist[i] + 1
            for j in osucc[i]:
                if j not in dist:
                    dist[j] = d
                    if d != last:
                        queue.append(j)
                elif j == sid:
                    self._cycle = True
            if self._cycle if is_source else cid in dist:
                found = True
                break
        if self._stats is not None:
            self._stats.probe_nodes += len(dist) - before
        return found


def as_backend(graph: DiGraph, backend: str) -> DiGraph:
    """Return ``graph`` converted to the requested backend.

    ``backend`` is ``"dict"`` (plain :class:`DiGraph`) or ``"columnar"``.
    If the graph is already the requested backend it is returned as-is
    (no copy).  Conversion bulk-loads nodes, attributes, and edges in the
    source graph's deterministic iteration order.
    """
    if backend == "columnar":
        if isinstance(graph, ColumnarDiGraph):
            return graph
        out: DiGraph = ColumnarDiGraph()
    elif backend == "dict":
        if type(graph) is DiGraph:
            return graph
        out = DiGraph()
    else:
        raise ValueError(f"unknown graph backend: {backend!r}")
    for node in graph.nodes():
        out.add_node(node, **dict(graph.attrs(node)))
    for v, w in graph.edges():
        out.add_edge(v, w)
    return out
