"""Strongly connected components, condensation and topological ranks.

Used in three places in the paper:

- ``IncMatch+`` visits the condensation of the *pattern* sinks first, and
  its ``propCC`` refines each nontrivial SCC over the backward closure of
  that SCC's dirty candidates (Fig. 9);
- ``minDelta`` orders updates with *topological ranks* over the SCC graph
  (Section 5.2, extending simulation ranks of Gentilini et al.);
- the unboundedness constructions reason about cycles.

Tarjan's algorithm is implemented iteratively so that deep graphs do not hit
Python's recursion limit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .digraph import DiGraph, Node

INF = float("inf")


def strongly_connected_components(graph: DiGraph) -> List[List[Node]]:
    """Tarjan SCCs in reverse topological order (sinks first)."""
    # Dense-id backends (graphs/columnar.py) run Tarjan over slot ids with
    # array bookkeeping instead of node-keyed dicts.
    fast = getattr(graph, "_scc_components", None)
    if fast is not None:
        return fast()
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    result: List[List[Node]] = []
    counter = 0

    for root in list(graph.nodes()):
        if root in index:
            continue
        # Iterative Tarjan: work items are (node, iterator over children).
        work: List[Tuple[Node, List[Node]]] = [(root, list(graph.children(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, children = work[-1]
            advanced = False
            while children:
                w = children.pop()
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, list(graph.children(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp: List[Node] = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                result.append(comp)
    return result


def condensation(graph: DiGraph) -> Tuple[DiGraph, Dict[Node, int]]:
    """The SCC (condensation) DAG.

    Returns ``(dag, comp_of)`` where the DAG's nodes are component indices
    (in Tarjan order: sinks first) and ``comp_of[v]`` maps each original
    node to its component index.
    """
    fast = getattr(graph, "_condensation", None)
    if fast is not None:
        return fast()
    comps = strongly_connected_components(graph)
    comp_of: Dict[Node, int] = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    dag = DiGraph()
    for i in range(len(comps)):
        dag.add_node(i)
    for v, w in graph.edges():
        cv, cw = comp_of[v], comp_of[w]
        if cv != cw:
            dag.add_edge(cv, cw)
    return dag, comp_of


def is_dag(graph: DiGraph) -> bool:
    """True iff the graph has no directed cycle (self-loops count)."""
    for v in graph.nodes():
        if graph.has_edge(v, v):
            return False
    comps = strongly_connected_components(graph)
    return all(len(c) == 1 for c in comps)


def is_nontrivial_scc(graph: DiGraph, component: Sequence[Node]) -> bool:
    """An SCC is nontrivial if it contains an edge (>=2 nodes or self-loop)."""
    if len(component) > 1:
        return True
    v = component[0]
    return graph.has_edge(v, v)


def topological_order(graph: DiGraph) -> List[Node]:
    """Kahn topological order; raises ValueError on a cyclic graph."""
    indeg = {v: graph.in_degree(v) for v in graph.nodes()}
    queue = [v for v, d in indeg.items() if d == 0]
    order: List[Node] = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in graph.children(v):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != graph.num_nodes():
        raise ValueError("graph is not acyclic")
    return order


def topological_ranks(graph: DiGraph) -> Dict[Node, float]:
    """Paper Section 5.2 ranks over the SCC graph.

    ``r(v) = 0`` for a trivial sink SCC, ``r(v) = INF`` when ``[v]`` reaches
    a nontrivial SCC, else ``1 + max`` over successor components.
    """
    comps = strongly_connected_components(graph)
    dag, comp_of = condensation(graph)
    nontrivial = {
        i for i, comp in enumerate(comps) if is_nontrivial_scc(graph, comp)
    }
    rank: Dict[int, float] = {}
    # Tarjan order is reverse topological: successors are ranked first.
    for i, comp in enumerate(comps):
        succ_ranks = [rank[j] for j in dag.children(i)]
        if i in nontrivial or any(r == INF for r in succ_ranks):
            rank[i] = INF
        elif not succ_ranks:
            rank[i] = 0
        else:
            rank[i] = 1 + max(succ_ranks)
    return {v: rank[comp_of[v]] for v in graph.nodes()}
