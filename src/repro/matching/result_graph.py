"""Result graphs ``Gr`` — the graph representation of a match (Section 4).

For (bounded) simulation, ``Gr`` has one node per matched data node, and an
edge ``(v1, v2)`` for each pattern edge ``(u1, u2)`` whose bound admits a
nonempty path from ``v1`` to ``v2`` (the projection of the pattern's
connectivity onto the matches).  For subgraph isomorphism, ``Gr`` is the
union of all matched subgraphs.

Changes to the match (``delta M``) are read off as the symmetric difference
of result graphs; :func:`result_graph_delta` computes exactly that.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.traversal import INF
from ..patterns.pattern import Pattern, PatternNode
from .isomorphism import Embedding
from .oracles import BFSOracle, DistanceOracle
from .relation import MatchRelation, is_total


def simulation_result_graph(
    pattern: Pattern,
    graph: DiGraph,
    match: Mapping[PatternNode, Set[Node]],
    oracle: Optional[DistanceOracle] = None,
) -> DiGraph:
    """``Gr`` for (bounded) simulation matches.

    For a normal pattern this only needs edge lookups; for a b-pattern an
    oracle answers the path-length tests from the balls of the matches
    (default: a BFS from each, :class:`~repro.matching.oracles.BFSOracle`).
    """
    gr = DiGraph()
    if not is_total(match):
        return gr
    for u, vs in match.items():
        for v in vs:
            gr.add_node(v, **dict(graph.attrs(v)))
    need_oracle = not pattern.is_normal()
    if need_oracle and oracle is None:
        oracle = BFSOracle(graph)
    for u1, u2 in pattern.edges():
        bound = pattern.bound(u1, u2)
        for v1 in match[u1]:
            if bound == 1:
                for v2 in graph.children(v1):
                    if v2 in match[u2]:
                        gr.add_edge(v1, v2)
                continue
            assert oracle is not None
            ball = oracle.ball_out(v1, bound)
            for v2, d in ball.items():
                if v2 not in match[u2]:
                    continue
                if bound is None or d <= bound:
                    gr.add_edge(v1, v2)
    return gr


def isomorphism_result_graph(
    pattern: Pattern, graph: DiGraph, embeddings: List[Embedding]
) -> DiGraph:
    """Union of the matched subgraphs (Section 4, subgraph isomorphism)."""
    gr = DiGraph()
    for emb in embeddings:
        for u, v in emb.items():
            gr.add_node(v, **dict(graph.attrs(v)))
        for u1, u2 in pattern.edges():
            gr.add_edge(emb[u1], emb[u2])
    return gr


def result_graph_delta(
    old: DiGraph, new: DiGraph
) -> Dict[str, Set]:
    """``delta M`` as the nodes/edges not shared by the two result graphs."""
    old_nodes = set(old.nodes())
    new_nodes = set(new.nodes())
    old_edges = set(old.edges())
    new_edges = set(new.edges())
    return {
        "added_nodes": new_nodes - old_nodes,
        "removed_nodes": old_nodes - new_nodes,
        "added_edges": new_edges - old_edges,
        "removed_edges": old_edges - new_edges,
    }


def delta_size(delta: Mapping[str, Set]) -> int:
    """``|delta M|``: total number of changed nodes and edges."""
    return sum(len(part) for part in delta.values())
