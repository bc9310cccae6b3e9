"""Subgraph isomorphism via VF2-style backtracking — the paper's baseline.

Paper Section 1: a match of a normal pattern ``P`` is a subgraph ``G'`` of
``G`` with a bijection ``f`` from ``Vp`` to the nodes of ``G'`` such that
node labels agree and ``(u, u') in Ep`` iff ``(f(u), f(u')) in G'``.
Choosing ``G'`` to be exactly the image of ``P`` under ``f`` makes this the
standard subgraph-isomorphism (monomorphism) semantics that the VF2
comparison of Section 8 uses: an injective mapping sending every pattern
edge onto a data edge.

Node compatibility generalizes label equality to predicate satisfaction,
so the same pattern objects drive all three semantics in this library.

``Miso(P, G)`` is the *set of embeddings*; :func:`isomorphic_embeddings`
enumerates them (optionally capped), and :func:`brute_force_embeddings` is
an exhaustive reference for tests.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional

from ..graphs.digraph import DiGraph, Node
from ..patterns.pattern import Pattern, PatternError, PatternNode
from .relation import MatchRelation
from .simulation import candidate_sets

Embedding = Dict[PatternNode, Node]


def _check_normal(pattern: Pattern) -> None:
    if not pattern.is_normal():
        raise PatternError(
            "subgraph isomorphism is defined on normal patterns "
            "(every edge bound must be 1)"
        )


def _order_pattern_nodes(pattern: Pattern, cands: Dict[PatternNode, set]) -> List[PatternNode]:
    """Search order: rarest candidate set first, then by connectivity."""
    order: List[PatternNode] = []
    placed = set()
    remaining = set(pattern.nodes())
    while remaining:
        # Prefer nodes adjacent to already-placed ones (connected search),
        # breaking ties by fewest candidates.
        def score(u: PatternNode):
            adj = sum(
                1
                for n in itertools.chain(pattern.children(u), pattern.parents(u))
                if n in placed
            )
            return (-adj, len(cands[u]))

        u = min(remaining, key=score)
        order.append(u)
        placed.add(u)
        remaining.remove(u)
    return order


def iter_embeddings(
    pattern: Pattern,
    graph: DiGraph,
    partial: Optional[Embedding] = None,
    candidates: Optional[MatchRelation] = None,
) -> Iterator[Embedding]:
    """Yield every injective embedding extending ``partial`` (default {}).

    ``candidates`` optionally gives each pattern node's predicate-satisfying
    nodes of ``graph`` (read, never changed); by default they are computed
    from the predicates.
    """
    _check_normal(pattern)
    cands = candidate_sets(pattern, graph) if candidates is None else candidates
    partial = dict(partial) if partial else {}
    for u, v in partial.items():
        if v not in cands[u]:
            return  # seeded mapping already violates a predicate
    used = set(partial.values())
    if len(used) != len(partial):
        return  # seeded mapping not injective
    for u1, u2 in pattern.edges():
        if u1 in partial and u2 in partial:
            if not graph.has_edge(partial[u1], partial[u2]):
                return  # seeded mapping violates a pattern edge
    order = [u for u in _order_pattern_nodes(pattern, cands) if u not in partial]

    def feasible(u: PatternNode, v: Node, assignment: Embedding) -> bool:
        # Every already-assigned pattern neighbour must be a graph neighbour
        # in the right direction.  ``u`` itself counts as assigned-to-``v``
        # here, so a self-loop pattern edge demands a self-loop on ``v``.
        for u2 in pattern.children(u):
            w = v if u2 == u else assignment.get(u2)
            if w is not None and not graph.has_edge(v, w):
                return False
        for u0 in pattern.parents(u):
            w = v if u0 == u else assignment.get(u0)
            if w is not None and not graph.has_edge(w, v):
                return False
        # Cheap lookahead: pattern children/parents map to distinct graph
        # children/parents of v, so degrees must dominate.
        if graph.out_degree(v) < pattern.out_degree(u):
            return False
        if graph.in_degree(v) < len(pattern.parents(u)):
            return False
        return True

    assignment: Embedding = dict(partial)

    def backtrack(i: int) -> Iterator[Embedding]:
        if i == len(order):
            yield dict(assignment)
            return
        u = order[i]
        for v in cands[u]:
            if v in used:
                continue
            if not feasible(u, v, assignment):
                continue
            assignment[u] = v
            used.add(v)
            yield from backtrack(i + 1)
            used.remove(v)
            del assignment[u]

    yield from backtrack(0)


def isomorphic_embeddings(
    pattern: Pattern,
    graph: DiGraph,
    max_count: Optional[int] = None,
    partial: Optional[Embedding] = None,
) -> List[Embedding]:
    """All embeddings (``Miso(P, G)``), optionally capped at ``max_count``."""
    out: List[Embedding] = []
    for emb in iter_embeddings(pattern, graph, partial=partial):
        out.append(emb)
        if max_count is not None and len(out) >= max_count:
            break
    return out


def has_isomorphic_match(pattern: Pattern, graph: DiGraph) -> bool:
    """``P |>iso G``: does at least one embedding exist?"""
    for _ in iter_embeddings(pattern, graph):
        return True
    return False


def brute_force_embeddings(pattern: Pattern, graph: DiGraph) -> List[Embedding]:
    """Exhaustive enumeration over candidate tuples — tiny inputs only."""
    _check_normal(pattern)
    cands = candidate_sets(pattern, graph)
    pnodes = list(pattern.nodes())
    out: List[Embedding] = []
    for combo in itertools.product(*(sorted(cands[u], key=repr) for u in pnodes)):
        if len(set(combo)) != len(combo):
            continue
        emb = dict(zip(pnodes, combo))
        if all(graph.has_edge(emb[u], emb[u2]) for u, u2 in pattern.edges()):
            out.append(emb)
    return out
