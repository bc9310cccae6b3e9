"""Landmark selection strategies (paper Section 6.2).

A landmark vector must contain, for every node pair, a node on some
shortest path between them.  Any vertex cover qualifies: each edge of a
shortest path has an endpoint in the cover.  The paper computes "a minimum
vertex cover ... using [a] heuristic algorithm" (the classic matching-based
2-approximation of Vazirani's book); it also discusses preferring *stable*,
high-degree nodes.  Both selectors are provided.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Set

from ..graphs.digraph import DiGraph, Node


def matching_vertex_cover(graph: DiGraph) -> Set[Node]:
    """Maximal-matching 2-approximation of minimum vertex cover.

    Edge direction is irrelevant for covering; self-loops force their node
    into the cover.
    """
    cover: Set[Node] = set()
    for v, w in graph.edges():
        if v == w:
            cover.add(v)
        elif v not in cover and w not in cover:
            cover.add(v)
            cover.add(w)
    return cover


def greedy_degree_cover(graph: DiGraph) -> Set[Node]:
    """Greedy max-degree vertex cover — usually smaller than the matching
    cover, preferring hub nodes (the "larger degrees" heuristic)."""
    uncovered = {(v, w) for v, w in graph.edges()}
    incident = {}
    for v, w in uncovered:
        incident.setdefault(v, set()).add((v, w))
        incident.setdefault(w, set()).add((v, w))
    cover: Set[Node] = set()
    while uncovered:
        best = max(incident, key=lambda n: len(incident.get(n, ())))
        edges = incident.pop(best, set())
        if not edges:
            # All incident edges already covered; drop and continue.
            continue
        cover.add(best)
        for e in list(edges):
            uncovered.discard(e)
            a, b = e
            for other in (a, b):
                if other != best and other in incident:
                    incident[other].discard(e)
    return cover


def stability_weighted_cover(
    graph: DiGraph,
    update_frequency: Optional[Callable[[Node], float]] = None,
) -> Set[Node]:
    """Vertex cover preferring *stable* nodes (paper Example 6.2).

    ``update_frequency(v)`` estimates how often ``v``'s edges churn; when
    two endpoints could cover an edge, the more stable one is chosen first.
    """
    freq = update_frequency or (lambda v: 0.0)
    cover: Set[Node] = set()
    for v, w in sorted(
        graph.edges(), key=lambda e: min(freq(e[0]), freq(e[1]))
    ):
        if v == w:
            cover.add(v)
        elif v not in cover and w not in cover:
            # Prefer the endpoint with the lower churn, higher degree.
            def key(n: Node):
                return (freq(n), -(graph.out_degree(n) + graph.in_degree(n)))

            cover.add(min((v, w), key=key))
    return cover


class LandmarkBudget:
    """``BatchLM``-style re-selection trigger under a size budget.

    ``InsLM`` (Prop. 6.2) may add one landmark per edge insertion and
    never removes any, so a long-lived index's vectors grow monotonically
    even when the graph churns in place.  The budget compares the live
    landmark count against the size of the last from-scratch selection
    (:attr:`LandmarkIndex.selected_size`): once it exceeds
    ``max(floor, slack * selected_size)``, a ``BatchLM`` re-selection
    (:meth:`LandmarkIndex.rebuild`) is due.  ``floor`` keeps tiny graphs
    from rebuilding constantly; ``slack`` trades rebuild frequency
    against vector bloat.  Correctness is unaffected either way, only
    space and per-recheck cost.  Both must be finite: a NaN ``slack``
    would make the limit ``floor`` (a rebuild on every flush), and a NaN
    or infinite ``floor`` would switch the budget off.
    """

    def __init__(self, slack: float = 2.0, floor: int = 16) -> None:
        if not (math.isfinite(slack) and slack >= 1.0):
            raise ValueError(f"slack must be finite and >= 1.0, got {slack}")
        if not (math.isfinite(floor) and floor >= 0):
            raise ValueError(f"floor must be finite and >= 0, got {floor}")
        self.slack = slack
        self.floor = floor

    def limit(self, lm_index) -> float:
        return max(self.floor, self.slack * lm_index.selected_size)

    def exceeded(self, lm_index) -> bool:
        """Has ``InsLM`` growth blown past the budget since the last
        re-selection?"""
        return len(lm_index.landmarks()) > self.limit(lm_index)

    def __repr__(self) -> str:
        return f"LandmarkBudget(slack={self.slack}, floor={self.floor})"


def select_landmarks(graph: DiGraph, strategy: str = "matching") -> List[Node]:
    """Entry point: 'matching' (default), 'degree', or 'stability'."""
    if strategy == "matching":
        cover = matching_vertex_cover(graph)
    elif strategy == "degree":
        cover = greedy_degree_cover(graph)
    elif strategy == "stability":
        cover = stability_weighted_cover(graph)
    else:
        raise ValueError(f"unknown landmark strategy {strategy!r}")
    return sorted(cover, key=repr)
