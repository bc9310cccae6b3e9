"""Landmark selection (paper Section 6.2).

A landmark vector must contain, for every node pair, a node on some
shortest path between them.  Any vertex cover qualifies: each edge of a
shortest path has an endpoint in the cover.  The paper computes "a minimum
vertex cover ... using [a] heuristic algorithm" and prefers stable,
high-degree nodes (Example 6.2); ``InsLM`` keeps the cover by adding one
endpoint of each inserted edge it leaves uncovered (Prop. 6.2).  One rule,
:func:`cover_endpoint`, makes that choice everywhere: ``BatchLM``
(:func:`select_landmarks`) applies it to every edge of the graph,
``InsLM`` to each uncovered inserted edge.
"""

from __future__ import annotations

import math
from typing import List, Set

from ..graphs.digraph import DiGraph, Node


def cover_endpoint(graph: DiGraph, x: Node, y: Node) -> Node:
    """The landmark that covers edge ``(x, y)`` when neither endpoint is
    one: the endpoint of higher degree, the source ``x`` on a tie (and
    so the node itself for a self-loop)."""
    deg_x = graph.out_degree(x) + graph.in_degree(x)
    return x if deg_x >= graph.out_degree(y) + graph.in_degree(y) else y


def select_landmarks(graph: DiGraph) -> List[Node]:
    """``BatchLM``'s cover: :func:`cover_endpoint` of every edge, in
    ``graph.edges()`` order, that no earlier choice covers; sorted by
    ``repr``."""
    cover: Set[Node] = set()
    for x, y in graph.edges():
        if x not in cover and y not in cover:
            cover.add(cover_endpoint(graph, x, y))
    return sorted(cover, key=repr)


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
