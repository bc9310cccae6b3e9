"""Algorithm ``Match``: graph pattern matching via bounded simulation.

Paper Section 3 (Fig. 3, Theorem 3.1): computes the unique maximum match
``M_bsim(P, G)`` in ``O(|V||E| + |Ep||V|^2 + |Vp||V|)`` time.  The
algorithm maintains, for each pattern node ``u``, a shrinking set
``mat(u)`` of potential matches; a node ``v`` survives iff for every
pattern edge ``(u, u')`` some ``v' in mat(u')`` is reachable from ``v`` by
a nonempty path of length ``<= fE(u, u')`` (any length for ``*``).

The efficient implementation mirrors the paper's matrix ``X'``: for every
pattern edge ``e = (u, u')`` and candidate ``v`` it keeps

- ``desc_e(v)`` — the candidates of ``u'`` within the bound from ``v``,
- a support counter ``|desc_e(v) & mat(u')|``,
- the reverse index ``anc_e(v')`` used to propagate removals,

so each removal costs time proportional to the affected entries.
:func:`bounded_match_naive` is the straightforward fixpoint used as a
testing reference.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.traversal import INF
from ..patterns.pattern import Pattern, PatternNode
from .oracles import BFSOracle, DistanceOracle, make_oracle
from .relation import MatchRelation
from .simulation import candidate_sets

PatternEdge = Tuple[PatternNode, PatternNode]


def _within(d: float, bound: Optional[int]) -> bool:
    """Is a nonempty-path distance within a pattern-edge bound?"""
    if d == INF:
        return False
    return bound is None or d <= bound


def bounded_match(
    pattern: Pattern,
    graph: DiGraph,
    oracle: Optional[DistanceOracle] = None,
    candidates: Optional[MatchRelation] = None,
) -> MatchRelation:
    """Maximum bounded-simulation sets (pre-totalization).

    ``oracle`` supplies distances.  Only the balls of the candidate
    sources are read (``ball_out``), so the default is a BFS from each of
    them (:class:`~repro.matching.oracles.BFSOracle`), not an all-pairs
    matrix of the whole graph.  ``candidates`` optionally seeds ``mat()``
    (must contain the true matches).
    """
    if oracle is None:
        oracle = BFSOracle(graph)
    if candidates is None:
        mat = candidate_sets(pattern, graph)
    else:
        mat = {u: set(vs) for u, vs in candidates.items()}

    # Fig. 3 lines 5-6: a node with out-degree 0 cannot start a nonempty
    # path, hence cannot match a pattern node with children.
    for u in pattern.nodes():
        if pattern.out_degree(u) > 0:
            mat[u] = {
                v
                for v in mat[u]
                if graph.out_degree(v) > 0 or graph.has_edge(v, v)
            }

    # desc/anc tables (the paper's anc()/desc() of lines 2-4) and the
    # support counters of matrix X'.
    desc: Dict[Tuple[PatternEdge, Node], Set[Node]] = {}
    anc: Dict[Tuple[PatternEdge, Node], Set[Node]] = {}
    cnt: Dict[Tuple[PatternEdge, Node], int] = {}
    removal: deque = deque()
    queued: Set[Tuple[PatternNode, Node]] = set()

    for u, u2 in pattern.edges():
        e = (u, u2)
        bound = pattern.bound(u, u2)
        targets = mat[u2]
        for v in mat[u]:
            ball = oracle.ball_out(v, bound)
            ds = {w for w, d in ball.items() if w in targets and _within(d, bound)}
            desc[(e, v)] = ds
            cnt[(e, v)] = len(ds)
            for w in ds:
                anc.setdefault((e, w), set()).add(v)
            if not ds and (u, v) not in queued:
                queued.add((u, v))
                removal.append((u, v))

    while removal:
        u, v = removal.popleft()
        if v not in mat[u]:
            continue
        mat[u].remove(v)
        # v leaving mat(u) lowers support for every pattern edge into u.
        for u0 in pattern.parents(u):
            e = (u0, u)
            for p in anc.get((e, v), ()):
                if p not in mat[u0]:
                    continue
                key = (e, p)
                cnt[key] -= 1
                if cnt[key] == 0 and (u0, p) not in queued:
                    queued.add((u0, p))
                    removal.append((u0, p))
    return mat


def bounded_match_naive(
    pattern: Pattern,
    graph: DiGraph,
    oracle: Optional[DistanceOracle] = None,
) -> MatchRelation:
    """Plain fixpoint refinement — the differential-testing reference.

    It asks ``pathdist`` per pair, which the default oracle
    (:func:`~repro.matching.oracles.make_oracle`: a matrix on small
    graphs) answers with one lookup."""
    if oracle is None:
        oracle = make_oracle(graph)
    mat = candidate_sets(pattern, graph)
    changed = True
    while changed:
        changed = False
        for u, u2 in pattern.edges():
            bound = pattern.bound(u, u2)
            targets = mat[u2]
            bad = []
            for v in mat[u]:
                ok = any(
                    _within(oracle.pathdist(v, w), bound) for w in targets
                )
                if not ok:
                    bad.append(v)
            if bad:
                mat[u].difference_update(bad)
                changed = True
    return mat
