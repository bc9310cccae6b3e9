"""Graph helpers against a brute-force oracle on named corner-case shapes.

Each shape (``tests/shapes.py``) pins one structural corner case: an
isolated node, a self-loop, a two-cycle, a ring, SCCs joined by a bridge,
a dense graph with loops.  Every traversal, SCC and distance helper is
compared, on every node (or edge) of every shape, with distances computed
by Floyd–Warshall over *nonempty* paths in the test itself (``d(v, v)``
is the shortest cycle through ``v``).  The property tests in ``test_traversal.py`` and
``test_scc.py`` draw random small graphs; these cases stay fixed, so each
corner case is exercised on every run.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.graphs.distance import DistanceMatrix, floyd_warshall
from repro.graphs.scc import (
    condensation,
    is_dag,
    is_nontrivial_scc,
    strongly_connected_components,
    topological_order,
    topological_ranks,
)
from repro.graphs.traversal import (
    INF,
    WithinProbe,
    ancestors_within,
    bfs_distances,
    descendants_within,
    edge_legs,
    has_path_of_length_at_most,
    is_reachable,
    path_distance,
    reachable_set,
    shortest_cycle_through,
)
from repro.graphs.twohop import TwoHopLabels
from tests.shapes import SHAPES, shape_graph

BOUNDS = [None, 1, 2, 3]


def _nonempty(g):
    """All-pairs shortest nonempty-path lengths (INF if none)."""
    nodes = list(g.nodes())
    d = {v: {w: INF for w in nodes} for v in nodes}
    for v, w in g.edges():
        d[v][w] = 1
    for m in nodes:
        for v in nodes:
            if d[v][m] == INF:
                continue
            for w in nodes:
                if d[v][m] + d[m][w] < d[v][w]:
                    d[v][w] = d[v][m] + d[m][w]
    return d


@lru_cache(maxsize=None)
def _oracle(shape):
    return _nonempty(shape_graph(shape))


def _hops(d, v, w):
    """Possibly-empty path length: 0 from a node to itself."""
    return 0 if v == w else d[v][w]


def _within(k, dist):
    return dist != INF and (k is None or dist <= k)


shapes = pytest.mark.parametrize("shape", sorted(SHAPES))


@shapes
def test_bfs_distances_and_edge_legs(shape):
    g, d = shape_graph(shape), _oracle(shape)
    nodes = list(g.nodes())
    for s in nodes:
        # A negative depth leaves the source alone.
        assert bfs_distances(g, s, -1) == {s: 0}
        assert bfs_distances(g, s, -1, reverse=True) == {s: 0}
        for depth in [None, 0, 1, 2]:
            forward = bfs_distances(g, s, depth)
            backward = bfs_distances(g, s, depth, reverse=True)
            assert forward == {
                w: _hops(d, s, w)
                for w in nodes
                if _within(depth, _hops(d, s, w))
            }
            assert backward == {
                w: _hops(d, w, s)
                for w in nodes
                if _within(depth, _hops(d, w, s))
            }
            # Nondecreasing distance order, which the leg scans rely on.
            for dist in (forward, backward):
                hops = list(dist.values())
                assert hops == sorted(hops)
    for x, y in g.edges():
        for radius in [None, 0, 1, 2]:
            back, fwd = edge_legs(g, x, y, radius)
            assert back == bfs_distances(g, x, radius, reverse=True)
            assert fwd == bfs_distances(g, y, radius)
            for leg in (back, fwd):
                hops = list(leg.values())
                assert hops == sorted(hops)


@shapes
def test_nonempty_balls(shape):
    g, d = shape_graph(shape), _oracle(shape)
    nodes = list(g.nodes())
    for s in nodes:
        for k in BOUNDS:
            assert descendants_within(g, s, k) == {
                w: d[s][w] for w in nodes if _within(k, d[s][w])
            }
            assert ancestors_within(g, s, k) == {
                w: d[w][s] for w in nodes if _within(k, d[w][s])
            }


@shapes
def test_cycles_and_path_distances(shape):
    g, d = shape_graph(shape), _oracle(shape)
    nodes = list(g.nodes())
    for v in nodes:
        # No cycle fits length 0, not even a self-loop.
        assert shortest_cycle_through(g, v, 0) is None
        for k in BOUNDS:
            cycle = d[v][v] if _within(k, d[v][v]) else None
            assert shortest_cycle_through(g, v, k) == cycle
        for w in nodes:
            assert path_distance(g, v, w) == d[v][w]
            assert is_reachable(g, v, w) is (d[v][w] != INF)
            for k in BOUNDS:
                expected = d[v][w] if _within(k, d[v][w]) else INF
                assert path_distance(g, v, w, k) == expected
                assert has_path_of_length_at_most(g, v, w, k) is _within(
                    k, d[v][w]
                )


@shapes
def test_within_probe_answers_every_target(shape):
    g, d = shape_graph(shape), _oracle(shape)
    nodes = list(g.nodes())
    rnd = random.Random(71)
    for s in nodes:
        for k in BOUNDS:
            probe = WithinProbe(g, s, k)
            targets = nodes * 2
            rnd.shuffle(targets)
            for c in targets:
                assert probe.reaches(c) is _within(k, d[s][c]), (s, c, k)


@shapes
def test_reachable_sets(shape):
    g, d = shape_graph(shape), _oracle(shape)
    nodes = list(g.nodes())
    groups = [[v] for v in nodes] + [nodes[:2], nodes[::2], []]
    for sources in groups:
        forward = {
            w for w in nodes if any(_hops(d, s, w) != INF for s in sources)
        }
        backward = {
            w for w in nodes if any(_hops(d, w, s) != INF for s in sources)
        }
        assert reachable_set(g, sources) == forward
        assert reachable_set(g, sources, reverse=True) == backward


@shapes
def test_sccs_condensation_and_ranks(shape):
    g, d = shape_graph(shape), _oracle(shape)
    nodes = list(g.nodes())
    comps = strongly_connected_components(g)
    assert sorted(map(repr, (v for c in comps for v in c))) == sorted(
        map(repr, nodes)
    )
    dag, comp_of = condensation(g)
    for v in nodes:
        for w in nodes:
            mutual = v == w or (d[v][w] != INF and d[w][v] != INF)
            assert (comp_of[v] == comp_of[w]) is mutual
    # Tarjan order is sinks first: every edge leads to an earlier (or the
    # same) component, and the condensation keeps exactly the cross edges.
    assert all(comp_of[w] <= comp_of[v] for v, w in g.edges())
    assert dag.edge_set() == {
        (comp_of[v], comp_of[w])
        for v, w in g.edges()
        if comp_of[v] != comp_of[w]
    }
    assert is_dag(dag)
    for comp in comps:
        assert is_nontrivial_scc(g, comp) is (d[comp[0]][comp[0]] != INF)
    cyclic = {v for v in nodes if d[v][v] != INF}
    assert is_dag(g) is (not cyclic)
    if cyclic:
        with pytest.raises(ValueError):
            topological_order(g)
    else:
        position = {v: i for i, v in enumerate(topological_order(g))}
        assert len(position) == len(nodes)
        assert all(position[v] < position[w] for v, w in g.edges())

    @lru_cache(maxsize=None)
    def longest(v):
        return max((1 + longest(w) for w in g.children(v)), default=0)

    ranks = topological_ranks(g)
    for v in nodes:
        if any(_hops(d, v, w) != INF for w in cyclic):
            assert ranks[v] == INF
        else:
            assert ranks[v] == longest(v)


@shapes
def test_distance_indexes(shape):
    g, d = shape_graph(shape), _oracle(shape)
    nodes = list(g.nodes())
    matrix = DistanceMatrix(g)
    labels = TwoHopLabels(g)
    fw = floyd_warshall(g)
    for v in nodes:
        assert matrix.row(v) == bfs_distances(g, v)
        for w in nodes:
            assert matrix.dist(v, w) == d[v][w]
            assert fw[v][w] == d[v][w]
            assert labels.dist(v, w) == _hops(d, v, w)


@shapes
def test_distance_matrix_follows_each_edge_deletion_and_reinsertion(shape):
    g = shape_graph(shape)
    nodes = list(g.nodes())
    matrix = DistanceMatrix(g)
    for x, y in list(g.edges()):
        for change in ("delete", "insert"):
            if change == "delete":
                g.remove_edge(x, y)
                matrix.apply_deletions([(x, y)])
            else:
                g.add_edge(x, y)
                matrix.apply_insert(x, y)
            d = _nonempty(g)
            for v in nodes:
                for w in nodes:
                    assert matrix.dist(v, w) == d[v][w], (change, x, y, v, w)
