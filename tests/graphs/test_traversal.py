"""Tests for BFS traversals and nonempty-path distances."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.distances import SharedDistanceSubstrate
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import chain, cycle_graph
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
from tests.strategies import small_graphs


class TestBFS:
    def test_source_distance_zero(self):
        g = chain(4)
        assert bfs_distances(g, 0)[0] == 0

    def test_chain_distances(self):
        g = chain(5)
        assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_reverse_direction(self):
        g = chain(4)
        assert bfs_distances(g, 3, reverse=True) == {3: 0, 2: 1, 1: 2, 0: 3}

    def test_max_depth_truncates(self):
        g = chain(10)
        d = bfs_distances(g, 0, max_depth=3)
        assert max(d.values()) == 3
        assert len(d) == 4

    def test_unreachable_not_included(self):
        g = DiGraph([("a", "b")])
        g.add_node("island")
        assert "island" not in bfs_distances(g, "a")


class TestNonemptyPathSemantics:
    def test_descendants_exclude_source_without_cycle(self):
        g = chain(4)
        d = descendants_within(g, 0, 2)
        assert d == {1: 1, 2: 2}

    def test_descendants_include_source_on_cycle(self):
        g = cycle_graph(3)
        d = descendants_within(g, 0, None)
        assert d[0] == 3  # the cycle length

    def test_descendants_respect_bound_for_cycle(self):
        g = cycle_graph(4)
        assert 0 not in descendants_within(g, 0, 3)
        assert descendants_within(g, 0, 4)[0] == 4

    def test_ancestors_mirror_descendants(self):
        g = chain(4)
        assert ancestors_within(g, 3, 2) == {2: 1, 1: 2}

    def test_self_loop_distance_one(self):
        g = DiGraph([("a", "a")])
        assert shortest_cycle_through(g, "a") == 1
        assert path_distance(g, "a", "a") == 1

    def test_no_cycle_gives_none(self):
        g = chain(3)
        assert shortest_cycle_through(g, 1) is None
        assert path_distance(g, 1, 1) == INF

    def test_two_cycle(self):
        g = DiGraph([("a", "b"), ("b", "a")])
        assert shortest_cycle_through(g, "a") == 2

    def test_cycle_bound_respected(self):
        g = cycle_graph(5)
        assert shortest_cycle_through(g, 0, max_len=4) is None
        assert shortest_cycle_through(g, 0, max_len=5) == 5


class TestPathQueries:
    def test_path_distance_basic(self):
        g = chain(4)
        assert path_distance(g, 0, 3) == 3
        assert path_distance(g, 3, 0) == INF

    def test_path_distance_bounded(self):
        g = chain(6)
        assert path_distance(g, 0, 5, k=3) == INF
        assert path_distance(g, 0, 3, k=3) == 3

    def test_is_reachable(self):
        g = chain(3)
        assert is_reachable(g, 0, 2)
        assert not is_reachable(g, 2, 0)
        assert not is_reachable(g, 0, 0)  # no cycle: no nonempty path

    def test_has_path_of_length_at_most_star(self):
        g = chain(3)
        assert has_path_of_length_at_most(g, 0, 2, None)
        assert not has_path_of_length_at_most(g, 2, 0, None)

    def test_has_path_of_length_at_most_bounded(self):
        g = chain(5)
        assert has_path_of_length_at_most(g, 0, 2, 2)
        assert not has_path_of_length_at_most(g, 0, 3, 2)

    def test_reachable_set_forward(self):
        g = chain(4)
        assert reachable_set(g, [1]) == {1, 2, 3}

    def test_reachable_set_backward(self):
        g = chain(4)
        assert reachable_set(g, [2], reverse=True) == {0, 1, 2}

    def test_reachable_set_multi_source(self):
        g = DiGraph([("a", "b"), ("c", "d")])
        assert reachable_set(g, ["a", "c"]) == {"a", "b", "c", "d"}


class TestWithinProbe:
    def test_stops_once_the_target_is_labelled(self):
        stats = SimpleNamespace(probe_nodes=0)
        probe = WithinProbe(chain(10), 0, 5, stats)
        assert probe.reaches(1)
        assert stats.probe_nodes == 2  # the source and its child

    def test_last_hop_never_expands_depth_k(self):
        stats = SimpleNamespace(probe_nodes=0)
        probe = WithinProbe(chain(10), 0, 3, stats)
        assert probe.reaches(3)
        assert not probe.reaches(4)
        assert stats.probe_nodes == 3  # depths 0..2 only

    def test_cycle_through_the_source(self):
        g = cycle_graph(4)
        assert not WithinProbe(g, 0, 3).reaches(0)
        assert WithinProbe(g, 0, 4).reaches(0)
        assert WithinProbe(g, 0, None).reaches(0)
        assert WithinProbe(DiGraph([("a", "a")]), "a", 1).reaches("a")


KS = (1, 2, 3, None)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_within_probe_agrees_with_path_distance(g, rng):
    """One probe per (source, k), its targets asked in a shuffled order
    interleaved across probes (and asked twice), so answers come from
    fresh, resumed and finished expansions alike."""
    probes = {(a, k): WithinProbe(g, a, k) for a in g.nodes() for k in KS}
    asks = [key + (c,) for key in probes for c in g.nodes()] * 2
    rng.shuffle(asks)
    for a, k, c in asks:
        expected = path_distance(g, a, c, k) != INF  # within k when finite
        assert probes[(a, k)].reaches(c) == expected, (a, k, c)


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_finite_radius_legs_come_in_nondecreasing_distance_order(g):
    """Routing takes the first eligible member of a leg as the nearest,
    and repair stops each scan at its own radius, so legs at every
    radius, reachability included, from edge_legs and from the
    substrate's memo, must list their nodes in nondecreasing distance."""
    substrate = SharedDistanceSubstrate(g)
    for x in g.nodes():
        for y in g.nodes():
            for radius in (1, 2, 3, None):
                for legs in (
                    edge_legs(g, x, y, radius),
                    substrate.legs(x, y, radius),
                ):
                    for leg in legs:
                        dists = list(leg.values())
                        assert dists == sorted(dists), (x, y, radius)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_descendants_within_agrees_with_path_distance(g):
    for k in KS:
        for v in g.nodes():
            ball = descendants_within(g, v, k)
            for w in g.nodes():
                d = path_distance(g, v, w, k=k)
                if d != INF:
                    assert ball.get(w) == d
                    assert ancestors_within(g, w, k).get(v) == d
                else:
                    assert w not in ball
                    assert v not in ancestors_within(g, w, k)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_ancestors_is_reverse_of_descendants(g):
    for v in g.nodes():
        fwd = descendants_within(g, v, 3)
        for w, d in fwd.items():
            back = ancestors_within(g, w, 3)
            assert back.get(v) is not None and back[v] <= 3


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_triangle_inequality(g):
    nodes = list(g.nodes())
    for a in nodes[:4]:
        for b in nodes[:4]:
            for c in nodes[:4]:
                dab = path_distance(g, a, b)
                dbc = path_distance(g, b, c)
                dac = path_distance(g, a, c)
                if dab != INF and dbc != INF:
                    assert dac <= dab + dbc
