"""Unit tests for the pool-wide shared distance substrate.

:class:`~repro.engine.distances.SharedDistanceSubstrate` owns at most one
landmark index per pool, leased with a refcount, plus the per-flush memos
of edge legs and suspect-recheck probes.  These tests drive it directly,
the way the pool does: edit the graph, then ``observe_deleted`` /
``observe_inserted`` the net batch.  The ball counter, which bounded
indexes bump, is read through a pool.
"""

import random

import pytest

from repro.engine import MatcherPool
from repro.engine.distances import SharedDistanceSubstrate
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import chain, synthetic_graph
from repro.graphs.traversal import (
    INF,
    ancestors_within,
    descendants_within,
    edge_legs,
    path_distance,
)
from repro.landmarks.selection import select_landmarks
from repro.landmarks.vector import RESELECT_FACTOR, RESELECT_FLOOR
from repro.patterns.pattern import Pattern

OBSERVERS = ["observe_deleted", "observe_inserted"]


def _outgrowing_edges(lm, first):
    """Uncovered edges between fresh nodes ``first``, ``first + 1``, ...:
    just enough of them that InsLM, which adds one landmark per edge,
    grows ``lm`` past its re-selection point."""
    limit = max(RESELECT_FLOOR, RESELECT_FACTOR * lm.selected_size)
    need = max(0, limit + 1 - len(lm.landmarks()))
    return [(first + 2 * i, first + 2 * i + 1) for i in range(need)]


def _within(legs, radius):
    """Both legs restricted to ``d <= radius`` (all of them for None)."""
    return tuple(
        {v: d for v, d in leg.items() if radius is None or d <= radius}
        for leg in legs
    )


def _assert_exact(lm, graph):
    """The landmark vectors answer every shortest nonempty-path length."""
    nodes = list(graph.nodes())
    for v in nodes:
        for w in nodes:
            assert lm.pathdist(v, w) == path_distance(graph, v, w), (v, w)


def _edit(graph, observer):
    """Make one edge edit on the chain 0 -> 1 -> 2 -> 3 of the kind
    ``observer`` absorbs; return the batch to hand it."""
    if observer == "observe_deleted":
        graph.remove_edge(1, 2)
        return [(1, 2)]
    graph.add_edge(3, 0)
    return [(3, 0)]


class TestLeases:
    def test_nothing_is_live_before_a_lease(self):
        substrate = SharedDistanceSubstrate(chain(3))
        assert substrate.live_structures() == {"landmark": 0}
        assert substrate.landmark_index() is None
        assert substrate.stats.lm_builds == 0

    def test_leases_share_one_structure_built_once(self):
        substrate = SharedDistanceSubstrate(chain(4))
        first = substrate.lease_landmarks()
        second = substrate.lease_landmarks()
        assert first is second is substrate.landmark_index()
        assert substrate.stats.lm_builds == 1
        assert substrate.live_structures()["landmark"] == 2

    def test_last_release_drops_and_a_new_lease_rebuilds(self):
        g = chain(4)
        substrate = SharedDistanceSubstrate(g)
        old = substrate.lease_landmarks()
        substrate.lease_landmarks()
        substrate.release_landmarks()
        assert substrate.landmark_index() is old
        substrate.release_landmarks()
        assert substrate.landmark_index() is None
        assert substrate.live_structures()["landmark"] == 0
        # Edited while nothing leases it: the next lease must be built on
        # the current graph, not revive the dropped structure.
        g.add_edge(3, 0)
        new = substrate.lease_landmarks()
        assert new is not old
        assert substrate.stats.lm_builds == 2
        assert new.pathdist(0, 0) == 4
        _assert_exact(new, g)

    def test_a_deeper_lease_widens_and_nothing_narrows(self):
        """The first lease builds at its own horizon, a deeper one (or
        ``None``: full columns) widens the live index, and neither a
        shallower lease nor a release narrows it."""
        substrate = SharedDistanceSubstrate(chain(6))
        lm = substrate.lease_landmarks(1)
        assert lm.horizon == 1
        for asked, kept in [(0, 1), (3, 3), (2, 3), (None, None), (1, None)]:
            assert substrate.lease_landmarks(asked) is lm
            assert lm.horizon == kept
            lm.check_invariants()
        assert substrate.stats.lm_builds == 1
        for _ in range(5):
            substrate.release_landmarks()
        assert substrate.landmark_index() is lm
        assert lm.horizon is None
        # The last release drops it; the next lease builds at its own.
        substrate.release_landmarks()
        assert substrate.lease_landmarks(2).horizon == 2

    def test_release_without_a_lease_leaves_nothing_live(self):
        substrate = SharedDistanceSubstrate(chain(3))
        substrate.release_landmarks()
        assert substrate.live_structures()["landmark"] == 0
        # The refcount clamps at zero, so one lease is one live reference
        # and one release drops it.
        substrate.lease_landmarks()
        assert substrate.live_structures()["landmark"] == 1
        substrate.release_landmarks()
        assert substrate.landmark_index() is None


class TestObservation:
    @pytest.mark.parametrize("observer", OBSERVERS)
    @pytest.mark.parametrize("leased", [False, True], ids=["none", "landmark"])
    def test_one_structure_batch_per_live_structure(self, observer, leased):
        """An edge batch is one pass over the landmark index, however
        many queries lease it, and none when nobody leases it."""
        g = chain(4)
        substrate = SharedDistanceSubstrate(g)
        if leased:
            substrate.lease_landmarks()
            substrate.lease_landmarks()  # a second holder costs nothing
        getattr(substrate, observer)(_edit(g, observer))
        assert substrate.stats.edge_batches == 1
        assert substrate.stats.structure_batches == int(leased)
        if leased:
            _assert_exact(substrate.landmark_index(), g)

    @pytest.mark.parametrize("observer", OBSERVERS)
    def test_empty_batch_is_a_no_op(self, observer):
        g = chain(4)
        substrate = SharedDistanceSubstrate(g)
        substrate.lease_landmarks()
        legs = substrate.legs(0, 1, 2)
        probe = substrate.probe(0, 2)
        getattr(substrate, observer)([])
        assert substrate.stats.edge_batches == 0
        assert substrate.stats.structure_batches == 0
        assert substrate.legs(0, 1, 2) is legs
        assert substrate.probe(0, 2) is probe

    def test_deletions_then_insertions_keep_the_landmarks_exact(self):
        g = chain(5)
        substrate = SharedDistanceSubstrate(g)
        lm = substrate.lease_landmarks()
        g.remove_edge(2, 3)
        substrate.observe_deleted([(2, 3)])
        assert lm.pathdist(0, 4) == INF
        g.add_edge(1, 4)
        g.add_edge(4, 0)
        substrate.observe_inserted([(1, 4), (4, 0)])
        assert lm.pathdist(0, 4) == 2
        assert lm.pathdist(0, 0) == 3
        _assert_exact(lm, g)
        assert substrate.stats.edge_batches == 2
        assert substrate.stats.structure_batches == 2


class TestMemos:
    def test_legs_are_memoized_per_edge_and_radius(self):
        g = chain(5)
        substrate = SharedDistanceSubstrate(g)
        legs = substrate.legs(1, 2, 1)
        assert substrate.legs(1, 2, 1) is legs
        assert legs == edge_legs(g, 1, 2, 1)
        assert substrate.legs(1, 2, 2) is not legs
        assert substrate.legs(1, 2, 2) == edge_legs(g, 1, 2, 2)
        assert substrate.legs(2, 3, 1) == edge_legs(g, 2, 3, 1)
        # None is plain reachability: every ancestor of 1, every
        # descendant of 2.
        back, fwd = substrate.legs(1, 2, None)
        assert set(back) == {0, 1} and set(fwd) == {2, 3, 4}

    @pytest.mark.parametrize("observer", OBSERVERS)
    def test_edge_batch_clears_the_legs(self, observer):
        g = chain(4)
        substrate = SharedDistanceSubstrate(g)
        stale = substrate.legs(0, 1, None)
        getattr(substrate, observer)(_edit(g, observer))
        fresh = substrate.legs(0, 1, None)
        assert fresh is not stale
        assert fresh == edge_legs(g, 0, 1, None)
        assert fresh != stale

    def test_one_finite_pair_serves_every_smaller_radius(self):
        """The memo keeps one finite pair per edge at the largest radius
        asked: a smaller radius is served from it (its d <= r prefix), a
        larger one recomputes it, and leg_nodes counts the nodes each
        computed pair labels."""
        g = chain(8)
        substrate = SharedDistanceSubstrate(g)
        wide = substrate.legs(3, 4, 2)
        assert wide == edge_legs(g, 3, 4, 2)
        assert substrate.stats.leg_nodes == 6  # {3, 2, 1} and {4, 5, 6}
        for radius in (0, 1, 2):
            assert substrate.legs(3, 4, radius) is wide
            assert _within(wide, radius) == edge_legs(g, 3, 4, radius)
        assert substrate.stats.leg_nodes == 6
        wider = substrate.legs(3, 4, 3)
        assert wider is not wide and wider == edge_legs(g, 3, 4, 3)
        assert substrate.legs(3, 4, 1) is wider
        assert substrate.stats.leg_nodes == 6 + 8
        # The reachability pair is kept apart from the finite one.
        assert substrate.legs(3, 4, None) == edge_legs(g, 3, 4, None)
        assert substrate.legs(3, 4, 2) is wider
        assert substrate.stats.leg_nodes == 6 + 8 + 8

    def test_probes_are_memoized_and_count_labelled_nodes(self):
        g = chain(5)
        substrate = SharedDistanceSubstrate(g)
        probe = substrate.probe(0, 3)
        assert substrate.probe(0, 3) is probe
        assert substrate.probe(0, 2) is not probe
        assert substrate.stats.probe_nodes == 2  # the two sources
        assert probe.reaches(3)
        assert not probe.reaches(4)
        # Depth k - 1 = 2 is labelled (nodes 0..2); depth 3 never is.
        assert substrate.stats.probe_nodes == 4
        # A repeated ask of the same probe labels nothing more.
        assert probe.reaches(3)
        assert substrate.stats.probe_nodes == 4

    def test_ball_nodes_count_the_build_and_gain_balls(self):
        """A pool-registered bounded index counts the entries of its own
        ball BFSs: its pair-graph build takes, per pattern edge, the
        balls of the smaller eligible side, and an eligibility gain takes
        the gained node's balls."""
        g = DiGraph()
        for v, label in (
            ("a1", "A"), ("a2", "A"), ("a3", "A"), ("m1", "M"), ("b", "B"),
            ("c1", "C"), ("c2", "C"), ("c3", "C"),
        ):
            g.add_node(v, label=label)
        for v, w in (
            ("a1", "m1"), ("m1", "b"), ("a2", "b"), ("a3", "a1"),
            ("b", "c1"), ("c1", "c2"), ("c2", "c3"), ("m1", "c3"),
        ):
            g.add_edge(v, w)
        pool = MatcherPool(g)
        pool.register(
            Pattern.from_spec(
                {"x": "label = A", "y": "label = B", "z": "label = C"},
                [("x", "y", 3), ("y", "z", 2)],
            ),
            semantics="bounded",
        )
        stats = pool.substrate.stats
        # x -3-> y: 3 sources, 1 target, so one backward ball from b;
        # y -2-> z: 1 source, 3 targets, so one forward ball from b.
        taken = ancestors_within(g, "b", 3), descendants_within(g, "b", 2)
        assert [len(ball) for ball in taken] == [4, 2]
        assert stats.ball_nodes == 6
        # m1 gains layer x: one forward ball for x's one pattern edge.
        pool.queue_node("m1", label="A")
        pool.flush()
        assert len(descendants_within(g, "m1", 3)) == 4
        assert stats.ball_nodes == 6 + 4

    @pytest.mark.parametrize("observer", OBSERVERS)
    def test_edge_batch_clears_the_probes(self, observer):
        g = chain(4)
        substrate = SharedDistanceSubstrate(g)
        stale = substrate.probe(0, None)
        expected = {
            c: path_distance(g, 0, c) != INF for c in g.nodes()
        }
        assert {c: stale.reaches(c) for c in g.nodes()} == expected
        getattr(substrate, observer)(_edit(g, observer))
        fresh = substrate.probe(0, None)
        assert fresh is not stale
        answers = {c: fresh.reaches(c) for c in g.nodes()}
        assert answers == {
            c: path_distance(g, 0, c) != INF for c in g.nodes()
        }
        assert answers != expected


class TestLandmarkBudget:
    def test_no_landmark_lease_means_no_reselection(self):
        g = chain(3)
        substrate = SharedDistanceSubstrate(g)
        edges = [(10 + 2 * i, 11 + 2 * i) for i in range(RESELECT_FLOOR + 1)]
        for x, y in edges:
            g.add_edge(x, y)
        substrate.observe_inserted(edges)
        assert not substrate.enforce_lm_budget()
        assert substrate.rebuild_counters() == {"lm_rebuilds": 0}

    def test_growth_within_the_budget_keeps_the_landmarks(self):
        g = chain(3)
        g.add_node(5)
        g.add_node(6)
        substrate = SharedDistanceSubstrate(g)  # default floor of 16
        lm = substrate.lease_landmarks()
        before = len(lm.landmarks())
        g.add_edge(5, 6)
        substrate.observe_inserted([(5, 6)])
        assert len(lm.landmarks()) == before + 1  # InsLM covered the edge
        assert not substrate.enforce_lm_budget()
        assert substrate.stats.lm_rebuilds == 0

    def test_growth_past_the_budget_reselects(self):
        g = chain(3)
        substrate = SharedDistanceSubstrate(g)
        lm = substrate.lease_landmarks()
        edges = _outgrowing_edges(lm, 10)
        assert len(edges) == RESELECT_FLOOR  # one landmark selected
        for x, y in edges:
            g.add_edge(x, y)
        substrate.observe_inserted(edges)
        assert lm.outgrown()
        assert substrate.enforce_lm_budget()
        assert substrate.rebuild_counters() == {"lm_rebuilds": 1}
        # BatchLM re-selects in place: the leased object stays the one
        # every query holds, its new baseline is the fresh selection, and
        # its vectors stay exact.
        assert substrate.landmark_index() is lm
        assert lm.landmarks() == select_landmarks(g)
        assert lm.selected_size == len(lm.landmarks())
        assert not substrate.enforce_lm_budget()
        _assert_exact(lm, g)


class TestIntrospection:
    def test_counters_and_live_structures_name_only_the_kept_structures(self):
        substrate = SharedDistanceSubstrate(chain(3))
        assert set(substrate.rebuild_counters()) == {"lm_rebuilds"}
        assert set(substrate.live_structures()) == {"landmark"}
        assert not hasattr(substrate, "lease_matrix")

    def test_repr_reports_the_lease_counts(self):
        substrate = SharedDistanceSubstrate(chain(3))
        substrate.lease_landmarks()
        substrate.lease_landmarks()
        assert repr(substrate) == "SharedDistanceSubstrate(lm=2)"

    def test_stats_reset_zeroes_every_counter(self):
        g = chain(4)
        substrate = SharedDistanceSubstrate(g)
        substrate.lease_landmarks()
        substrate.probe(0, 2).reaches(2)
        substrate.legs(0, 1, 1)
        g.remove_edge(0, 1)
        substrate.observe_deleted([(0, 1)])
        stats = substrate.stats
        assert all(
            getattr(stats, name) > 0
            for name in (
                "lm_builds", "edge_batches", "structure_batches",
                "leg_nodes", "probe_nodes",
            )
        )
        stats.reset()
        assert all(getattr(stats, name) == 0 for name in stats.__slots__)


def test_churn_keeps_structures_legs_and_probes_exact():
    """Mixed edge batches observed flush by flush, two of which carry
    enough uncovered edges between fresh nodes that re-selections happen
    mid-stream: after every phase the leased landmark vectors, the
    memoized legs (restricted to the radius asked, and not recomputed
    for a smaller one) and the memoized probes all answer as a
    from-scratch BFS does on the current graph."""
    rng = random.Random(0xD15)
    graph = synthetic_graph(20, 18, seed=5)
    substrate = SharedDistanceSubstrate(graph)
    lm = substrate.lease_landmarks()
    nodes = sorted(graph.nodes())

    def check():
        _assert_exact(lm, graph)
        for x, y in rng.sample(list(graph.edges()), 3):
            # One finite pair, at the largest radius asked, serves every
            # smaller radius as its d <= r prefix without recomputing.
            wide = substrate.legs(x, y, 2)
            for radius in (1, 2):
                assert substrate.legs(x, y, radius) is wide
                assert _within(wide, radius) == edge_legs(
                    graph, x, y, radius
                )
            assert substrate.legs(x, y, None) == edge_legs(
                graph, x, y, None
            )
        for a in rng.sample(nodes, 3):
            for k in (1, 2, None):
                probe = substrate.probe(a, k)
                for c in nodes:
                    assert probe.reaches(c) == (
                        path_distance(graph, a, c, k) != INF
                    ), (a, k, c)

    rebuilds = 0
    for flush in range(6):
        check()  # memos now hold legs and probes of this graph state
        deleted = rng.sample(sorted(graph.edges()), 3)
        for x, y in deleted:
            graph.remove_edge(x, y)
        substrate.observe_deleted(deleted)
        check()
        inserted = []
        while len(inserted) < 3:
            x, y = rng.choice(nodes), rng.choice(nodes)
            if graph.add_edge(x, y):
                inserted.append((x, y))
        if flush in (1, 4):
            for x, y in _outgrowing_edges(lm, 100 * (flush + 1)):
                graph.add_edge(x, y)
                inserted.append((x, y))
        substrate.observe_inserted(inserted)
        check()
        rebuilds += substrate.enforce_lm_budget()
    # Exactly the two outgrowing flushes re-selected.
    assert rebuilds == 2 == substrate.stats.lm_rebuilds
    assert substrate.stats.edge_batches == 12
    assert substrate.stats.structure_batches == 12
