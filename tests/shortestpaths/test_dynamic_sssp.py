"""Tests for the Ramalingam-Reps dynamic SSSP substrate."""

import pytest
from hypothesis import given, settings

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import chain, cycle_graph, synthetic_graph
from repro.graphs.traversal import INF, bfs_distances
from repro.shortestpaths.dynamic_sssp import DynamicSSSP
from repro.workloads.updates import mixed_updates
from tests.strategies import small_graphs


# Column depths the fuzzers run side by side: full, and truncated.
HORIZONS = (None, 1, 2, 3)


def assert_exact(sssp: DynamicSSSP, g: DiGraph) -> None:
    assert sssp.distances() == bfs_distances(g, sssp.source, sssp.horizon)


class TestInit:
    def test_forward_chain(self):
        g = chain(5)
        sssp = DynamicSSSP(g, 0)
        assert sssp.dist(4) == 4
        assert sssp.dist(0) == 0

    def test_unreachable_inf(self):
        g = chain(3)
        g.add_node("island")
        sssp = DynamicSSSP(g, 0)
        assert sssp.dist("island") == INF

    def test_missing_source(self):
        g = DiGraph()
        sssp = DynamicSSSP(g, "ghost")
        assert sssp.dist("anything") == INF


class TestInsert:
    def test_shortcut_decreases(self):
        g = chain(6)
        sssp = DynamicSSSP(g, 0)
        g.add_edge(0, 5)
        sssp.on_insert(0, 5)
        assert sssp.dist(5) == 1
        assert_exact(sssp, g)

    def test_insert_into_unreachable_region(self):
        g = chain(3)
        g.add_edge(10, 11)
        sssp = DynamicSSSP(g, 0)
        assert sssp.dist(10) == INF
        g.add_edge(2, 10)
        sssp.on_insert(2, 10)
        assert sssp.dist(11) == 4
        assert_exact(sssp, g)

    def test_insert_from_unreachable_tail_noop(self):
        g = chain(3)
        g.add_node("x")
        g.add_edge("x", 1)
        sssp = DynamicSSSP(g, 0)
        sssp.on_insert("x", 1)
        assert_exact(sssp, g)


class TestDelete:
    def test_delete_breaks_reachability(self):
        g = chain(4)
        sssp = DynamicSSSP(g, 0)
        g.remove_edge(1, 2)
        sssp.on_delete(1, 2)
        assert sssp.dist(2) == INF
        assert sssp.dist(3) == INF
        assert_exact(sssp, g)

    def test_delete_with_alternate_path(self):
        g = chain(4)
        g.add_edge(0, 2)
        sssp = DynamicSSSP(g, 0)
        g.remove_edge(1, 2)
        sssp.on_delete(1, 2)
        assert sssp.dist(2) == 1
        assert sssp.dist(3) == 2
        assert_exact(sssp, g)

    def test_delete_non_tight_edge_noop(self):
        g = chain(4)
        g.add_edge(0, 2)  # makes (1, 2) non-tight
        sssp = DynamicSSSP(g, 0)
        g.remove_edge(0, 2)
        sssp.on_delete(0, 2)
        assert_exact(sssp, g)

    def test_delete_in_cycle(self):
        g = cycle_graph(5)
        sssp = DynamicSSSP(g, 0)
        g.remove_edge(2, 3)
        sssp.on_delete(2, 3)
        assert sssp.dist(3) == INF
        assert_exact(sssp, g)


class TestBatch:
    def test_mixed_batch(self):
        g = synthetic_graph(40, 100, seed=2)
        sssp = DynamicSSSP(g, 0)
        ups = mixed_updates(g, 10, 10, seed=3)
        ins, dels = [], []
        for u in ups:
            if u.op == "insert" and g.add_edge(u.source, u.target):
                ins.append(u.edge)
            elif u.op == "delete" and g.remove_edge(u.source, u.target):
                dels.append(u.edge)
        sssp.on_batch(ins, dels)
        assert_exact(sssp, g)

    def test_delete_then_reinsert_same_edge_via_batch(self):
        g = chain(4)
        sssp = DynamicSSSP(g, 0)
        # Net effect: nothing (edge removed and re-added before repair).
        g.remove_edge(1, 2)
        g.add_edge(1, 2)
        sssp.on_batch([(1, 2)], [(1, 2)])
        assert_exact(sssp, g)

    def test_mixed_batch_carries_lowered_nodes_to_descendants(self):
        # Phase 2 settles b at 1 through the same-batch edge s -> b; its
        # unaffected descendant c must drop from 3 to 2 as well.
        g = DiGraph([("s", "a"), ("a", "b"), ("b", "c"),
                     ("s", "x"), ("x", "y"), ("y", "c")])
        sssp = DynamicSSSP(g, "s")
        g.remove_edge("a", "b")
        g.add_edge("s", "b")
        sssp.on_batch(inserted=[("s", "b")], deleted=[("a", "b")])
        assert sssp.dist("c") == 2
        assert_exact(sssp, g)

    def test_recompute_matches_incremental(self):
        g = synthetic_graph(30, 70, seed=5)
        sssp = DynamicSSSP(g, 3)
        g.add_edge(3, 17)
        sssp.on_insert(3, 17)
        fresh = DynamicSSSP(g, 3)
        assert sssp.distances() == fresh.distances()

    def test_stats_count_work(self):
        g = chain(6)
        sssp = DynamicSSSP(g, 0)
        g.add_edge(0, 3)
        sssp.on_insert(0, 3)
        assert sssp.stats.nodes_touched >= 1
        sssp.stats.reset()
        assert sssp.stats.nodes_touched == 0


@pytest.mark.parametrize("horizon", [0, 1, 2, 3])
class TestHorizon:
    """A column truncated at ``horizon`` holds exactly the nodes within
    that many hops, at every point of its life."""

    def test_build_stops_at_the_horizon(self, horizon):
        g = synthetic_graph(40, 100, seed=2)
        sssp = DynamicSSSP(g, 0, horizon=horizon)
        assert max(sssp.distances().values()) <= horizon
        assert_exact(sssp, g)

    def test_insertion_cascade_stops_at_the_horizon(self, horizon):
        # The shortcut lowers every node past 2; untruncated, the
        # cascade would carry 7 down to 5.
        g = chain(8)
        sssp = DynamicSSSP(g, 0, horizon=horizon)
        g.add_edge(0, 3)
        sssp.on_insert(0, 3)
        assert_exact(sssp, g)

    def test_deletion_lifts_nodes_past_the_horizon(self, horizon):
        # Without the shortcut 0 -> 2, node i sits at i: 3 leaves a
        # horizon-2 column, 2 a horizon-1 one.
        g = chain(5)
        g.add_edge(0, 2)
        sssp = DynamicSSSP(g, 0, horizon=horizon)
        assert_exact(sssp, g)
        g.remove_edge(0, 2)
        sssp.on_delete(0, 2)
        assert_exact(sssp, g)

    def test_phase_two_lowers_through_a_same_batch_insertion(self, horizon):
        # Phase 2 settles b at 1 through the inserted s -> b, and the
        # cascade brings c to 2, inside horizon 2 but not horizon 1.
        g = DiGraph([("s", "a"), ("a", "b"), ("b", "c"), ("c", "d"),
                     ("s", "x"), ("x", "y"), ("y", "c")])
        sssp = DynamicSSSP(g, "s", horizon=horizon)
        g.remove_edge("a", "b")
        g.add_edge("s", "b")
        sssp.on_batch(inserted=[("s", "b")], deleted=[("a", "b")])
        assert_exact(sssp, g)


class TestSourceOutsideGraph:
    """A column built before its source exists has no entries; the first
    inserted edge that touches the source puts it at 0, on every path."""

    @pytest.mark.parametrize("edge, want", [
        (("src", 1), {"src": 0, 1: 1, 2: 2}),
        ((2, "src"), {"src": 0}),
    ])
    @pytest.mark.parametrize("path", ["on_insert", "on_batch"])
    def test_inserted_edge_brings_source_in_at_zero(self, edge, want, path):
        g = DiGraph([(1, 2)])
        sssp = DynamicSSSP(g, "src")
        assert sssp.distances() == {}
        g.add_edge(*edge)
        if path == "on_insert":
            sssp.on_insert(*edge)
        else:
            sssp.on_batch(inserted=[edge])
        assert sssp.distances() == want
        assert_exact(sssp, g)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_random_unit_updates_stay_exact(g):
    """One column per horizon in ``HORIZONS``, fed the same updates."""
    nodes = sorted(g.nodes(), key=repr)
    columns = [DynamicSSSP(g, nodes[0], horizon=h) for h in HORIZONS]
    ups = mixed_updates(g, 4, 4, seed=7)
    for u in ups:
        if u.op == "insert":
            if g.add_edge(u.source, u.target):
                for sssp in columns:
                    sssp.on_insert(u.source, u.target)
        else:
            if g.remove_edge(u.source, u.target):
                for sssp in columns:
                    sssp.on_delete(u.source, u.target)
        for sssp in columns:
            assert_exact(sssp, g)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_random_batches_stay_exact(g):
    """One column per horizon in ``HORIZONS``, fed the same batch."""
    nodes = sorted(g.nodes(), key=repr)
    columns = [
        DynamicSSSP(g, nodes[len(nodes) // 2], horizon=h) for h in HORIZONS
    ]
    ups = mixed_updates(g, 5, 5, seed=11)
    ins, dels = [], []
    for u in ups:
        if u.op == "insert" and g.add_edge(u.source, u.target):
            ins.append(u.edge)
        elif u.op == "delete" and g.remove_edge(u.source, u.target):
            dels.append(u.edge)
    for sssp in columns:
        sssp.on_batch(ins, dels)
        assert_exact(sssp, g)
