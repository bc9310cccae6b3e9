"""Tests for landmark vectors / distance vectors and their maintenance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import disjoint_communities
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import chain, cycle_graph, synthetic_graph
from repro.graphs.traversal import INF, path_distance
from repro.landmarks.selection import matching_vertex_cover
from repro.landmarks.vector import LandmarkIndex
from repro.workloads.updates import mixed_updates
from tests.strategies import small_graphs


def assert_exact(lm: LandmarkIndex, g: DiGraph) -> None:
    for v in g.nodes():
        for w in g.nodes():
            assert lm.pathdist(v, w) == path_distance(g, v, w), (v, w)


def vectors(lm: LandmarkIndex):
    """Every column's entries, both directions, as the two node-major
    tables: compared whole, they expose column errors the cover masks."""
    return lm._distvt, lm._distvf


def assert_columns_fresh(lm: LandmarkIndex, g: DiGraph) -> None:
    assert vectors(lm) == vectors(LandmarkIndex(g, landmarks=lm.landmarks()))


class TestQueries:
    def test_exact_on_chain(self):
        g = chain(6)
        assert_exact(LandmarkIndex(g), g)

    def test_exact_on_cycle(self):
        g = cycle_graph(5)
        assert_exact(LandmarkIndex(g), g)

    def test_exact_on_synthetic(self):
        g = synthetic_graph(40, 120, seed=1)
        assert_exact(LandmarkIndex(g), g)

    def test_dist_zero_for_same_node(self):
        g = chain(3)
        lm = LandmarkIndex(g)
        assert lm.dist(1, 1) == 0

    def test_pathdist_self_needs_cycle(self):
        g = chain(3)
        lm = LandmarkIndex(g)
        assert lm.pathdist(1, 1) == INF

    def test_self_loop(self):
        g = DiGraph([("a", "a")])
        lm = LandmarkIndex(g)
        assert lm.pathdist("a", "a") == 1

    def test_two_cycle_covered_only_by_self(self):
        # VC = {a} covers both edges; the landmark formula alone cannot see
        # the cycle, exercising the local fallback.
        g = DiGraph([("a", "b"), ("b", "a")])
        lm = LandmarkIndex(g, landmarks=["a"])
        assert lm.pathdist("a", "a") == 2

    def test_within_early_exit(self):
        g = chain(6)
        lm = LandmarkIndex(g)
        assert lm.within(0, 3, 3)
        assert not lm.within(0, 4, 3)
        assert lm.within(0, 5, None)
        assert not lm.within(5, 0, None)

    def test_explicit_landmarks_must_exist(self):
        g = chain(3)
        lm = LandmarkIndex(g, landmarks=[0, 1])
        with pytest.raises(ValueError):
            lm.add_landmark("ghost")
        with pytest.raises(ValueError):
            LandmarkIndex(g, landmarks=[0, "ghost"])


class TestMaintenance:
    def test_insert_edge_updates_distances(self):
        g = chain(6)
        lm = LandmarkIndex(g)
        g.add_edge(0, 5)
        lm.insert_edge(0, 5)
        assert lm.pathdist(0, 5) == 1
        assert_exact(lm, g)

    def test_insert_adds_at_most_one_landmark(self):
        g = chain(4)
        lm = LandmarkIndex(g)
        before = len(lm.landmarks())
        g.add_edge(0, 3)
        lm.insert_edge(0, 3)
        assert len(lm.landmarks()) <= before + 1

    def test_insert_keeps_cover(self):
        g = chain(4)
        lm = LandmarkIndex(g)
        g.add_edge(3, 0)
        lm.insert_edge(3, 0)
        assert lm.covers_edge(3, 0)
        assert_exact(lm, g)

    def test_delete_edge_updates_distances(self):
        g = cycle_graph(5)
        lm = LandmarkIndex(g)
        g.remove_edge(1, 2)
        lm.delete_edge(1, 2)
        assert lm.pathdist(0, 3) == INF
        assert_exact(lm, g)

    def test_delete_keeps_landmarks(self):
        """Prop. 6.2: a cover of G covers any subgraph — no shrink online."""
        g = cycle_graph(4)
        lm = LandmarkIndex(g)
        before = set(lm.landmarks())
        g.remove_edge(0, 1)
        lm.delete_edge(0, 1)
        assert set(lm.landmarks()) == before

    def test_batch_mixed(self):
        g = synthetic_graph(30, 80, seed=3)
        lm = LandmarkIndex(g)
        ups = mixed_updates(g, 8, 8, seed=4)
        ins, dels = [], []
        for u in ups:
            if u.op == "insert" and g.add_edge(u.source, u.target):
                ins.append(u.edge)
            elif u.op == "delete" and g.remove_edge(u.source, u.target):
                dels.append(u.edge)
        lm.apply_batch(inserted=ins, deleted=dels)
        assert_exact(lm, g)

    def test_mixed_batch_lowers_descendants_of_repaired_nodes(self):
        # One landmark, so no other column masks the s-column's c entry.
        g = DiGraph([("s", "a"), ("a", "b"), ("b", "c"),
                     ("s", "x"), ("x", "y"), ("y", "c")])
        lm = LandmarkIndex(g, landmarks=["s"])
        g.remove_edge("a", "b")
        g.add_edge("s", "b")
        lm.apply_batch(inserted=[("s", "b")], deleted=[("a", "b")])
        assert lm.within("s", "c", 2)
        assert_columns_fresh(lm, g)

    def test_rebuild_resets_to_fresh_cover(self):
        g = chain(4)
        lm = LandmarkIndex(g)
        for i in range(3):
            g.add_edge(i + 10, i + 11)
            lm.insert_edge(i + 10, i + 11)
        lm.rebuild()
        fresh = LandmarkIndex(g)
        assert set(lm.landmarks()) == set(fresh.landmarks())
        assert_exact(lm, g)

    def test_size_entries_and_stats(self):
        g = chain(4)
        lm = LandmarkIndex(g)
        assert lm.size_entries() > 0
        lm.reset_stats()
        g.add_edge(0, 3)
        lm.insert_edge(0, 3)
        assert lm.nodes_touched() >= 0
        lm.within(0, 3, 1)
        assert lm.columns_visited > 0 and lm.entries_scanned > 0
        lm.reset_stats()
        counts = lm.nodes_touched(), lm.columns_visited, lm.entries_scanned
        assert counts == (0, 0, 0)


class TestWorkBound:
    """IncLM and the rechecks work on the columns and vector entries a
    change reaches, however many landmarks the rest of the graph holds."""

    @staticmethod
    def work(k: int):
        g = disjoint_communities(k, 12, seed=5)
        lm = LandmarkIndex(g, landmarks=sorted(matching_vertex_cover(g)))
        # A shortcut inside community 0 (the same one for every k).
        x, y = next(
            (v, w) for v in range(12) for w in range(12)
            if v != w and 2 < path_distance(g, v, w) < INF
        )
        lm.reset_stats()
        g.add_edge(x, y)
        lm.insert_edge(x, y)
        assert lm.within(x, y, 1)
        return (
            lm.columns_visited, lm.entries_scanned, lm.nodes_touched(),
            2 * len(lm.landmarks()),
        )

    def test_counts_follow_the_change_not_the_landmarks(self):
        *small, small_columns = self.work(4)
        *large, large_columns = self.work(32)
        assert large_columns > 4 * small_columns
        assert small == large
        assert 0 < small[0] < small_columns // 4


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_unit_update_sequence_stays_exact(g):
    lm = LandmarkIndex(g)
    ups = mixed_updates(g, 4, 4, seed=13)
    for u in ups:
        if u.op == "insert":
            if g.add_edge(u.source, u.target):
                lm.insert_edge(u.source, u.target)
        else:
            if g.remove_edge(u.source, u.target):
                lm.delete_edge(u.source, u.target)
    assert_exact(lm, g)


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_within_agrees_with_pathdist(g):
    lm = LandmarkIndex(g)
    for v in g.nodes():
        for w in g.nodes():
            truth = path_distance(g, v, w)
            for bound in (1, 2, None):
                expected = truth != INF if bound is None else truth <= bound
                assert lm.within(v, w, bound) is expected


@st.composite
def graphs_with_batches(draw):
    """A small graph, whether every node is a landmark, and a few batches
    of node pairs to toggle (delete if present, else insert)."""
    g = draw(small_graphs())
    pairs = [(v, w) for v in g.nodes() for w in g.nodes()]
    batch = st.lists(st.sampled_from(pairs), max_size=6, unique=True)
    return g, draw(st.booleans()), draw(st.lists(batch, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(graphs_with_batches())
def test_mixed_batches_keep_every_column_exact(case):
    g, all_landmarks, batches = case
    lm = LandmarkIndex(g, landmarks=list(g.nodes()) if all_landmarks else None)
    for toggles in batches:
        ins, dels = [], []
        for v, w in toggles:
            if g.has_edge(v, w):
                g.remove_edge(v, w)
                dels.append((v, w))
            else:
                g.add_edge(v, w)
                ins.append((v, w))
        lm.apply_batch(inserted=ins, deleted=dels)
        assert_columns_fresh(lm, g)
        for v in g.nodes():
            for w in g.nodes():
                truth = path_distance(g, v, w)
                for bound in (1, 2, 3, None):
                    expected = truth != INF if bound is None else truth <= bound
                    assert lm.within(v, w, bound) is expected, (v, w, bound)
