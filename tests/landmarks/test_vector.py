"""Tests for landmark vectors / distance vectors and their maintenance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import disjoint_communities
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import chain, cycle_graph, synthetic_graph
from repro.graphs.traversal import INF, path_distance
from repro.landmarks.selection import cover_endpoint
from repro.landmarks.vector import LandmarkIndex
from repro.workloads.updates import mixed_updates
from tests.shapes import SHAPES, shape_graph
from tests.strategies import small_graphs


# Index depths the shape tests run side by side: full, and truncated.
HORIZONS = (None, 1, 2, 3)


def assert_exact(lm: LandmarkIndex, g: DiGraph) -> None:
    """``pathdist`` and ``within`` at every bound agree with a BFS on
    every ordered pair, self pairs (shortest cycles) included.  A
    truncated index answers ``within`` alone, at every bound up to its
    horizon."""
    h = lm.horizon
    bounds = (1, 2, 3, None) if h is None else range(h + 1)
    for v in g.nodes():
        for w in g.nodes():
            truth = path_distance(g, v, w)
            if h is None:
                assert lm.pathdist(v, w) == truth, (v, w)
            for bound in bounds:
                expected = truth != INF if bound is None else truth <= bound
                assert lm.within(v, w, bound) is expected, (v, w, bound)


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
        # VC = {a} covers both edges; the cycle through the landmark a
        # closes at its parent b, the one through b opens into its child a.
        g = DiGraph([("a", "b"), ("b", "a")])
        lm = LandmarkIndex(g, landmarks=["a"])
        assert lm.pathdist("a", "a") == 2
        assert lm.pathdist("b", "b") == 2

    def test_within_early_exit(self):
        g = chain(6)
        lm = LandmarkIndex(g)
        assert lm.within(0, 3, 3)
        assert not lm.within(0, 4, 3)
        assert lm.within(0, 5, None)
        assert not lm.within(5, 0, None)

    def test_explicit_landmarks_must_exist(self):
        g = chain(3)
        with pytest.raises(ValueError):
            LandmarkIndex(g, landmarks=[0, "ghost"])

    def test_explicit_landmarks_must_cover_every_edge(self):
        # Without 1 or 2 the first hop out of 1 meets no landmark, and
        # d(1, 2) would read as unreachable.
        g = chain(3)
        with pytest.raises(ValueError, match="miss edge"):
            LandmarkIndex(g, landmarks=[0])
        assert LandmarkIndex(g, landmarks=[1]).dist(1, 2) == 1


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

    def test_uncovered_insert_gains_its_higher_degree_endpoint(self):
        # chain(4)'s cover is {1, 2}.  After (4, 0), the head 0 has
        # degree 2 and the fresh tail 4 degree 1.
        g = chain(4)
        lm = LandmarkIndex(g)
        assert lm.landmarks() == [1, 2]
        g.add_node(4)
        g.add_edge(4, 0)
        lm.apply_batch(inserted=[(4, 0)])
        assert lm.landmarks() == [1, 2, 0]
        lm.check_invariants()

    def test_uncovered_insert_gains_its_source_on_a_tie(self):
        # After (3, 0), 3 and 0 both have degree 2.
        g = chain(4)
        lm = LandmarkIndex(g)
        g.add_edge(3, 0)
        lm.apply_batch(inserted=[(3, 0)])
        assert lm.landmarks() == [1, 2, 3]
        lm.check_invariants()

    def test_an_edge_the_new_landmark_covers_adds_nothing(self):
        # (3, 0) gains 3, which then covers (0, 3) later in the batch.
        g = chain(4)
        lm = LandmarkIndex(g)
        g.add_edge(3, 0)
        g.add_edge(0, 3)
        lm.apply_batch(inserted=[(3, 0), (0, 3)])
        assert lm.landmarks() == [1, 2, 3]
        lm.check_invariants()
        assert_exact(lm, g)

    def test_degrees_are_read_from_the_graph_the_batch_leaves(self):
        # Before (4, 5) and (4, 6) the fresh 4 has degree 1 against 0's
        # 2; after the whole batch it has 3, so (4, 0) gains 4, which
        # then covers the other two edges.
        g = chain(4)
        lm = LandmarkIndex(g)
        ins = [(4, 0), (4, 5), (4, 6)]
        for x, y in ins:
            g.add_edge(x, y)
        lm.apply_batch(inserted=ins)
        assert lm.landmarks() == [1, 2, 4]
        lm.check_invariants()
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
        # s is a landmark, so within(s, c, 2) reads the s column's c entry
        # alone; b and y complete the cover.
        g = DiGraph([("s", "a"), ("a", "b"), ("b", "c"),
                     ("s", "x"), ("x", "y"), ("y", "c")])
        lm = LandmarkIndex(g, landmarks=["s", "b", "y"])
        g.remove_edge("a", "b")
        g.add_edge("s", "b")
        lm.apply_batch(inserted=[("s", "b")], deleted=[("a", "b")])
        assert lm.within("s", "c", 2)
        lm.check_invariants()

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
        # A shortcut out of landmark 1 lowers 3 in 1's column.
        g.add_edge(1, 3)
        lm.insert_edge(1, 3)
        assert lm.nodes_touched() >= 0
        lm.within(1, 3, 1)
        assert lm.columns_visited > 0 and lm.entries_scanned > 0
        lm.reset_stats()
        counts = lm.nodes_touched(), lm.columns_visited, lm.entries_scanned
        assert counts == (0, 0, 0)


class TestHorizon:
    """An index truncated at ``horizon`` answers ``within`` exactly up to
    it and refuses every query it could not answer exactly."""

    def test_within_refuses_a_bound_past_the_horizon(self):
        g = chain(6)
        lm = LandmarkIndex(g, horizon=2)
        assert lm.within(0, 2, 2) and not lm.within(0, 3, 2)
        for bound in (3, None):
            with pytest.raises(ValueError, match="horizon"):
                lm.within(0, 3, bound)

    @pytest.mark.parametrize("query", ["dist", "pathdist"])
    def test_full_distance_queries_refuse(self, query):
        lm = LandmarkIndex(chain(4), horizon=3)
        with pytest.raises(ValueError, match="horizon"):
            getattr(lm, query)(0, 1)

    def test_rebuild_keeps_the_horizon(self):
        g = chain(6)
        lm = LandmarkIndex(g, horizon=1)
        g.add_edge(10, 11)
        lm.insert_edge(10, 11)
        lm.rebuild()
        assert lm.horizon == 1
        lm.check_invariants()
        assert_exact(lm, g)

    @pytest.mark.parametrize("horizon", [0, 1, 2])
    @pytest.mark.parametrize("wider", [1, 3, None])
    def test_widen_equals_a_fresh_build(self, horizon, wider):
        g = synthetic_graph(30, 80, seed=3)
        lm = LandmarkIndex(g, horizon=horizon)
        ins, dels = [], []
        for u in mixed_updates(g, 8, 8, seed=4):
            if u.op == "insert" and g.add_edge(u.source, u.target):
                ins.append(u.edge)
            elif u.op == "delete" and g.remove_edge(u.source, u.target):
                dels.append(u.edge)
        lm.apply_batch(inserted=ins, deleted=dels)
        entries, selected = lm.size_entries(), lm.selected_size
        lm.widen(wider)
        # A widening selects nothing: the landmark InsLM added stays an
        # addition to the last selection.
        assert lm.selected_size == selected < len(lm.landmarks())
        if wider is not None and wider <= horizon:
            # Nothing narrows the columns.
            assert (lm.horizon, lm.size_entries()) == (horizon, entries)
        else:
            fresh = LandmarkIndex(g, landmarks=lm.landmarks(), horizon=wider)
            assert lm.horizon == wider
            assert lm.size_entries() == fresh.size_entries() > entries
        lm.check_invariants()
        assert_exact(lm, g)


class TestWorkBound:
    """IncLM and the rechecks work on the columns and vector entries a
    change reaches, however many landmarks the rest of the graph holds."""

    @staticmethod
    def work(k: int):
        g = disjoint_communities(k, 12, seed=5)
        lm = LandmarkIndex(g)
        # A shortcut out of a landmark inside community 0 (the same one
        # for every k), so its own column changes.
        x, y = next(
            (v, w) for v in range(12) if lm.has_landmark(v)
            for w in range(12)
            if v != w and 2 < path_distance(g, v, w) < INF
        )
        lm.reset_stats()
        g.add_edge(x, y)
        lm.insert_edge(x, y)
        assert lm.within(x, y, 1)
        return (
            lm.columns_visited, lm.entries_scanned, lm.nodes_touched(),
            len(lm.landmarks()),
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
    lm.check_invariants()
    assert_exact(lm, g)


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_within_agrees_with_pathdist(g):
    assert_exact(LandmarkIndex(g), g)


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
    """One index per horizon in ``HORIZONS``, fed the same batches."""
    g, all_landmarks, batches = case
    landmarks = list(g.nodes()) if all_landmarks else None
    indexes = [LandmarkIndex(g, landmarks, horizon=h) for h in HORIZONS]
    for toggles in batches:
        ins, dels = [], []
        for v, w in toggles:
            if g.has_edge(v, w):
                g.remove_edge(v, w)
                dels.append((v, w))
            else:
                g.add_edge(v, w)
                ins.append((v, w))
        for lm in indexes:
            lm.apply_batch(inserted=ins, deleted=dels)
            lm.check_invariants()
            assert_exact(lm, g)


@settings(max_examples=100, deadline=None)
@given(graphs_with_batches())
def test_inslm_adds_the_cover_endpoint_of_each_uncovered_edge(case):
    """A batch's pairs that are not edges yet are inserted; the batch adds,
    in order, :func:`cover_endpoint` of each inserted edge that no
    landmark covers when the index reaches it, and nothing else.  The
    index starts from the selected cover (an all-landmark one never
    grows)."""
    g, _, batches = case
    lm = LandmarkIndex(g)
    for pairs in batches:
        ins = [(v, w) for v, w in pairs if g.add_edge(v, w)]
        covered = set(lm.landmarks())
        added = []
        for x, y in ins:
            if x not in covered and y not in covered:
                added.append(cover_endpoint(g, x, y))
                covered.add(added[-1])
        before = lm.landmarks()
        lm.apply_batch(inserted=ins)
        assert lm.landmarks() == before + added
        lm.check_invariants()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_queries_exact_on_every_shape_under_churn(shape):
    """One index per horizon in ``HORIZONS``, fed the same batch."""
    g = shape_graph(shape)
    indexes = [LandmarkIndex(g, horizon=h) for h in HORIZONS]
    for lm in indexes:
        lm.check_invariants()
        assert_exact(lm, g)
    # One batch: delete an edge and insert one between two non-landmarks
    # (fresh nodes where the cover leaves fewer than two), which no
    # landmark covers, so InsLM adds one.  The horizon does not move the
    # cover, so the batch is the same for every index.
    lm = indexes[0]
    dels = sorted(g.edges(), key=repr)[:1]
    free = [v for v in g.nodes() if not lm.has_landmark(v)]
    free += ["fresh0", "fresh1"][: max(0, 2 - len(free))]
    x, y = free[-1], free[0]
    for e in dels:
        g.remove_edge(*e)
    g.add_edge(x, y)
    before = len(lm.landmarks())
    for lm in indexes:
        lm.apply_batch(inserted=[(x, y)], deleted=dels)
        assert len(lm.landmarks()) == before + 1
        lm.check_invariants()
        assert_exact(lm, g)
