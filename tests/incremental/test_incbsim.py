"""Tests for incremental bounded simulation (IncBMatch, paper Section 6)."""

import random

import pytest
from hypothesis import given, settings

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match_naive
from repro.matching.relation import as_pairs, totalize
from repro.patterns.pattern import Pattern
from repro.workloads.updates import mixed_updates
from tests.routing_truth import distances_from_every_node, edge_routes
from tests.strategies import small_graphs, small_patterns

MODES = ["bfs", "landmark", "matrix"]


def assert_matches_batch(idx: BoundedSimulationIndex) -> None:
    batch = bounded_match_naive(idx.pattern, idx.graph)
    assert as_pairs(idx.raw_match_sets()) == as_pairs(batch)
    idx.check_invariants()


class TestConstruction:
    def test_initial_match(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        match = idx.matches()
        assert match["CTO"] == {"Ann"}
        assert match["DB"] == {"Pat", "Dan"}
        assert_matches_batch(idx)

    def test_unknown_mode_rejected(self, friendfeed_pattern, friendfeed_graph):
        with pytest.raises(ValueError):
            BoundedSimulationIndex(
                friendfeed_pattern, friendfeed_graph, distance_mode="psychic"
            )

    def test_pair_graph_mirrors_distances(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        # CTO ->(2) DB: Ann reaches Pat (1 hop) and Dan (2 hops).
        assert idx.has_pair(("CTO", "DB"), "Ann", "Pat")
        assert idx.has_pair(("CTO", "DB"), "Ann", "Dan")
        # Don has no outgoing edges yet: no pairs.
        assert not idx.has_pair(("CTO", "DB"), "Don", "Pat")


class TestPaperScenario:
    """Example 4.1 / Fig. 5: inserting e1-e5 brings in Don and Tom."""

    def test_insert_e2_adds_don_and_keeps_rest(
        self, friendfeed_pattern, friendfeed_graph
    ):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        idx.insert_edge("Don", "Pat")   # e2
        idx.insert_edge("Pat", "Don")   # e1 (gives Don's DB->CTO * path)
        idx.insert_edge("Don", "Tom")   # e3
        match = idx.matches()
        assert "Don" in match["CTO"]
        assert "Tom" in match["Bio"]
        assert_matches_batch(idx)

    def test_result_graph_after_updates(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        for e in [("Don", "Pat"), ("Pat", "Don"), ("Don", "Tom"),
                  ("Dan", "Don"), ("Don", "Dan")]:
            idx.insert_edge(*e)
        gr = idx.result_graph()
        assert gr.has_node("Don")
        assert gr.has_edge("Don", "Tom")
        assert gr.has_edge("Don", "Pat")

    def test_deletion_reverts(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        idx.insert_edge("Don", "Pat")
        idx.insert_edge("Pat", "Don")
        idx.insert_edge("Don", "Tom")
        assert "Don" in idx.matches()["CTO"]
        idx.delete_edge("Don", "Tom")
        # Don loses the 1-hop biologist.
        assert "Don" not in idx.matches()["CTO"]
        assert_matches_batch(idx)


class TestStarBounds:
    def test_star_edge_tracks_reachability(self):
        g = DiGraph()
        for n, lab in (("a", "A"), ("m", "M"), ("z", "Z")):
            g.add_node(n, label=lab)
        g.add_edge("a", "m")
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = Z"}, [("x", "y", "*")]
        )
        idx = BoundedSimulationIndex(p, g)
        assert idx.matches()["x"] == set()
        idx.insert_edge("m", "z")
        assert idx.raw_match_sets()["x"] == {"a"}
        idx.delete_edge("a", "m")
        assert idx.matches()["x"] == set()
        assert_matches_batch(idx)

    def test_long_star_path(self):
        g = DiGraph()
        g.add_node(0, label="A")
        for i in range(1, 8):
            g.add_node(i, label="mid")
            g.add_edge(i - 1, i)
        g.add_node("end", label="Z")
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = Z"}, [("x", "y", "*")]
        )
        idx = BoundedSimulationIndex(p, g)
        idx.insert_edge(7, "end")
        assert idx.raw_match_sets()["x"] == {0}
        idx.delete_edge(3, 4)  # break the middle of the path
        assert idx.matches()["x"] == set()
        assert_matches_batch(idx)


@pytest.mark.parametrize("mode", MODES)
class TestModes:
    def test_unit_updates(self, friendfeed_pattern, friendfeed_graph, mode):
        idx = BoundedSimulationIndex(
            friendfeed_pattern, friendfeed_graph, distance_mode=mode
        )
        idx.insert_edge("Don", "Pat")
        idx.insert_edge("Pat", "Don")
        idx.delete_edge("Pat", "Bill")
        assert_matches_batch(idx)

    def test_batch_updates(self, friendfeed_pattern, friendfeed_graph, mode):
        idx = BoundedSimulationIndex(
            friendfeed_pattern, friendfeed_graph, distance_mode=mode
        )
        idx.apply_batch([
            insert("Don", "Pat"),
            insert("Pat", "Don"),
            insert("Don", "Tom"),
            delete("Dan", "Mat"),
            insert("Dan", "Tom"),
        ])
        assert_matches_batch(idx)

    def test_landmark_index_exposed(self, friendfeed_pattern, friendfeed_graph, mode):
        idx = BoundedSimulationIndex(
            friendfeed_pattern, friendfeed_graph, distance_mode=mode
        )
        lm = idx.landmark_index()
        assert (lm is not None) == (mode == "landmark")


class TestBatchSemantics:
    def test_cancellation(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        before = as_pairs(idx.raw_match_sets())
        idx.apply_batch([insert("Don", "Pat"), delete("Don", "Pat")])
        assert as_pairs(idx.raw_match_sets()) == before
        assert_matches_batch(idx)

    def test_delete_then_restore_via_insert(self, friendfeed_pattern, friendfeed_graph):
        """A pair broken by a deletion but rescued by an insertion in the
        same batch must survive."""
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        assert "Pat" in idx.matches()["DB"]
        idx.apply_batch([
            delete("Pat", "Bill"),   # Pat loses Bio within 1 hop ...
            insert("Pat", "Mat"),    # ... but gains another biologist
        ])
        assert "Pat" in idx.matches()["DB"]
        assert_matches_batch(idx)

    def test_naive_unit_loop_equals_batch(self, friendfeed_pattern, friendfeed_graph):
        updates = [
            insert("Don", "Pat"),
            insert("Pat", "Don"),
            delete("Ann", "Bill"),
            insert("Don", "Tom"),
        ]
        a = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph.copy())
        b = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph.copy())
        a.apply_batch(updates)
        b.apply_batch_naive(updates)
        assert as_pairs(a.raw_match_sets()) == as_pairs(b.raw_match_sets())

    def test_new_nodes_in_batch(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        idx.graph.add_node("NewBio", job="Bio")
        idx.add_node("NewBio", job="Bio")
        idx.apply_batch([insert("Ann", "NewBio")])
        assert "NewBio" in idx.raw_match_sets()["Bio"]
        assert_matches_batch(idx)


@settings(max_examples=30, deadline=None)
@given(small_graphs(), small_patterns())
def test_random_unit_updates_match_batch(g, p):
    idx = BoundedSimulationIndex(p, g.copy())
    for u in mixed_updates(g, 3, 3, seed=41):
        if u.op == "insert":
            idx.insert_edge(u.source, u.target)
        else:
            idx.delete_edge(u.source, u.target)
        assert_matches_batch(idx)


@settings(max_examples=30, deadline=None)
@given(small_graphs(), small_patterns())
def test_random_batches_match_batch(g, p):
    idx = BoundedSimulationIndex(p, g.copy())
    for seed in (51, 52):
        idx.apply_batch(mixed_updates(idx.graph, 4, 4, seed=seed))
        assert_matches_batch(idx)


@settings(max_examples=15, deadline=None)
@given(small_graphs(max_nodes=6), small_patterns(max_nodes=3))
def test_all_modes_agree(g, p):
    batches = [mixed_updates(g, 3, 3, seed=61)]
    results = []
    for mode in MODES:
        idx = BoundedSimulationIndex(p, g.copy(), distance_mode=mode)
        for batch in batches:
            idx.apply_batch(batch)
        results.append(as_pairs(idx.raw_match_sets()))
    assert results[0] == results[1] == results[2]


def chain_graph():
    """a -> m1 -> m2 -> b, with predicates only matching the ends."""
    g = DiGraph()
    g.add_node("a", label="A")
    g.add_node("b", label="B")
    g.add_node("m1", label="M")
    g.add_node("m2", label="M")
    g.add_edge("a", "m1")
    g.add_edge("m1", "m2")
    g.add_edge("m2", "b")
    return g


@pytest.mark.parametrize("mode", ["bfs", "landmark", "matrix"])
def test_oracle_agrees_with_ground_truth(mode):
    """On a freshly registered pool query the substrate-backed oracle
    must equal the textbook check: some eligible source a and eligible
    target c with d(a, x) + 1 + d(y, c) <= k (possibly-empty legs; no sum
    test for *), for some pattern edge."""
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(3, 7)
        g = DiGraph()
        for v in range(n):
            g.add_node(v, label=rng.choice(["A", "B", "M"]))
        for _ in range(rng.randint(2, 2 * n)):
            g.add_edge(rng.randrange(n), rng.randrange(n))
        k = rng.choice([2, 3, None])
        pattern = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"},
            [("x", "y", k)],
        )
        pool = MatcherPool(g)
        q = pool.register(pattern, semantics="bounded", distance_mode=mode)
        assert q.distance_routed
        idx = q.index
        graph = pool.graph
        dist = distances_from_every_node(graph)
        for x in graph.nodes():
            for y in graph.nodes():
                truth = edge_routes(dist, idx, x, y)
                assert idx.can_affect_edge(x, y) == truth, (mode, k, x, y)


@pytest.mark.parametrize("mode", MODES + ["interval"])
def test_pairs_rechecked_counts_the_suspects(mode):
    """stats.pairs_rechecked counts the suspect pairs IncBMatch-
    rechecks, in every distance mode; reset() zeroes it."""
    pattern = Pattern.from_spec(
        {"x": "label = A", "y": "label = B"}, [("x", "y", 3)]
    )
    idx = BoundedSimulationIndex(pattern, chain_graph(), distance_mode=mode)
    # (a, b) is the one pair through m1 -> m2: 1 + 1 + 1 <= 3.
    idx.delete_edge("m1", "m2")
    assert idx.stats.pairs_rechecked == 1
    assert idx.matches()["x"] == set()
    idx.insert_edge("m1", "m2")
    assert idx.stats.pairs_rechecked == 1
    idx.stats.reset()
    assert idx.stats.pairs_rechecked == 0


def test_interval_deletion_that_suspects_nothing_builds_no_labelling():
    """A standalone interval index builds its reachability labelling on
    its first recheck; deleting an edge no pair runs through suspects
    nothing, so it must build none."""
    g = DiGraph()
    for v, label in (("a", "A"), ("c", "C"), ("p", "Z"), ("q", "Z")):
        g.add_node(v, label=label)
    g.add_edge("a", "c")
    g.add_edge("p", "q")
    pattern = Pattern.from_spec(
        {"x": "label = A", "y": "label = C"}, [("x", "y", 2)]
    )
    idx = BoundedSimulationIndex(pattern, g, distance_mode="interval")
    idx.delete_edge("p", "q")
    assert idx.reachability_index() is None
    assert as_pairs(idx.matches()) == {("x", "a"), ("y", "c")}
    assert_matches_batch(idx)


def test_standalone_index_has_no_routing_oracle():
    """The routing oracle reads pool substrate structures only."""
    pattern = Pattern.from_spec(
        {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
    )
    idx = BoundedSimulationIndex(pattern, chain_graph())
    with pytest.raises(RuntimeError):
        idx.can_affect_edge("a", "m1")


CHAIN_EDGES = [("a", "m1"), ("m1", "m2"), ("m2", "b")]
# name -> (labels, edges, bound k of x -> y, probed edge, its verdict
# before and after, flushes of (edge updates, {node: new label})).
ORACLE_SITUATIONS = {
    # A new edge puts c one hop from the source a.
    "insert-grows": (
        {"a": "A", "b": "B", "c": "M"}, [], 2, ("c", "b"), False, True,
        [([insert("a", "c")], {})],
    ),
    # m1 becomes a source one hop before m2.
    "gain-grows": (
        {"a": "A", "m1": "M", "m2": "M", "b": "B"}, CHAIN_EDGES, 2,
        ("m2", "b"), False, True, [([], {"m1": "A"})],
    ),
    # The only path from the source a into m1 is cut.
    "deletion-tightens": (
        {"a": "A", "m1": "M", "m2": "M", "b": "B"}, CHAIN_EDGES, 3,
        ("m1", "m2"), True, False, [([delete("a", "m1")], {})],
    ),
    # m1 stops being the source one hop before m2.
    "loss-tightens": (
        {"a": "A", "m1": "A", "m2": "M", "b": "B"}, CHAIN_EDGES, 2,
        ("m2", "b"), True, False, [([], {"m1": "M"})],
    ),
    # Churn in a foreign component is declined both ways and moves
    # nothing.
    "far-update-declined": (
        {"a": "A", "m1": "M", "m2": "M", "b": "B", "p": "Z", "q": "Z"},
        CHAIN_EDGES + [("p", "q")], 2, ("p", "q"), False, False,
        [([delete("p", "q")], {}), ([insert("p", "q")], {})],
    ),
}


@pytest.mark.parametrize("mode", ["bfs", "landmark", "matrix"])
@pytest.mark.parametrize("situation", sorted(ORACLE_SITUATIONS))
def test_oracle_tracks_pool_updates(situation, mode):
    """The oracle follows edge updates and eligibility flips flushed
    through the pool, and stays equal to the textbook check after each
    flush."""
    labels, edges, k, probe, before, after, flushes = ORACLE_SITUATIONS[
        situation
    ]
    g = DiGraph()
    for v, label in labels.items():
        g.add_node(v, label=label)
    for v, w in edges:
        g.add_edge(v, w)
    pool = MatcherPool(g)
    q = pool.register(
        Pattern.from_spec(
            {"x": "label = A", "y": "label = B"}, [("x", "y", k)]
        ),
        semantics="bounded", distance_mode=mode,
    )
    idx, graph = q.index, pool.graph

    def assert_textbook():
        dist = distances_from_every_node(graph)
        for x in graph.nodes():
            for y in graph.nodes():
                truth = edge_routes(dist, idx, x, y)
                assert idx.can_affect_edge(x, y) == truth, (x, y)

    assert idx.can_affect_edge(*probe) is before
    assert_textbook()
    for updates, relabel in flushes:
        for v, label in relabel.items():
            pool.queue_node(v, label=label)
        report = pool.apply(updates)
        if situation == "far-update-declined":
            assert report.routed == 0
    assert idx.can_affect_edge(*probe) is after
    assert_textbook()
    assert as_pairs(q.matches()) == as_pairs(
        totalize(bounded_match_naive(q.pattern, graph))
    )
