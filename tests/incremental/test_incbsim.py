"""Tests for incremental bounded simulation (IncBMatch, paper Section 6)."""

import random
from functools import partial
from itertools import groupby

import pytest
from hypothesis import given, settings

from repro.engine import MatcherPool
from repro.engine.distances import SharedDistanceSubstrate
from repro.engine.eligibility import SharedEligibilityIndex
from repro.graphs.digraph import DiGraph
from repro.graphs.traversal import descendants_within
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match, bounded_match_naive
from repro.matching.relation import as_pairs, totalize
from repro.patterns.pattern import Pattern
from repro.workloads.updates import mixed_updates
from tests.routing_truth import (
    distances_from_every_node,
    edge_routes,
    pool_routes,
)
from tests.shapes import SHAPES, shape_graph
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

    @pytest.mark.parametrize("mode", ["psychic", "interval"])
    def test_unknown_mode_rejected(
        self, friendfeed_pattern, friendfeed_graph, mode
    ):
        with pytest.raises(ValueError):
            BoundedSimulationIndex(
                friendfeed_pattern, friendfeed_graph, distance_mode=mode
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


@pytest.mark.parametrize("mode", MODES)
class TestBatchSemantics:
    """Batch semantics hold in every standalone distance mode, matrix
    (the paper's IncBMatch_m) included."""

    def test_cancellation(self, friendfeed_pattern, friendfeed_graph, mode):
        idx = BoundedSimulationIndex(
            friendfeed_pattern, friendfeed_graph, distance_mode=mode
        )
        before = as_pairs(idx.raw_match_sets())
        idx.apply_batch([insert("Don", "Pat"), delete("Don", "Pat")])
        assert as_pairs(idx.raw_match_sets()) == before
        assert_matches_batch(idx)

    def test_delete_then_restore_via_insert(
        self, friendfeed_pattern, friendfeed_graph, mode
    ):
        """A pair broken by a deletion but rescued by an insertion in the
        same batch must survive."""
        idx = BoundedSimulationIndex(
            friendfeed_pattern, friendfeed_graph, distance_mode=mode
        )
        assert "Pat" in idx.matches()["DB"]
        idx.apply_batch([
            delete("Pat", "Bill"),   # Pat loses Bio within 1 hop ...
            insert("Pat", "Mat"),    # ... but gains another biologist
        ])
        assert "Pat" in idx.matches()["DB"]
        assert_matches_batch(idx)

    def test_naive_unit_loop_equals_batch(
        self, friendfeed_pattern, friendfeed_graph, mode
    ):
        updates = [
            insert("Don", "Pat"),
            insert("Pat", "Don"),
            delete("Ann", "Bill"),
            insert("Don", "Tom"),
        ]
        a, b = (
            BoundedSimulationIndex(
                friendfeed_pattern, friendfeed_graph.copy(), distance_mode=mode
            )
            for _ in range(2)
        )
        a.apply_batch(updates)
        b.apply_batch_naive(updates)
        assert as_pairs(a.raw_match_sets()) == as_pairs(b.raw_match_sets())

    def test_new_nodes_in_batch(self, friendfeed_pattern, friendfeed_graph, mode):
        idx = BoundedSimulationIndex(
            friendfeed_pattern, friendfeed_graph, distance_mode=mode
        )
        idx.graph.add_node("NewBio", job="Bio")
        idx.add_node("NewBio", job="Bio")
        idx.apply_batch([insert("Ann", "NewBio")])
        assert "NewBio" in idx.raw_match_sets()["Bio"]
        assert_matches_batch(idx)

    def test_update_counts_are_data_level(self, mode):
        """``original_updates`` / ``reduced_updates`` count the data-graph
        updates of a batch, not the pair edits repair makes of them: the
        pair ``(0, 3)`` that ``insert(0, 3)`` brings adds nothing."""
        g = DiGraph()
        for v in range(6):
            g.add_node(v, label="AC"[v % 2])
        for v in range(5):
            g.add_edge(v, v + 1)
        p = Pattern.from_spec(
            {"x": "label = A", "z": "label = C"}, [("x", "z", 2)]
        )
        idx = BoundedSimulationIndex(p, g, distance_mode=mode)
        assert not idx.has_pair(("x", "z"), 0, 3)
        idx.apply_batch([insert(0, 3), delete(1, 2), insert(5, 0)])
        assert idx.has_pair(("x", "z"), 0, 3)
        assert (idx.stats.original_updates, idx.stats.reduced_updates) == (
            3, 3
        )
        assert_matches_batch(idx)


# Pattern edges whose two eligible sides differ in size both ways on the
# "mixed-sides" fixture below (A: 12 nodes, B: 4, C: 8), with bounds 1,
# 2, 3 and *, a self-loop, and two pattern nodes sharing one predicate.
MIXED_PATTERN = Pattern.from_spec(
    {"a": "label = A", "b": "label = B", "c": "label = C", "c2": "label = C"},
    [
        ("a", "b", 2),
        ("a", "c2", None),
        ("b", "c", 3),
        ("b", "a", None),
        ("c", "c", 1),
        ("c2", "b", 1),
    ],
)


def _mixed_sides():
    rng = random.Random(26)
    g = DiGraph()
    for v, label in enumerate(["A"] * 12 + ["B"] * 4 + ["C"] * 8):
        g.add_node(v, label=label)
    for _ in range(60):
        g.add_edge(rng.randrange(24), rng.randrange(24))
    return g


def _labelled_shape(shape):
    g = shape_graph(shape)
    for i, v in enumerate(list(g.nodes())):
        g.set_attr(v, "label", "ABAC"[i % 4])
    return g


PAIR_GRAPHS = {
    "mixed-sides": _mixed_sides,
    **{
        f"shape-{shape}": partial(_labelled_shape, shape)
        for shape in SHAPES
    },
}


@pytest.mark.parametrize("name", sorted(PAIR_GRAPHS))
def test_pair_graph_build_equals_a_forward_build(name):
    """The build reads each pattern edge from its smaller eligible side,
    yet gives the pair graph a forward build per source gives, and
    inserts its pairs source-major: each source pair node lists its
    children in pattern-edge blocks, in the order the pattern lists its
    edges, and each target pair node lists its parents in the same
    blocks, each block in its sources' iteration order."""
    graph = PAIR_GRAPHS[name]()
    pattern = MIXED_PATTERN
    idx = BoundedSimulationIndex(pattern, graph)
    eligible = idx.eligible
    edges = list(pattern.edges())
    if name == "mixed-sides":
        sides = {len(eligible[u]) - len(eligible[u2]) for u, u2 in edges}
        assert min(sides) < 0 < max(sides)
    forward = {
        ((u, a), (u2, c))
        for u, u2 in edges
        for a in eligible[u]
        for c in descendants_within(graph, a, pattern.bound(u, u2))
        if c in eligible[u2]
    }
    pairs = idx._pair_graph
    assert pairs.edge_set() == forward
    for u in pattern.nodes():
        order = [u2 for x, u2 in edges if x == u]
        for a in eligible[u]:
            layers = [layer for layer, _ in pairs.children((u, a))]
            blocks = [layer for layer, _ in groupby(layers)]
            assert blocks == [u2 for u2 in order if u2 in layers], (u, a)
    for u2 in pattern.nodes():
        for c in eligible[u2]:
            parents = list(pairs.parents((u2, c)))
            assert parents == [
                (u, a)
                for u, x in edges
                if x == u2
                for a in eligible[u]
                if (u, a) in parents
            ], (u2, c)
    idx.check_invariants()
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


@pytest.mark.parametrize("mode", ["bfs", "landmark"])
def test_oracle_agrees_with_ground_truth(mode):
    """On a freshly registered pool query the router must route (x, y)
    to the interned query exactly when the textbook check holds: some
    eligible source a and eligible target c with d(a, x) + 1 + d(y, c)
    <= k (possibly-empty legs; no sum test for *), for some pattern
    edge."""
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
        view = q.index.join.query
        graph = pool.graph
        dist = distances_from_every_node(graph)
        for x in graph.nodes():
            for y in graph.nodes():
                truth = edge_routes(dist, view.index, x, y)
                got = pool_routes(pool, view, x, y)
                assert got == truth, (mode, k, x, y)


@pytest.mark.parametrize("mode", MODES)
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


@pytest.mark.parametrize("mode", MODES)
def test_substrate_backed_index_leases_and_releases_its_structure(mode):
    """A pool-registered index leases its mode's structure from the
    substrate instead of building its own, and release() gives back
    exactly that lease, however often it is called: another holder's
    lease survives.  The substrate keeps no matrix, so a matrix-mode
    index given one is refused before it leases anything."""
    graph = chain_graph()
    substrate = SharedDistanceSubstrate(graph)
    substrate.lease_landmarks()
    eligibility = SharedEligibilityIndex(graph)
    pattern = Pattern.from_spec(
        {"x": "label = A", "y": "label = B"}, [("x", "y", 3)]
    )

    def build():
        return BoundedSimulationIndex(
            pattern, graph, distance_mode=mode, substrate=substrate,
            eligibility=eligibility,
        )

    if mode == "matrix":
        with pytest.raises(ValueError, match="matrix"):
            build()
        assert substrate.live_structures() == {"landmark": 1}
        assert eligibility.num_entries() == 0
        return
    idx = build()
    leased = 2 if mode == "landmark" else 1
    assert substrate.live_structures() == {"landmark": leased}
    assert substrate.stats.lm_builds == 1
    if mode == "landmark":
        assert idx.landmark_index() is substrate.landmark_index()
    else:
        assert idx.landmark_index() is None
    assert as_pairs(idx.matches()) == {("x", "a"), ("y", "b")}
    idx.release()
    idx.release()
    assert substrate.live_structures() == {"landmark": 1}
    assert idx.landmark_index() is None


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


@pytest.mark.parametrize("mode", ["bfs", "landmark"])
@pytest.mark.parametrize("situation", sorted(ORACLE_SITUATIONS))
def test_oracle_tracks_pool_updates(situation, mode):
    """The router's verdict on the interned query follows edge updates
    and eligibility flips flushed through the pool, and stays equal to
    the textbook check after each flush."""
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
    view, graph = q.index.join.query, pool.graph

    def assert_textbook():
        dist = distances_from_every_node(graph)
        for x in graph.nodes():
            for y in graph.nodes():
                truth = edge_routes(dist, view.index, x, y)
                assert pool_routes(pool, view, x, y) == truth, (x, y)

    assert pool_routes(pool, view, *probe) is before
    assert_textbook()
    for updates, relabel in flushes:
        for v, label in relabel.items():
            pool.queue_node(v, label=label)
        report = pool.apply(updates)
        if situation == "far-update-declined":
            assert report.routed == 0
    assert pool_routes(pool, view, *probe) is after
    assert_textbook()
    assert as_pairs(q.matches()) == as_pairs(
        totalize(bounded_match_naive(q.pattern, graph))
    )


# x(A) and y(B) close a pattern cycle, so flips on it run through the SCC
# refinement; t takes every node (TRUE), so an attribute-less endpoint
# of an inserted edge gains it on arrival.
FLIP_PATTERN = Pattern.from_spec(
    {"x": "label = A", "y": "label = B", "t": None},
    [("x", "y", 2), ("y", "x", 3), ("y", "t", 1)],
)
FLIP_SITUATIONS = {
    "adjacent pair nodes lost together",
    "gained nodes pair with each other",
    "one node loses a layer and gains another",
    "a lost layer regained later",
    "a fresh endpoint gains the TRUE layer",
}


def _wired(idx):
    """The pair nodes ``idx`` holds in their layers, and its pair edges."""
    layers = {
        (u, v)
        for relation in (idx.raw_match_sets(), idx.candidates())
        for u, vs in relation.items()
        for v in vs
    }
    return layers, idx._pair_graph.edge_set()


def test_pool_flips_keep_the_pair_graph_exact():
    """A seeded pool stream of relabels, edge churn and fresh endpoints
    keeps the interned bounded index's pair graph and answer exact after
    every flush, and covers every order-sensitive flip situation at least
    once: two adjacent pair nodes losing their layers in one flush, two
    nodes gaining layers that pair with each other, one node losing a
    layer and gaining another, a node regaining a layer it lost in an
    earlier flush, and a fresh node gaining the TRUE layer through an
    inserted edge."""
    rng = random.Random(28)
    g = DiGraph()
    for v in range(10):
        g.add_node(v, label=rng.choice("ABC"))
    while g.num_edges() < 18:
        g.add_edge(rng.randrange(10), rng.randrange(10))
    pool = MatcherPool(g)
    q = pool.register(FLIP_PATTERN, semantics="bounded")
    idx, graph = q.index.join.query.index, pool.graph
    trivial = {
        u for u in idx.pattern.nodes() if idx.pattern.predicate(u).is_trivial()
    }
    seen, lost_before, fresh_ids = set(), set(), iter(range(100, 200))
    for _ in range(40):
        layers, edges = _wired(idx)
        nodes = list(graph.nodes())
        for v in rng.sample(nodes, rng.randint(1, 3)):
            pool.queue_node(v, label=rng.choice("ABC"))
        updates = []
        for _ in range(rng.randint(1, 3)):
            v, w = rng.choice(nodes), rng.choice(nodes)
            updates.append((delete if graph.has_edge(v, w) else insert)(v, w))
        fresh = next(fresh_ids) if rng.random() < 0.3 else None
        if fresh is not None:
            updates.append(insert(rng.choice(nodes), fresh))
        pool.apply(updates)
        idx.check_invariants()
        assert as_pairs(idx.raw_match_sets()) == as_pairs(
            bounded_match(idx.pattern, graph)
        )
        assert as_pairs(q.matches()) == as_pairs(
            totalize(bounded_match(FLIP_PATTERN, graph))
        )
        layers_after, edges_after = _wired(idx)
        lost, gained = layers - layers_after, layers_after - layers
        if any(a in lost and c in lost for a, c in edges):
            seen.add("adjacent pair nodes lost together")
        if any(
            a in gained and c in gained and a[1] != c[1]
            for a, c in edges_after
        ):
            seen.add("gained nodes pair with each other")
        if {v for _, v in lost} & {v for _, v in gained}:
            seen.add("one node loses a layer and gains another")
        if gained & lost_before:
            seen.add("a lost layer regained later")
        if any(c[0] in trivial and c[1] == fresh for _, c in edges_after):
            seen.add("a fresh endpoint gains the TRUE layer")
        lost_before |= lost
    assert seen == FLIP_SITUATIONS
