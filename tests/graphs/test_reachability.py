"""Unit tests for the SCC-interval reachability oracle.

Covers exactness of the labelling (fast accept + fast reject + pruned
fallback) against BFS ground truth, the budgeted rebuild-on-dirty policy
and its soundness direction (stale deletions may only widen answers,
insertions force a rebuild), component-closure queries, and the cached
:class:`ReachClosure` consulted by interval-mode update routing.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.columnar import as_backend
from repro.graphs.digraph import DiGraph
from repro.graphs.reachability import IntervalReachabilityIndex, ReachClosure
from repro.graphs.traversal import reachable_set
from tests.strategies import small_graphs


def _chain_with_cycle():
    # a -> b -> (c <-> d) -> e   plus an off-path island {x -> y}
    return DiGraph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "c"), ("d", "e"),
         ("x", "y")]
    )


class TestExactness:
    def test_reflexive_and_transitive(self):
        r = IntervalReachabilityIndex(_chain_with_cycle())
        assert r.reachable("a", "a")  # empty path
        assert r.reachable("a", "e")
        assert r.reachable("c", "d") and r.reachable("d", "c")  # cycle
        assert not r.reachable("e", "a")
        assert not r.reachable("a", "y")
        assert r.reachable("x", "y")

    def test_unknown_nodes_are_isolated(self):
        r = IntervalReachabilityIndex(DiGraph([("a", "b")]))
        assert r.reachable("ghost", "ghost") is True  # reflexive
        assert not r.reachable("ghost", "a")
        assert not r.reachable("a", "ghost")

    def test_check_exact_on_dense_cycle_mesh(self):
        g = DiGraph()
        rng = random.Random(11)
        for _ in range(60):
            g.add_edge(rng.randrange(14), rng.randrange(14))
        IntervalReachabilityIndex(g).check_exact()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            IntervalReachabilityIndex(DiGraph(), rebuild_budget=-1)


class TestRebuildPolicy:
    def test_insert_forces_rebuild_before_routing_consult(self):
        g = DiGraph([("a", "b")])
        r = IntervalReachabilityIndex(g, rebuild_budget=100)
        assert not r.may_reach("b", "a")
        g.add_edge("b", "a")
        r.notify_edges_inserted()
        assert r.dirty
        # Even the stale-tolerant entry point must see the new edge.
        assert r.may_reach("b", "a")
        assert not r.dirty

    def test_deletions_tolerated_within_budget(self):
        g = DiGraph([("a", "b"), ("b", "c")])
        r = IntervalReachabilityIndex(g, rebuild_budget=5)
        assert r.may_reach("a", "c")
        g.remove_edge("b", "c")
        r.notify_edges_deleted()
        builds = r.rebuild_count
        # Routing-grade answer may stay True (sound over-approximation)…
        assert r.may_reach("a", "c")
        assert r.rebuild_count == builds  # …without rebuilding.
        # The exact entry point rebuilds and narrows.
        assert not r.reachable("a", "c")
        assert r.rebuild_count == builds + 1

    def test_deletions_beyond_budget_rebuild(self):
        g = DiGraph([("a", "b")])
        r = IntervalReachabilityIndex(g, rebuild_budget=1)
        g.remove_edge("a", "b")
        r.notify_edges_deleted()
        r.notify_node_removed()  # counts as a deletion too
        builds = r.rebuild_count
        assert not r.may_reach("a", "b")
        assert r.rebuild_count == builds + 1

    def test_version_bumps_on_rebuild_only(self):
        g = DiGraph([("a", "b")])
        r = IntervalReachabilityIndex(g)
        v = r.version
        r.notify_edges_deleted()
        assert r.version == v  # dirty, not rebuilt
        r.reachable("a", "b")
        assert r.version == v + 1


class TestClosures:
    def test_closure_components_forward_and_reverse(self):
        r = IntervalReachabilityIndex(_chain_with_cycle())
        fwd = r.closure_components(["b"])
        assert all(
            (r.component_of(n) in fwd) == r.reachable("b", n)
            for n in "abcdexy"
        )
        rev = r.closure_components(["d"], reverse=True)
        assert all(
            (r.component_of(n) in rev) == r.reachable(n, "d")
            for n in "abcdexy"
        )

    def test_reach_closure_tracks_membership_and_graph(self):
        g = _chain_with_cycle()
        r = IntervalReachabilityIndex(g)
        # An EligibleSet-shaped member set: its owner bumps ``version``
        # on every membership change.
        eligible = SimpleNamespace(members={"b"}, version=0)
        cl = ReachClosure(r, eligible, reverse=False)
        assert cl.contains("e") and not cl.contains("a")
        eligible.members.add("x")
        assert not cl.contains("y")  # cached until the version moves
        eligible.version += 1
        assert cl.contains("y")
        g.add_edge("e", "a")
        r.notify_edges_inserted()
        # Version bump on rebuild invalidates the cache too.
        assert cl.contains("a")

    def test_reach_closure_unknown_node_falls_back_to_membership(self):
        g = DiGraph([("a", "b")])
        r = IntervalReachabilityIndex(g)
        cl = ReachClosure(r, SimpleNamespace(members={"fresh"}, version=0))
        # 'fresh' was never labelled: reachable from the member set only
        # via the empty path, i.e. iff it is itself a member.
        assert cl.contains("fresh")
        assert not cl.contains("other-fresh")


class TestBudgetBoundaries:
    """Boundary semantics of the budgeted rebuild policy: ``budget=0``
    must tolerate *no* stale deletions at the routing entry point, and
    nodes added after the last rebuild must answer soundly both before
    and after a same-flush edge touches them."""

    def test_budget_zero_first_delete_rebuilds_at_routing_consult(self):
        g = DiGraph([("a", "b"), ("b", "c")])
        r = IntervalReachabilityIndex(g, rebuild_budget=0)
        before = r.rebuild_count
        g.remove_edge("a", "b")
        r.notify_edges_deleted()
        # One pending delete exceeds a zero budget: may_reach answers
        # exactly, not with the stale over-approximation.
        assert not r.may_reach("a", "c")
        assert r.rebuild_count == before + 1
        assert not r.dirty

    def test_budget_one_tolerates_exactly_one_delete(self):
        g = DiGraph([("a", "b"), ("b", "c"), ("a", "d")])
        r = IntervalReachabilityIndex(g, rebuild_budget=1)
        before = r.rebuild_count
        g.remove_edge("a", "b")
        r.notify_edges_deleted()
        # Within budget: stale answer over-approximates (sound), no rebuild.
        assert r.may_reach("a", "c")
        assert r.rebuild_count == before
        g.remove_edge("a", "d")
        r.notify_edges_deleted()
        # Second delete crosses the budget: exact again.
        assert not r.may_reach("a", "c")
        assert r.rebuild_count == before + 1

    def test_fresh_node_touched_by_same_flush_edge(self):
        # A node added after the last rebuild is unknown to the labelling
        # (isolated semantics) — sound only while it stays edge-less.  An
        # edge touching it in the same flush arrives as an insertion and
        # must force a rebuild before the next consult.
        g = DiGraph([("a", "b")])
        r = IntervalReachabilityIndex(g, rebuild_budget=2)
        g.add_node("z")  # node adds carry no notification on purpose
        g.add_edge("b", "z")
        r.notify_edges_inserted()
        g.add_edge("z", "c")  # "c" is itself brand new, same flush
        r.notify_edges_inserted()
        assert r.may_reach("a", "z")
        assert r.may_reach("a", "c")
        assert r.may_reach("z", "c")
        assert not r.may_reach("c", "a")

    def test_fresh_node_under_tolerated_deletes_stays_isolated_soundly(self):
        g = DiGraph([("a", "b"), ("a", "c")])
        r = IntervalReachabilityIndex(g, rebuild_budget=2)
        g.remove_edge("a", "c")
        r.notify_edges_deleted()
        g.add_node("z")
        # No rebuild happened (delete within budget), so "z" is unknown:
        # reflexive via the empty path, unreachable from anything else —
        # exactly the truth, since a fresh node is edge-less.
        assert r.may_reach("z", "z")
        assert not r.may_reach("a", "z")
        assert not r.may_reach("z", "a")
        assert r.may_reach("a", "c")  # stale delete: sound over-approx
        assert not r.reachable("a", "c")  # exact entry point rebuilds

    def test_removed_then_readded_node_never_underapproximates(self):
        # remove_node + re-add recycles the name while the stale labelling
        # still maps it to its old component; every answer must stay an
        # over-approximation until an insertion forces the rebuild.
        g = DiGraph([("a", "b"), ("b", "c")])
        r = IntervalReachabilityIndex(g, rebuild_budget=4)
        g.remove_node("b")
        r.notify_node_removed()
        g.add_node("b")  # fresh, edge-less, same name
        assert r.may_reach("b", "b")
        assert r.may_reach("a", "b")  # stale True: sound over-approx
        assert not r.reachable("a", "b")
        g.add_edge("c", "b")
        r.notify_edges_inserted()
        assert r.may_reach("c", "b")  # insert forced exactness
        assert not r.may_reach("a", "b")


@settings(max_examples=12, deadline=None)
@given(
    small_graphs(),
    st.integers(min_value=0, max_value=3),
    st.randoms(use_true_random=False),
)
def test_budget_sweep_never_underapproximates(g, budget, rnd):
    """Property: for every budget in 0..3, across a random op stream of
    edge inserts/deletes and node removals/re-adds, ``may_reach`` is never
    falsely False against BFS ground truth (and ``reachable`` stays
    exact).  Run on both graph backends — on columnar, re-adds recycle
    interner slots under the oracle."""
    for backend in ("dict", "columnar"):
        h = as_backend(g.copy(), backend)
        r = IntervalReachabilityIndex(h, rebuild_budget=budget)
        nodes = list(range(10))
        for step in range(40):
            v, w = rnd.choice(nodes), rnd.choice(nodes)
            roll = rnd.random()
            if roll < 0.45:
                h.add_node(v)
                h.add_node(w)
                if h.add_edge(v, w):
                    r.notify_edges_inserted()
            elif roll < 0.75:
                if h.has_edge(v, w):
                    h.remove_edge(v, w)
                    r.notify_edges_deleted()
            elif roll < 0.9:
                if h.has_node(v):
                    h.remove_node(v)
                    r.notify_node_removed()
            else:
                h.add_node(v)  # possibly a re-add recycling a slot
            x, y = rnd.choice(nodes), rnd.choice(nodes)
            if h.has_node(x) and h.has_node(y):
                truth = y in reachable_set(h, [x])
                if truth:
                    assert r.may_reach(x, y), (
                        f"under-approximation: budget={budget} "
                        f"backend={backend} step={step} pair=({x}, {y})"
                    )
                assert r.reachable(x, y) == truth
        r.check_exact()


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_oracle_matches_bfs_truth(g):
    r = IntervalReachabilityIndex(g)
    for x in g.nodes():
        truth = reachable_set(g, [x])
        for y in g.nodes():
            assert r.reachable(x, y) == (y in truth)


@settings(max_examples=20, deadline=None)
@given(small_graphs())
def test_churn_soundness_and_exactness(g):
    """Under random churn with a small budget: may_reach is never falsely
    False, and reachable stays exact — on both graph backends."""
    for backend in ("dict", "columnar"):
        h = as_backend(g.copy(), backend)
        r = IntervalReachabilityIndex(h, rebuild_budget=3)
        rng = random.Random(7)
        nodes = list(range(10))
        for _ in range(50):
            v, w = rng.choice(nodes), rng.choice(nodes)
            if rng.random() < 0.55:
                h.add_node(v)
                h.add_node(w)
                if h.add_edge(v, w):
                    r.notify_edges_inserted()
            else:
                if h.has_edge(v, w):
                    h.remove_edge(v, w)
                    r.notify_edges_deleted()
            x, y = rng.choice(nodes), rng.choice(nodes)
            if h.has_node(x) and h.has_node(y):
                truth = y in reachable_set(h, [x])
                if truth:
                    assert r.may_reach(x, y)
                assert r.reachable(x, y) == truth
