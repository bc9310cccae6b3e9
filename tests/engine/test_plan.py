"""Tests for the pool-level multi-query plan (engine/plan.py)."""

import pytest

from repro.engine.plan import PlannedQuery
from repro.engine.pool import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match
from repro.matching.relation import as_pairs, totalize
from repro.matching.result_graph import simulation_result_graph
from repro.patterns.pattern import Pattern, PatternError


def chain_graph() -> DiGraph:
    g = DiGraph()
    for i, lab in enumerate("ABCABC"):
        g.add_node(f"n{i}", label=lab)
    g.add_edge("n0", "n1")  # A -> B
    g.add_edge("n1", "n2")  # B -> C
    g.add_edge("n3", "n4")  # A -> B
    g.add_edge("n4", "n5")  # B -> C
    g.add_edge("n0", "n4")  # A -> B (cross)
    return g


def two_leg_pattern(bound=2, names=("x", "y", "z")) -> Pattern:
    x, y, z = names
    p = Pattern()
    p.add_node(x, "label = A")
    p.add_node(y, "label = B")
    p.add_node(z, "label = C")
    p.add_edge(x, y, bound)
    p.add_edge(y, z, bound)
    return p


def chain_pool(**kwargs) -> MatcherPool:
    return MatcherPool(chain_graph(), **kwargs)


class TestInterning:
    def test_identical_patterns_share_one_join(self):
        pool = chain_pool()
        pool.register(two_leg_pattern(), name="q0")
        pool.register(two_leg_pattern(names=("u", "v", "w")), name="q1")
        assert pool.plan.num_joins() == 1
        assert pool.plan.num_leases() == 2
        # One interned index serves both spellings.
        assert len(pool.plan.views()) == 1

    def test_shared_legs_across_different_patterns(self):
        pool = chain_pool()
        pool.register(two_leg_pattern(), name="q0")
        # Its only edge is q0's first edge, but it is another pattern.
        leg = Pattern.from_spec(
            {"s": "label = A", "t": "label = B"}, [("s", "t", 2)]
        )
        pool.register(leg, name="q1")
        assert pool.plan.num_joins() == 2
        assert len(pool.plan.views()) == 2

    def test_duplicate_legs_inside_one_pattern(self):
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = B", "z": "label = B"},
            [("x", "y", 2), ("x", "z", 2)],
        )
        pool = chain_pool()
        q = pool.register(p, name="q0")
        # The whole pattern is one index, repeated edges and all.
        assert pool.plan.num_joins() == 1
        assert len(pool.plan.views()) == 1
        truth = totalize(bounded_match(p, pool.graph))
        assert q.matches() == truth

    def test_bounds_separate_views(self):
        pool = chain_pool()
        pool.register(two_leg_pattern(bound=2), name="q0")
        pool.register(two_leg_pattern(bound=3), name="q1")
        assert pool.plan.num_joins() == 2
        assert len(pool.plan.views()) == 2

    def test_distance_mode_separates_joins(self):
        pool = chain_pool()
        p = Pattern.from_spec(
            {"a": "label = A", "b": "label = B"}, [("a", "b", 2)]
        )
        pool.register(p, name="q0", distance_mode="bfs")
        pool.register(p, name="q1", distance_mode="landmark")
        assert pool.plan.num_joins() == 2
        assert pool.substrate.live_structures()["landmark"] == 1

    def test_one_routing_member_per_planned_pattern(self):
        pool = chain_pool()
        triangle = Pattern.from_spec(
            {"x": "label = A", "y": "label = B", "z": "label = C"},
            [("x", "y", 1), ("y", "z", 1), ("z", "x", 1)],
        )
        pool.register(triangle, semantics="simulation", name="q0")
        report = pool.apply([insert("n2", "n0")])
        assert report.routed + report.skipped == 1


class TestLifecycle:
    def test_unregister_releases_views_and_leases(self):
        pool = chain_pool()
        q0 = pool.register(
            two_leg_pattern(), name="q0", distance_mode="landmark"
        )
        q1 = pool.register(
            two_leg_pattern(names=("u", "v", "w")),
            name="q1",
            distance_mode="landmark",
        )
        pool.unregister(q0)
        # The join and its index survive while q1 still leases them.
        assert pool.plan.num_joins() == 1
        assert len(pool.plan.views()) == 1
        assert pool.substrate.live_structures()["landmark"] == 1
        pool.unregister(q1)
        assert pool.plan.num_joins() == 0
        assert pool.plan.views() == []
        # Every eligibility and substrate lease was returned.
        assert pool.eligibility.num_entries() == 0
        assert not any(pool.substrate.live_structures().values())

    @pytest.mark.parametrize("bound, routed", [(2, True), (1, False)])
    def test_planned_query_type_and_flags(self, bound, routed):
        pool = chain_pool()
        q = pool.register(two_leg_pattern(bound=bound), name="q0")
        assert isinstance(q, PlannedQuery)
        assert q.planned and not q.internal
        # It reports the routing class of the interned query it reads.
        assert q.index.join.query.distance_routed is routed
        assert q.distance_routed is routed

    def test_iso_falls_back_to_per_query(self):
        pool = chain_pool()
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"}, [("x", "y", 1)]
        )
        q = pool.register(p, semantics="isomorphism", name="iso")
        assert not q.planned
        assert pool.plan.num_joins() == 0

    def test_simulation_requires_normal_pattern(self):
        pool = chain_pool()
        with pytest.raises(PatternError):
            pool.register(two_leg_pattern(bound=2), semantics="simulation")

    @pytest.mark.parametrize("semantics", ["bounded", "simulation"])
    def test_shared_plan_scope_is_the_default(self, semantics):
        pool = chain_pool()
        bound = 2 if semantics == "bounded" else 1
        q0 = pool.register(
            two_leg_pattern(bound=bound), semantics=semantics, name="q0"
        )
        q1 = pool.register(
            two_leg_pattern(bound=bound, names=("u", "v", "w")),
            semantics=semantics,
            name="q1",
            plan_scope="shared",
        )
        assert q0.planned and q1.planned
        assert q0.index.join is q1.index.join

    @pytest.mark.parametrize("scope", ["per-query", "bogus", ""])
    def test_bad_plan_scope_rejected_before_anything_is_leased(self, scope):
        with pytest.raises(TypeError):
            MatcherPool(chain_graph(), plan_scope="shared")
        pool = chain_pool()
        pool.register(two_leg_pattern(), name="kept")
        pool.queue(insert("n2", "n3"))

        def snapshot():
            return (
                pool.eligibility.live_entries(),
                pool.substrate.live_structures(),
                pool.plan.num_joins(),
                len(pool),
                pool.pending,
            )

        before = snapshot()
        with pytest.raises(ValueError, match="plan_scope"):
            pool.register(
                two_leg_pattern(bound=3), semantics="bounded",
                distance_mode="landmark", plan_scope=scope,
            )
        assert snapshot() == before


class TestCorrectness:
    def test_matches_track_updates(self):
        pool = chain_pool()
        p = two_leg_pattern()
        q = pool.register(p, name="q0")
        assert q.matches() == totalize(bounded_match(p, pool.graph))
        pool.apply([delete("n1", "n2"), insert("n2", "n0")])
        assert q.matches() == totalize(bounded_match(p, pool.graph))
        pool.apply([insert("n1", "n2")])
        assert q.matches() == totalize(bounded_match(p, pool.graph))

    def test_attr_flips_track(self):
        pool = chain_pool()
        p = two_leg_pattern()
        q = pool.register(p, name="q0")
        pool.add_node("n1", label="X")  # breaks the B in the chain
        assert q.matches() == totalize(bounded_match(p, pool.graph))
        pool.add_node("n1", label="B")
        assert q.matches() == totalize(bounded_match(p, pool.graph))

    def test_fresh_wildcard_nodes(self):
        pool = chain_pool()
        p = Pattern.from_spec({"x": None, "y": "label = B"}, [("x", "y", 2)])
        q = pool.register(p, name="q0")
        pool.apply([insert("fresh1", "n1")])  # attribute-less endpoint
        assert q.matches() == totalize(bounded_match(p, pool.graph))

    def test_deltas_match_batch_recomputation(self):
        pool = chain_pool()
        p = two_leg_pattern()
        q = pool.register(p, name="q0")
        feed = q.subscribe()
        before = as_pairs(totalize(bounded_match(p, pool.graph)))
        for ops in (
            [delete("n1", "n2")],
            [insert("n1", "n2"), insert("n5", "n0")],
            [delete("n0", "n4"), delete("n3", "n4")],
        ):
            pool.apply(list(ops))
            after = as_pairs(totalize(bounded_match(p, pool.graph)))
            assert after != before
            assert [(d.added, d.removed) for d in feed.drain()] == [
                (after - before, before - after)
            ]
            before = after

    @pytest.mark.parametrize("semantics", ["bounded", "simulation"])
    def test_result_graph_matches_batch(self, semantics):
        pool = chain_pool()
        bound = 2 if semantics == "bounded" else 1
        p = two_leg_pattern(bound=bound)
        q = pool.register(p, semantics=semantics, name="q0")
        pool.apply([insert("n2", "n3"), insert("n5", "n1")])
        truth = simulation_result_graph(
            p, pool.graph, totalize(bounded_match(p, pool.graph))
        )
        got = q.result_graph()
        assert got.num_nodes() > 0
        assert sorted(got.nodes()) == sorted(truth.nodes())
        assert sorted(got.edges()) == sorted(truth.edges())

    def test_late_consumer_reads_only_later_deltas(self):
        """A consumer registered after a flush reads only the deltas of
        later flushes, and a second pop in one flush returns nothing."""
        pool = chain_pool()
        p = two_leg_pattern()
        q0 = pool.register(p, name="q0")
        pool.apply([delete("n1", "n2")])
        q0.matches()
        q1 = pool.register(two_leg_pattern(names=("u", "v", "w")), name="q1")
        f0, f1 = q0.subscribe(), q1.subscribe()
        pool.apply([insert("n1", "n2")])
        d0, d1 = f0.drain(), f1.drain()
        assert len(d0) == 1 and len(d1) == 1
        # Same structural change; q1's pairs are named by its own nodes.
        assert {v for _, v in d0[0].added} == {v for _, v in d1[0].added}
        assert {u for u, _ in d1[0].added} <= {"u", "v", "w"}
        assert q0.index.pop_match_delta() == (set(), set())

    def test_invariants_after_stream(self):
        pool = chain_pool()
        pool.register(two_leg_pattern(), name="q0")
        pool.register(two_leg_pattern(bound=1), name="q1")
        pool.apply([delete("n0", "n1"), insert("n2", "n3"), insert("n5", "n5")])
        pool.add_node("n2", label="B")
        for view in pool.plan.views():
            view.index.check_invariants()


class TestStats:
    def test_join_repairs_flat_in_query_count(self):
        """The headline perf property: per-flush repair work scales with
        distinct pattern shapes, not registered queries."""
        counts = {}
        for n in (2, 8):
            pool = chain_pool()
            for i in range(n):
                pool.register(
                    two_leg_pattern(names=(f"x{i}", f"y{i}", f"z{i}")),
                    name=f"q{i}",
                )
            pool.stats.reset()
            pool.apply([delete("n1", "n2"), insert("n2", "n3")])
            counts[n] = pool.stats.join_repairs
        assert counts[2] == counts[8] > 0

    def test_gauges(self):
        pool = chain_pool()
        pool.register(two_leg_pattern(), name="q0")
        pool.register(two_leg_pattern(names=("u", "v", "w")), name="q1")
        pool.flush()
        assert pool.plan.num_leases() == 2
