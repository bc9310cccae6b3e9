"""Unit tests for MatcherPool: registration, routing, coalescing, repair."""

import pytest

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import synthetic_graph
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.types import Update, delete, insert
from repro.matching.bounded import bounded_match
from repro.matching.relation import as_pairs, totalize
from repro.matching.simulation import maximum_simulation
from repro.patterns.minimize import canonical_pattern
from repro.patterns.pattern import Pattern, PatternError
from repro.workloads.updates import mixed_updates


def two_cluster_graph():
    g = DiGraph()
    for n, lab in [
        ("a1", "A1"), ("b1", "B1"), ("a2", "A2"), ("b2", "B2"),
    ]:
        g.add_node(n, label=lab)
    g.add_edge("a1", "b1")
    g.add_edge("a2", "b2")
    return g


def chain_pattern(i):
    return Pattern.normal_from_labels(
        {"x": f"A{i}", "y": f"B{i}"}, [("x", "y")]
    )


class TestRegistration:
    def test_names_default_and_unique(self):
        pool = MatcherPool(two_cluster_graph())
        q0 = pool.register(chain_pattern(1), semantics="simulation")
        q1 = pool.register(chain_pattern(2), semantics="simulation")
        assert q0.name != q1.name
        assert pool.query(q0.name) is q0
        assert len(pool) == 2

    def test_duplicate_name_rejected(self):
        pool = MatcherPool(two_cluster_graph())
        pool.register(chain_pattern(1), semantics="simulation", name="q")
        with pytest.raises(ValueError):
            pool.register(chain_pattern(2), semantics="simulation", name="q")

    def test_invalid_semantics_rejected(self):
        pool = MatcherPool(two_cluster_graph())
        with pytest.raises(ValueError):
            pool.register(chain_pattern(1), semantics="telepathy")

    def test_b_pattern_rejected_for_simulation(self):
        pool = MatcherPool(two_cluster_graph())
        p = Pattern.from_spec({"x": "label = A1"}, [])
        p.add_edge("x", "x", 2)
        with pytest.raises(PatternError):
            pool.register(p, semantics="simulation")

    def test_register_flushes_pending(self):
        pool = MatcherPool(two_cluster_graph())
        q1 = pool.register(chain_pattern(1), semantics="simulation")
        pool.queue(delete("a1", "b1"))
        # Registering flushes first, so q2's index is built on the
        # post-update graph and q1 has been repaired.
        q2 = pool.register(chain_pattern(2), semantics="simulation")
        assert not pool.graph.has_edge("a1", "b1")
        assert q1.matches()["x"] == set()
        assert q2.matches()["x"] == {"a2"}

    def test_unregister_stops_routing(self):
        pool = MatcherPool(two_cluster_graph())
        q1 = pool.register(chain_pattern(1), semantics="simulation")
        feed = q1.subscribe()
        pool.unregister(q1)
        report = pool.apply([delete("a1", "b1")])
        assert report.deltas == {}
        assert not feed.drain()

    @pytest.mark.parametrize("mode", ["bogus", "interval", "matrix"])
    @pytest.mark.parametrize("semantics", ["bounded", "simulation"])
    @pytest.mark.parametrize("plan_scope", ["shared", None])
    def test_unknown_distance_mode_rejected_before_anything_is_leased(
        self, plan_scope, semantics, mode
    ):
        g = DiGraph()
        for v, label in [(1, "A"), (2, "M"), (3, "B"), (4, "B")]:
            g.add_node(v, label=label)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        pool = MatcherPool(g)
        bound = 2 if semantics == "bounded" else 1

        def pattern(source_label):
            return Pattern.from_spec(
                {"x": f"label = {source_label}", "y": "label = B"},
                [("x", "y", bound)],
            )

        pool.register(pattern("M"), semantics=semantics, name="kept")
        pool.queue(insert(3, 4))

        def snapshot():
            return (
                pool.eligibility.live_entries(),
                pool.substrate.live_structures(),
                pool.plan.num_joins(),
                len(pool),
                pool.pending,
            )

        before = snapshot()
        with pytest.raises(ValueError, match="distance_mode"):
            pool.register(
                pattern("A"), semantics=semantics, distance_mode=mode,
                plan_scope=plan_scope,
            )
        assert snapshot() == before


class TestRouting:
    def test_updates_route_only_to_affected_pattern(self):
        pool = MatcherPool(two_cluster_graph())
        q1 = pool.register(chain_pattern(1), semantics="simulation", name="p1")
        q2 = pool.register(chain_pattern(2), semantics="simulation", name="p2")
        report = pool.apply([delete("a1", "b1")])
        assert set(report.deltas) == {"p1"}
        assert report.routed == 1
        assert report.skipped == 1
        # The skipped query's work counters did not move at all.
        assert q2.stats.aff_size() == 0
        assert q1.matches()["x"] == set()
        assert q2.matches()["x"] == {"a2"}

    def test_label_mismatch_routes_nowhere(self):
        pool = MatcherPool(two_cluster_graph())
        pool.register(chain_pattern(1), semantics="simulation")
        # B1 -> A2: no pattern edge pairs those labels in either query.
        report = pool.apply([insert("b1", "a2")])
        assert report.routed == 0
        assert report.deltas == {}

    def test_bounded_with_bounds_is_distance_routed(self):
        g = two_cluster_graph()
        g.add_node("m", label="MID")
        pool = MatcherPool(g)
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 2)]
        )
        q = pool.register(p, semantics="bounded", name="b")
        index = q.index.join.query.index
        assert isinstance(index, BoundedSimulationIndex)
        assert q.distance_routed
        assert index.substrate is pool.substrate
        # A 2-hop path through an unlabeled midpoint must be observed
        # even though neither endpoint satisfies any predicate.
        pool.apply([delete("a1", "b1")])
        assert q.matches()["x"] == set()
        report = pool.apply([insert("a1", "m"), insert("m", "b1")])
        assert report.routed >= 2
        assert q.matches()["x"] == {"a1"}

    def test_distance_routing_declines_foreign_partition_edges(self):
        g = two_cluster_graph()
        pool = MatcherPool(g)
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 2)]
        )
        q = pool.register(p, semantics="bounded", name="b")
        assert q.distance_routed
        # Partition-2 churn can never touch a pair of the partition-1
        # query: the leg rule declines it, repair work stays zero.
        report = pool.apply([insert("b2", "a2")])
        assert report.routed == 0
        assert report.skipped == 1
        assert q.stats.aff_size() == 0
        report = pool.apply([delete("b2", "a2")])
        assert report.routed == 0
        assert q.stats.aff_size() == 0
        assert q.matches()["x"] == {"a1"}

    def test_distance_routing_observes_multi_hop_batch_interaction(self):
        # A witness path threading several same-flush insertions must be
        # caught even when the middle edge has no eligible endpoint.
        g = DiGraph()
        g.add_node("a", label="A1")
        g.add_node("b", label="B1")
        for n in ("m1", "m2"):
            g.add_node(n, label="MID")
        pool = MatcherPool(g)
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 3)]
        )
        q = pool.register(p, semantics="bounded", name="b")
        assert q.matches()["x"] == set()
        report = pool.apply([
            insert("m1", "m2"),          # neither endpoint near eligible yet
            insert("m2", "b"),
            insert("a", "m1"),
        ])
        assert q.matches()["x"] == {"a"}
        assert "b" in report.deltas

    def test_bound_one_bounded_is_endpoint_routable(self):
        pool = MatcherPool(two_cluster_graph())
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 1)]
        )
        q = pool.register(p, semantics="bounded")
        assert not q.distance_routed
        report = pool.apply([insert("a2", "b2"), delete("a2", "b2")])
        assert report.routed == 0
        assert q.matches()["x"] == {"a1"}

    def test_attr_update_routes_by_attribute_name(self):
        pool = MatcherPool(two_cluster_graph())
        q1 = pool.register(chain_pattern(1), semantics="simulation", name="p1")
        # An attribute no predicate mentions routes nowhere.
        pool.update_node_attrs("a1", hobby="golf")
        assert q1.last_delta is None
        # A label flip routes to (only) the affected query.
        pool.update_node_attrs("a1", label="Z")
        assert q1.last_delta is not None
        assert ("x", "a1") in q1.last_delta.removed

    def test_routed_skipped_totals_count_fresh_announce_once(self):
        """The fresh-node announcement is ONE routing decision per flush;
        counting it once per fresh node inflated the routed/skipped
        ratios the pool benchmark reports."""
        g = DiGraph()
        g.add_node("seed", label="A1")
        pool = MatcherPool(g)
        pool.register(
            Pattern.from_spec({"any": None}, []),
            semantics="simulation",
            name="wild",
        )
        pool.register(chain_pattern(1), semantics="simulation", name="p1")
        # Two insertions introduce two fresh nodes -> 2 edge decisions
        # plus exactly 1 announcement decision, over 2 queries.
        report = pool.apply([insert("seed", "n1"), insert("n1", "n2")])
        decisions = 2 + 1
        assert report.routed + report.skipped == decisions * len(pool)
        assert report.routed == 1  # only the wildcard query is announced
        assert pool.query("wild").matches()["any"] == {"seed", "n1", "n2"}

    def test_fresh_wildcard_node_matches_true_predicate(self):
        g = DiGraph()
        g.add_node("seed", label="A1")
        pool = MatcherPool(g)
        q = pool.register(Pattern.from_spec({"any": None}, []), name="wild",
                          semantics="simulation")
        assert q.matches()["any"] == {"seed"}
        # A brand-new, attribute-less endpoint still matches TRUE.
        pool.apply([insert("seed", "novel")])
        assert q.matches()["any"] == {"seed", "novel"}


class TestIntakeValidation:
    """A malformed op is rejected when it is queued, with nothing
    buffered, so it can never half-apply a later flush."""

    @staticmethod
    def _pool(**kwargs):
        g = DiGraph()
        g.add_node(1, label="A")
        g.add_node(2, label="B")
        g.add_edge(1, 2)
        pool = MatcherPool(g, **kwargs)
        q = pool.register(
            Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")]),
            semantics="simulation",
        )
        return pool, q

    @staticmethod
    def _state(pool, q):
        return (
            {v: dict(pool.graph.attrs(v)) for v in pool.graph.nodes()},
            set(pool.graph.edges()),
            {p: set(pool.eligibility.entry(p).members) for p in q.predicates},
            q.matches(),
            pool.pending,
        )

    def test_unhashable_node_id_rejected_by_queue_node(self):
        pool, q = self._pool()
        pool.queue_node(1, label="Z")
        before = self._state(pool, q)
        with pytest.raises(TypeError):
            pool.queue_node([9], label="A")
        assert self._state(pool, q) == before
        pool.flush()
        # The valid op applies whole: graph, eligibility and match agree.
        assert pool.graph.attrs(1)["label"] == "Z"
        label_a = q.pattern.predicate("x")
        assert 1 not in pool.eligibility.entry(label_a).members
        assert q.matches() == {"x": set(), "y": set()}

    def test_unknown_op_rejected_by_queue(self):
        pool, q = self._pool()
        pool.queue_node(1, label="Z")
        pool.queue(insert(2, 1))
        before = self._state(pool, q)
        flushes = pool.stats.flushes
        with pytest.raises(ValueError):
            pool.queue(Update("upsert", 1, 3))
        assert self._state(pool, q) == before
        pool.flush()
        assert pool.stats.flushes == flushes + 1
        assert pool.graph.has_edge(2, 1)
        assert pool.graph.attrs(1)["label"] == "Z"

    def test_unhashable_endpoint_rejected_by_queue(self):
        pool, q = self._pool()
        before = self._state(pool, q)
        with pytest.raises(TypeError):
            pool.queue(insert(1, {"not": "hashable"}))
        assert self._state(pool, q) == before

    @pytest.mark.parametrize("window", [None, 10.0])
    def test_queue_updates_buffers_nothing_on_a_bad_op(self, window):
        # window=None takes the extend fast path; a temporal pool queues
        # one update at a time.
        pool, q = self._pool(window=window)
        before = self._state(pool, q)
        batch = [delete(1, 2), insert(2, 1), Update("upsert", 1, 2)]
        with pytest.raises(ValueError):
            pool.queue_updates(iter(batch))
        with pytest.raises(TypeError):
            pool.queue_updates([delete(1, 2), insert([1], 2)])
        assert self._state(pool, q) == before
        pool.flush()
        assert self._state(pool, q) == before

    def test_queue_updates_checks_times_before_buffering(self):
        # The delete ahead of the stamped insert must not be buffered.
        pool, q = self._pool(window=10.0)
        before = self._state(pool, q)
        with pytest.raises(ValueError):
            pool.queue_updates(
                [delete(1, 2), insert(2, 1)], ts=float("nan")
            )
        assert self._state(pool, q) == before


class TestCoalescing:
    def test_insert_delete_pair_cancels(self):
        pool = MatcherPool(two_cluster_graph())
        q = pool.register(chain_pattern(1), semantics="simulation")
        promos_before = q.stats.promotions
        demos_before = q.stats.demotions
        report = pool.apply([delete("a1", "b1"), insert("a1", "b1")])
        assert report.net == []
        assert q.stats.promotions == promos_before
        assert q.stats.demotions == demos_before
        assert q.matches()["x"] == {"a1"}

    def test_unit_helpers_report_graph_change(self):
        pool = MatcherPool(two_cluster_graph())
        pool.register(chain_pattern(1), semantics="simulation")
        assert pool.insert_edge("b1", "b2")
        assert not pool.insert_edge("b1", "b2")
        assert pool.delete_edge("b1", "b2")
        assert not pool.delete_edge("b1", "b2")

    def test_unit_helper_flags_follow_net_effect(self):
        """The changed-flag must reflect the flush's *net* updates, not a
        pre-flush ``has_edge`` snapshot that pending updates invalidate."""
        pool = MatcherPool(two_cluster_graph())
        pool.register(chain_pattern(1), semantics="simulation")
        # A pending delete of an existing edge is reverted by the insert:
        # net effect is empty, the graph did not change.
        pool.queue(delete("a1", "b1"))
        assert not pool.insert_edge("a1", "b1")
        assert pool.graph.has_edge("a1", "b1")
        # A pending insert of a missing edge is swallowed by the delete.
        pool.queue(insert("b1", "b2"))
        assert not pool.delete_edge("b1", "b2")
        assert not pool.graph.has_edge("b1", "b2")
        # A pending duplicate does not mask a real change.
        pool.queue(insert("b1", "b2"))
        assert pool.insert_edge("b1", "b2")
        assert pool.graph.has_edge("b1", "b2")
        # And a pending no-op update leaves the flag truthful.
        pool.queue(insert("b1", "b2"))
        assert pool.delete_edge("b1", "b2")
        assert not pool.graph.has_edge("b1", "b2")

    def test_pending_counts_and_flush(self):
        pool = MatcherPool(two_cluster_graph())
        q = pool.register(chain_pattern(1), semantics="simulation")
        pool.queue(delete("a1", "b1"))
        pool.queue_node("a1", label="A1")
        assert pool.pending == 2
        assert q.matches()["x"] == {"a1"}  # not yet applied
        pool.flush()
        assert pool.pending == 0
        assert q.matches()["x"] == set()


class TestDistanceModes:
    def test_bounded_distance_structures_track_pool_flushes(
        self, friendfeed_pattern, friendfeed_graph
    ):
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import totalize

        pool = MatcherPool(friendfeed_graph)
        q = pool.register(
            friendfeed_pattern, semantics="bounded", distance_mode="landmark"
        )
        # The pool substrate absorbs each edge batch once for every query.
        assert q.index.join.query.index.substrate is pool.substrate
        assert q.distance_routed  # pair repair gated by the leg rule
        pool.apply([insert("Don", "Pat"), insert("Pat", "Don")])
        pool.apply([delete("Ann", "Pat"), insert("Don", "Tom")])
        assert as_pairs(q.matches()) == as_pairs(
            totalize(bounded_match(friendfeed_pattern, pool.graph))
        )
        q.index.check_invariants()
        pool.eligibility.check_invariants()


def _spy_on_bfs(monkeypatch):
    """Record every outermost BFS helper call from now on, wherever the
    helper was imported (nested helper calls are part of the same BFS):
    one ``(name, reverse)`` per call."""
    from repro.engine import distances
    from repro.graphs import traversal
    from repro.incremental import incbsim

    calls = []
    depth = [0]

    def spying(fn):
        def spy(*args, **kwargs):
            if not depth[0]:
                calls.append((fn.__name__, bool(kwargs.get("reverse"))))
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return spy

    for module in (traversal, incbsim, distances):
        for name in (
            "bfs_distances", "ancestors_within", "descendants_within",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, spying(getattr(traversal, name))
                )
    return calls


def _ranked_pattern(i, bound):
    """``x -> y`` within ``bound`` hops, x an A ranked at most i: every
    i is a distinct pattern, and each one's eligible nodes are the same
    A nodes of rank 0."""
    return Pattern.from_spec(
        {"x": f"label = A & rank <= {i}", "y": "label = C"},
        [("x", "y", bound)],
    )


class TestSharedSubstrate:
    """The pool-level shared distance substrate: one structure per
    (graph, distance_mode), leased by every bounded query."""

    def trivial_pattern(self):
        # x must reach SOME node (any attrs) within 2 hops.
        return Pattern.from_spec({"x": "label = A1", "y": None}, [("x", "y", 2)])

    @pytest.mark.parametrize("mode", ["bfs", "landmark"])
    def test_trivial_predicate_query_is_distance_routed_in_shared_scope(
        self, mode
    ):
        g = DiGraph()
        g.add_node("a1", label="A1")
        for n in ("z1", "z2", "z3"):
            g.add_node(n, label="Z")
        g.add_edge("z1", "z2")
        pool = MatcherPool(g)
        q = pool.register(
            self.trivial_pattern(), semantics="bounded", name="t",
            distance_mode=mode,
        )
        assert q.distance_routed
        # Far-away churn is declined by the shared ball / the edge's legs
        # (z2/z3 are more than 1 hop from any eligible source of x).
        report = pool.apply([insert("z2", "z3")])
        assert report.routed == 0
        assert report.skipped == 1
        report = pool.apply([delete("z2", "z3")])
        assert report.routed == 0

    @pytest.mark.parametrize("mode", ["bfs", "landmark"])
    def test_trivial_predicate_fresh_node_wiring_is_caught_in_shared_scope(
        self, mode
    ):
        """The soundness half: a brand-new attribute-less endpoint joins
        the TRUE member set (a pinned source of the TRUE field in ``bfs``
        mode, a member the edge's legs meet in ``landmark`` mode) before
        insertion routing, so same-flush wiring through it must be routed
        and matched."""
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import totalize

        g = DiGraph()
        g.add_node("a1", label="A1")
        pool = MatcherPool(g)
        q = pool.register(
            self.trivial_pattern(), semantics="bounded", name="t",
            distance_mode=mode,
        )
        pattern = q.pattern
        report = pool.apply([insert("a1", "n1"), insert("n1", "n2")])
        assert "t" in report.deltas
        assert q.matches()["x"] == {"a1"}
        assert {"n1", "n2"} <= q.matches()["y"]
        assert as_pairs(q.matches()) == as_pairs(
            totalize(bounded_match(pattern, pool.graph))
        )
        q.index.check_invariants()
        pool.eligibility.check_invariants()

    def test_landmark_structure_is_shared_across_queries(self):
        pool = MatcherPool(two_cluster_graph())
        p1 = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 2)]
        )
        p2 = Pattern.from_spec(
            {"x": "label = A2", "y": "label = B2"}, [("x", "y", 2)]
        )
        q1 = pool.register(p1, semantics="bounded", name="q1",
                           distance_mode="landmark")
        q2 = pool.register(p2, semantics="bounded", name="q2",
                           distance_mode="landmark")
        lm1 = q1.index.join.query.index.landmark_index()
        lm2 = q2.index.join.query.index.landmark_index()
        assert lm1 is lm2 is pool.substrate.landmark_index()
        assert pool.substrate.live_structures()["landmark"] == 2
        pool.unregister(q1)
        assert pool.substrate.live_structures()["landmark"] == 1
        pool.unregister(q2)
        assert pool.substrate.live_structures()["landmark"] == 0
        assert pool.substrate.landmark_index() is None

    @pytest.mark.parametrize("mode", ["bfs", "landmark"])
    def test_landmark_legs_are_computed_once_per_edge_and_graph_state(
        self, mode, monkeypatch
    ):
        """Routing and every routed query's repair read one memoized BFS
        pair per edge and graph state: 8 distinct queries routed on the
        same edges cost exactly the BFS calls 1 query does, flush by
        flush."""
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import totalize

        calls = _spy_on_bfs(monkeypatch)
        # Two components a -> z1 -> z2 -> c and a2 -> z3 -> z4 -> c2: no
        # edge of either lies on a bound-2 witness path, so none is
        # routed, although both legs of each middle edge meet an eligible
        # node (A one hop before it, C one hop after: 1 + 1 + 1 > 2).
        # Routing still reads every edge's legs.
        batches = [
            [insert("a", "z1"), insert("z1", "z2"), insert("z2", "c"),
             insert("a2", "z3"), insert("z3", "z4"), insert("z4", "c2")],
            # z1->z2's legs on this graph state are still memoized from
            # the last insertion routing; a->z0->c wires a new pair, and
            # every query is routed on both of its edges and repairs
            # them from the same legs.
            [delete("z1", "z2"), insert("a", "z0"), insert("z0", "c")],
            [delete("z3", "z4")],
        ]
        routed_edges = [0, 2, 0]
        per_flush = {}
        for n_queries in (1, 8):
            g = DiGraph()
            for v, label in [("a", "A"), ("a2", "A"), ("c", "C"),
                             ("c2", "C")]:
                g.add_node(v, label=label, rank=0)
            for n in range(5):
                g.add_node(f"z{n}", label="Z")
            pool = MatcherPool(g)
            # Distinct patterns (no two intern to one index) with the
            # same eligible nodes, so each is routed on the same edges.
            patterns = [_ranked_pattern(i, 2) for i in range(n_queries)]
            queries = [
                pool.register(
                    p, semantics="bounded", name=f"q{i}",
                    distance_mode=mode,
                )
                for i, p in enumerate(patterns)
            ]
            assert pool.plan.num_joins() == n_queries
            counts = []
            for batch, routed in zip(batches, routed_edges):
                before = len(calls)
                report = pool.apply(batch)
                counts.append(len(calls) - before)
                assert report.routed == n_queries * routed
            for p, q in zip(patterns, queries):
                truth = as_pairs(totalize(bounded_match(p, pool.graph)))
                assert as_pairs(q.matches()) == truth
            per_flush[n_queries] = counts
        # One backward and one forward BFS per edge per graph state.
        assert per_flush[1] == per_flush[8] == [12, 4, 2]

    @pytest.mark.parametrize("mode", ["bfs", "landmark"])
    def test_mixed_bounds_read_one_leg_pair_per_edge(self, mode, monkeypatch):
        """A pool whose patterns use bounds 2 and 3 reads one backward
        and one forward BFS per edge and graph state: the router asks
        for the legs at the largest finite leg radius (2) first, and the
        bound-2 routing and repair are served from the same pair."""
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import totalize

        g = DiGraph()
        for v, label in [("a", "A"), ("c", "C"), ("z", "Z")]:
            g.add_node(v, label=label, rank=0)
        pool = MatcherPool(g)
        patterns = [
            _ranked_pattern(0, 2),
            _ranked_pattern(1, 3),
            Pattern.from_spec(
                {"x": "label = A", "y": "label = Z", "w": "label = C"},
                [("x", "y", 2), ("y", "w", 3)],
            ),
        ]
        queries = [
            pool.register(p, semantics="bounded", distance_mode=mode)
            for p in patterns
        ]
        assert pool._router.leg_radius == 2
        calls = _spy_on_bfs(monkeypatch)
        wired = [insert("a", "z"), insert("z", "c")]
        # Every flush touches both edges, each routed to every query.  The
        # deletions are routed on the graph state the insertions left, so
        # they read the legs the insertion routing memoized.
        for batch, pairs in (
            (wired, 2),
            ([delete("a", "z"), delete("z", "c")], 0),
            (wired, 2),
        ):
            before = len(calls)
            report = pool.apply(batch)
            assert report.routed == 2 * len(queries)
            assert sorted(calls[before:]) == sorted(
                [("bfs_distances", False), ("bfs_distances", True)] * pairs
            )
        for p, q in zip(patterns, queries):
            truth = as_pairs(totalize(bounded_match(p, pool.graph)))
            assert as_pairs(q.matches()) == truth

    def test_recheck_probes_are_shared_by_every_routed_query(self):
        """Every routed query's suspect recheck in a flush extends the
        substrate's one probe per (source, bound): 8 distinct queries
        with the same eligible nodes label exactly the nodes 1 query
        does, flush by flush."""
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import totalize

        # Every deletion leaves the suspect (a, c): it survives the first
        # two flushes (via z2 -> z3, then via the re-inserted a -> z1) and
        # breaks in the third.
        batches = [
            [delete("a", "z1")],
            [insert("a", "z1"), delete("z3", "c")],
            [delete("z1", "c")],
        ]
        per_flush = {}
        for n_queries in (1, 8):
            g = DiGraph()
            g.add_node("a", label="A", rank=0)
            g.add_node("c", label="C", rank=0)
            for n in ("z1", "z2", "z3"):
                g.add_node(n, label="Z")
            for v, w in [("a", "z1"), ("z1", "c"), ("a", "z2"),
                         ("z2", "z3"), ("z3", "c")]:
                g.add_edge(v, w)
            pool = MatcherPool(g)
            patterns = [_ranked_pattern(i, 3) for i in range(n_queries)]
            queries = [
                pool.register(p, semantics="bounded", name=f"q{i}")
                for i, p in enumerate(patterns)
            ]
            assert pool.plan.num_joins() == n_queries
            counts = []
            for batch in batches:
                before = pool.substrate.stats.probe_nodes
                report = pool.apply(batch)
                counts.append(pool.substrate.stats.probe_nodes - before)
                assert report.routed == n_queries * len(batch)
                for p, q in zip(patterns, queries):
                    truth = as_pairs(totalize(bounded_match(p, pool.graph)))
                    assert as_pairs(q.matches()) == truth
            assert as_pairs(queries[0].matches()) == set()
            per_flush[n_queries] = counts
        assert all(per_flush[1])
        assert per_flush[1] == per_flush[8]

    def test_recheck_probes_do_not_outlive_a_deletion_batch(self):
        """A probe memoized by one flush's rechecks must not answer the
        next flush's: after a -> m2 goes too, a's stale probe would still
        find c one hop past m2."""
        g = DiGraph()
        g.add_node("a", label="A")
        g.add_node("c", label="C")
        for v, w in [("a", "m1"), ("m1", "c"), ("a", "m2"), ("m2", "c")]:
            g.add_edge(v, w)
        pool = MatcherPool(g)
        q = pool.register(
            Pattern.from_spec(
                {"x": "label = A", "y": "label = C"}, [("x", "y", 2)]
            ),
            semantics="bounded",
            name="q",
        )
        pool.apply([delete("a", "m1")])
        assert as_pairs(q.matches()) == {("x", "a"), ("y", "c")}
        pool.apply([delete("a", "m2")])
        assert as_pairs(q.matches()) == set()

    def test_an_edge_on_no_witness_path_is_neither_routed_nor_rechecked(
        self,
    ):
        """Both legs of z1 -> z2 meet an eligible node (a one hop before
        it, c one hop after), but a witness through it has 1 + 1 + 1 > 2
        hops: deleting it routes nothing and labels no probe node, and a
        standalone index rechecks no pair."""
        pattern = Pattern.from_spec(
            {"x": "label = A", "y": "label = C"}, [("x", "y", 2)]
        )

        def graph():
            g = DiGraph()
            g.add_node("a", label="A")
            g.add_node("c", label="C")
            for v, w in [("a", "z1"), ("z1", "z2"), ("z2", "c"),
                         ("a", "m"), ("m", "c")]:
                g.add_edge(v, w)
            return g

        matched = {("x", "a"), ("y", "c")}
        pool = MatcherPool(graph())
        q = pool.register(pattern, semantics="bounded", name="q")
        before = pool.substrate.stats.probe_nodes
        report = pool.apply([delete("z1", "z2")])
        assert report.routed == 0
        assert pool.substrate.stats.probe_nodes == before
        assert as_pairs(q.matches()) == matched
        idx = BoundedSimulationIndex(pattern, graph())
        idx.delete_edge("z1", "z2")
        assert idx.stats.pairs_rechecked == 0
        assert as_pairs(idx.matches()) == matched

    @pytest.mark.parametrize("mode", ["bfs", "landmark"])
    @pytest.mark.parametrize("gap, routed", [(1, 1), (2, 0)])
    def test_an_insertion_routes_when_its_witness_fits_the_bound(
        self, mode, gap, routed
    ):
        """Inserting m{gap} -> n closes a -> m1 .. m{gap} -> n -> c, a
        witness of gap + 2 hops: at exactly the bound 3 the query is
        routed and gains the pair (a, c); one hop longer both legs still
        meet an eligible node, but nothing is routed or gained."""
        g = DiGraph()
        g.add_node("a", label="A")
        g.add_node("c", label="C")
        for v, w in [("a", "m1"), ("m1", "m2"), ("n", "c")]:
            g.add_edge(v, w)
        pool = MatcherPool(g)
        pattern = Pattern.from_spec(
            {"x": "label = A", "y": "label = C"}, [("x", "y", 3)]
        )
        q = pool.register(
            pattern, semantics="bounded", name="q", distance_mode=mode
        )
        report = pool.apply([insert(f"m{gap}", "n")])
        assert report.routed == routed
        renaming = canonical_pattern(pattern).renaming
        assert q.index.join.query.index.has_pair(
            (renaming["x"], renaming["y"]), "a", "c"
        ) == bool(routed)
        assert as_pairs(q.matches()) == (
            {("x", "a"), ("y", "c")} if routed else set()
        )


class TestLandmarkHorizon:
    """The pool's landmark index keeps its columns only as deep as the
    largest finite bound of its landmark-mode queries (full for a ``*``
    bound): a deeper registration widens them, and nothing narrows them
    while the index lives."""

    @staticmethod
    def pool(seed):
        """A pool over 30 random nodes labelled A, C and Z in turn."""
        g = synthetic_graph(30, 60, seed=seed)
        for v in g.nodes():
            g.add_node(v, label="ACZ"[v % 3])
        return MatcherPool(g)

    @staticmethod
    def register(pool, bound):
        return pool.register(
            Pattern.from_spec(
                {"x": "label = A", "y": "label = C"}, [("x", "y", bound)]
            ),
            semantics="bounded",
            distance_mode="landmark",
        )

    @staticmethod
    def churn(pool, queries, seed):
        """Three mixed flushes; after each, every query equals batch
        recomputation and the index is exact to its horizon."""
        for i in range(3):
            pool.apply(mixed_updates(pool.graph, 6, 6, seed=seed + i))
            for q in queries:
                truth = totalize(bounded_match(q.pattern, pool.graph))
                assert as_pairs(q.matches()) == as_pairs(truth)
            pool.substrate.landmark_index().check_invariants()

    def test_a_deeper_registration_widens_mid_stream(self):
        pool = self.pool(1)
        q2 = self.register(pool, 2)
        lm = pool.substrate.landmark_index()
        assert lm.horizon == 2
        self.churn(pool, [q2], seed=10)
        q3 = self.register(pool, 3)
        assert pool.substrate.landmark_index() is lm
        assert lm.horizon == 3
        self.churn(pool, [q2, q3], seed=20)

    @pytest.mark.parametrize(
        "bounds", [(2, "*"), ("*", 2)], ids=["finite-first", "star-first"]
    )
    def test_a_star_bound_forces_full_columns(self, bounds):
        pool = self.pool(2)
        queries = [self.register(pool, b) for b in bounds]
        assert pool.substrate.landmark_index().horizon is None
        self.churn(pool, queries, seed=30)

    def test_an_edgeless_pattern_registers_and_flushes(self):
        pool = self.pool(3)
        q = pool.register(
            Pattern.from_spec({"x": "label = A"}, []),
            semantics="bounded",
            distance_mode="landmark",
        )
        assert pool.substrate.landmark_index().horizon == 0
        self.churn(pool, [q], seed=40)

    def test_unregistering_the_deepest_query_keeps_the_horizon(self):
        pool = self.pool(4)
        q2 = self.register(pool, 2)
        q3 = self.register(pool, 3)
        lm = pool.substrate.landmark_index()
        pool.unregister(q3)
        assert pool.substrate.landmark_index() is lm
        assert lm.horizon == 3
        self.churn(pool, [q2], seed=50)


class TestSharedGraphConsistency:
    def test_many_queries_one_graph_stay_correct(self):
        pool = MatcherPool(two_cluster_graph())
        queries = [
            pool.register(chain_pattern(i), semantics="simulation", name=f"p{i}")
            for i in (1, 2)
        ]
        pool.apply([
            insert("b1", "a1"),
            delete("a2", "b2"),
            insert("a2", "b1"),
        ])
        for q in queries:
            assert as_pairs(q.matches()) == as_pairs(
                maximum_simulation(q.pattern, pool.graph)
            ) or q.matches() == {u: set() for u in q.matches()}
            q.index.check_invariants()

    def test_mixed_semantics_share_one_graph(self, friendfeed_graph):
        pool = MatcherPool(friendfeed_graph)
        sim = pool.register(
            Pattern.normal_from_labels(
                {"c": "CTO", "d": "DB"}, [("c", "d")], attribute="job"
            ),
            semantics="simulation",
            name="sim",
        )
        iso = pool.register(
            Pattern.normal_from_labels(
                {"c": "CTO", "d": "DB"}, [("c", "d")], attribute="job"
            ),
            semantics="isomorphism",
            name="iso",
        )
        report = pool.apply([insert("Don", "Pat")])
        assert set(report.deltas) == {"sim", "iso"}
        assert ("c", "Don") in report.deltas["sim"].added
        assert any(e.get("c") == "Don" for e in report.deltas["iso"].added_embeddings)
        # One shared graph object: both saw the same edit exactly once.
        assert pool.graph.has_edge("Don", "Pat")
        assert sim.index.join.query.index.graph is pool.graph
        assert iso.index.graph is pool.graph


class TestGraphBackend:
    def test_default_keeps_input_backend(self):
        g = DiGraph([("a", "b")])
        pool = MatcherPool(g)
        assert pool.graph is g
        assert pool.graph_backend == "dict"
