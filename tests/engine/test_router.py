"""Unit tests for the label/predicate-keyed UpdateRouter."""

import pytest

from repro.engine import MatcherPool, UpdateRouter
from repro.engine.distances import SharedDistanceSubstrate
from repro.engine.eligibility import SharedEligibilityIndex
from repro.engine.pool import PoolStats
from repro.engine.query import ContinuousQuery
from repro.graphs.digraph import DiGraph
from repro.graphs.traversal import edge_legs
from repro.incremental.types import insert
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import parse_predicate
from tests.routing_truth import distances_from_every_node, edge_routes


def pool_query(name, pattern, graph=None, semantics="simulation"):
    """A query leasing from its own eligibility/distance substrates."""
    graph = graph if graph is not None else DiGraph()
    eligibility = SharedEligibilityIndex(graph)
    substrate = SharedDistanceSubstrate(graph)
    return ContinuousQuery(
        name, pattern, graph, semantics,
        substrate=substrate, eligibility=eligibility,
    )


def make_query(name, nodes, edges, graph=None, semantics="simulation"):
    pattern = Pattern.normal_from_labels(nodes, edges)
    return pool_query(name, pattern, graph, semantics)


def labelled_graph(**nodes):
    g = DiGraph()
    for v, attrs in nodes.items():
        g.add_node(v, **attrs)
    return g


def test_eq_keys_and_predicates():
    q = make_query("q", {"x": "A", "y": "B"}, [("x", "y")])
    assert ("label", "A") in q.eq_keys
    assert ("label", "B") in q.eq_keys
    assert q.predicates == {
        parse_predicate("label = A"), parse_predicate("label = B")
    }
    assert not q.wildcard_node
    assert not q.distance_routed


def test_wildcard_for_true_predicate():
    p = Pattern.from_spec({"any": None}, [])
    q = pool_query("q", p)
    assert q.wildcard_node
    assert q.eq_keys == frozenset()


def test_route_edge_requires_pattern_edge_pairing():
    g = labelled_graph(a={"label": "A"}, b={"label": "B"}, z={"label": "Z"})
    g.add_node("n")
    router = UpdateRouter()
    q = make_query("q", {"x": "A", "y": "B"}, [("x", "y")], graph=g)
    router.register(q)
    assert router.route_edge("a", "b", {"label": "A"}, {"label": "B"}) == [q]
    # Right labels, wrong direction: no pattern edge B -> A.
    assert router.route_edge("b", "a", {"label": "B"}, {"label": "A"}) == []
    assert router.route_edge("a", "z", {"label": "A"}, {"label": "Z"}) == []
    assert router.route_edge("n", "b", {}, {"label": "B"}) == []


def test_inequality_predicates_fall_into_wildcard_bucket():
    g = labelled_graph(hi={"rating": 5}, lo={"rating": 1})
    p = Pattern.from_spec({"hot": "rating > 3"}, [])
    p.add_edge("hot", "hot", 1)
    q = pool_query("q", p, g)
    router = UpdateRouter()
    router.register(q)
    assert q.wildcard_node
    # No equality atom to index: the query is a candidate for every
    # endpoint pair, and the shared-set confirm decides.
    assert router.route_edge("hi", "hi", {"rating": 5}, {"rating": 5}) == [q]
    assert router.route_edge("hi", "lo", {"rating": 5}, {"rating": 1}) == []
    # Predicate flips still reach it.
    assert router.route_flips([parse_predicate("rating > 3")]) == [q]


def test_unregister_cleans_every_bucket():
    g = labelled_graph(a={"label": "A"})
    router = UpdateRouter()
    q = make_query("q", {"x": "A"}, [("x", "x")], graph=g)
    router.register(q)
    assert len(router) == 1
    assert router.route_edge("a", "a", {"label": "A"}, {"label": "A"}) == [q]
    router.unregister(q)
    assert len(router) == 0
    assert router.route_edge("a", "a", {"label": "A"}, {"label": "A"}) == []
    assert router.route_flips([parse_predicate("label = A")]) == []


def test_removed_node_routing_stages_raise():
    router = UpdateRouter()
    with pytest.raises(RuntimeError):
        router.route_node({"label": "A"})
    with pytest.raises(RuntimeError):
        router.route_attr_change({}, {"label": "A"}, ["label"])


def test_routing_order_is_registration_order():
    g = labelled_graph(a={"label": "A"}, b={"label": "B"})
    elig = SharedEligibilityIndex(g)
    sub = SharedDistanceSubstrate(g)
    router = UpdateRouter()
    qs = [
        ContinuousQuery(
            f"q{i}",
            Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")]),
            g, "simulation", substrate=sub, eligibility=elig,
        )
        for i in range(4)
    ]
    for q in qs:
        router.register(q)
    assert router.route_edge("a", "b", {"label": "A"}, {"label": "B"}) == qs


def test_eq_key_representative_is_atom_order_invariant():
    """Routing must not depend on the order predicate atoms were written."""
    attrs = {
        "ak": {"label": "A", "kind": "K"},
        "a": {"label": "A"},
        "k": {"kind": "K"},
        "zk": {"label": "Z", "kind": "K"},
    }
    g = labelled_graph(**attrs)
    p1 = Pattern.from_spec({"x": "label = A & kind = K"}, [("x", "x", 1)])
    p2 = Pattern.from_spec({"x": "kind = K & label = A"}, [("x", "x", 1)])
    q1 = pool_query("q1", p1, g)
    q2 = pool_query("q2", p2, g)
    assert q1.eq_keys == q2.eq_keys
    router = UpdateRouter()
    router.register(q1)
    router.register(q2)
    for v, v_attrs in attrs.items():
        routed = set(router.route_edge(v, v, v_attrs, v_attrs))
        # Identical predicates -> identical routing, whatever the order.
        assert routed in (set(), {q1, q2})
    assert set(
        router.route_edge("ak", "ak", attrs["ak"], attrs["ak"])
    ) == {q1, q2}


def test_conjunction_uses_one_representative_eq_atom():
    g = labelled_graph(
        hi={"label": "A", "rating": 5},
        lo={"label": "A", "rating": 1},
        bare={"rating": 5},
    )
    p = Pattern.from_spec({"x": "label = A & rating > 2"}, [("x", "x", 1)])
    q = pool_query("q", p, g)
    assert q.eq_keys == {("label", "A")}
    router = UpdateRouter()
    router.register(q)
    # Candidate via (label, A), confirmed only when the conjunction holds.
    assert router.route_edge("hi", "hi", g.attrs("hi"), g.attrs("hi")) == [q]
    assert router.route_edge("lo", "lo", g.attrs("lo"), g.attrs("lo")) == []
    assert router.route_edge(
        "bare", "bare", g.attrs("bare"), g.attrs("bare")
    ) == []


def test_pool_router_integration_zero_work(friendfeed_graph):
    pool = MatcherPool(friendfeed_graph)
    med = pool.register(
        Pattern.normal_from_labels({"m": "Med"}, [], attribute="job"),
        semantics="simulation",
        name="med",
    )
    report = pool.apply([insert("Ann", "Bill")])
    assert "med" not in report.deltas
    assert med.matches()["m"] == {"Ross"}


# ----------------------------------------------------------------------
# Distance routing: pattern edges grouped by source predicate
# ----------------------------------------------------------------------
def distance_router(graph):
    """A router over one graph's shared substrates, counting its rule
    evaluations, and a factory registering bounded queries with it."""
    eligibility = SharedEligibilityIndex(graph)
    substrate = SharedDistanceSubstrate(graph)
    stats = PoolStats()
    router = UpdateRouter(substrate, stats)

    def register(name, nodes, edges):
        q = ContinuousQuery(
            name, Pattern.from_spec(nodes, edges), graph, "bounded",
            substrate=substrate, eligibility=eligibility,
        )
        router.register(q)
        return q

    return router, register, stats, substrate


def routed(router, graph, x, y):
    return router.route_edge(x, y, graph.attrs(x), graph.attrs(y))


def assert_routes_like_the_rule(router, graph, queries):
    """Every node pair routes each query exactly when some eligible pair
    of its index meets d(a, x) + 1 + d(y, c) <= k for a pattern edge."""
    dist = distances_from_every_node(graph)
    for x in graph.nodes():
        for y in graph.nodes():
            got = routed(router, graph, x, y)
            for q in queries:
                truth = edge_routes(dist, q.index, x, y)
                assert (q in got) == truth, (q.name, x, y)


def labelled_chain(*labels):
    """n0 -> n1 -> ... with n{i} labelled labels[i]."""
    g = labelled_graph(
        **{f"n{i}": {"label": lb} for i, lb in enumerate(labels)}
    )
    for i in range(len(labels) - 1):
        g.add_edge(f"n{i}", f"n{i + 1}")
    return g


def test_query_mixing_bounds_one_two_and_star():
    g = labelled_chain("A", "B", "Z", "C", "Z", "A")
    g.add_edge("n5", "n0")
    router, register, stats, _ = distance_router(g)
    q = register(
        "q",
        {"x": "label = A", "y": "label = B", "z": "label = C"},
        [("x", "y", 1), ("y", "z", 2), ("z", "x", None)],
    )
    assert q.distance_routed
    # Bounds 1 and 2 read one leg pair at radius 1; * its own pair.
    assert router.leg_radius == 1
    # Bound 1 routes only an endpoint pairing ...
    assert routed(router, g, "n0", "n1") == [q]
    # ... bound 2 one intermediate hop: B, then n2 -> n3 (C) ...
    assert routed(router, g, "n2", "n3") == [q]
    # ... and * any path from a C through the edge into an A.
    assert routed(router, g, "n4", "n5") == [q]
    assert_routes_like_the_rule(router, g, [q])
    assert stats.distance_checks > 0


def test_true_and_unsatisfiable_source_predicates():
    g = labelled_chain("Z", "Z", "B", "Z")
    router, register, stats, _ = distance_router(g)
    anything = register(
        "anything", {"x": None, "y": "label = B"}, [("x", "y", 2)]
    )
    never = register(
        "never",
        {"x": "label = A & label = B", "y": "label = B"},
        [("x", "y", 2)],
    )
    # Every node is a TRUE member at distance 0 of its own leg, so an
    # edge routes when a B is within one hop after it.
    assert routed(router, g, "n0", "n1") == [anything]
    assert routed(router, g, "n2", "n3") == []
    assert_routes_like_the_rule(router, g, [anything, never])
    # The unsatisfiable source has no members: its edge is never
    # evaluated, so only the TRUE query's one edge counts, once per
    # routed pair.
    stats.distance_checks = 0
    routed(router, g, "n0", "n1")
    assert stats.distance_checks == 1


def test_queries_sharing_a_source_predicate():
    g = labelled_chain("A", "B", "C", "Z")
    router, register, stats, _ = distance_router(g)
    near_b = register(
        "near_b", {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
    )
    near_c = register(
        "near_c", {"x": "label = A", "y": "label = C"}, [("x", "y", 3)]
    )
    from_b = register(
        "from_b", {"x": "label = B", "y": "label = Z"}, [("x", "y", 2)]
    )
    # n0 -> n1: A at 0, B at 0, C at 1: both A queries, no B before it.
    stats.distance_checks = 0
    assert routed(router, g, "n0", "n1") == [near_b, near_c]
    # One group for A, tested once, evaluates both of its pattern edges;
    # the B group is never evaluated, its leg missing every B.
    assert stats.distance_checks == 2
    # n1 -> n2: A one hop back, but no B after it; C at 0 fits bound 3,
    # and B at 0 before the edge has Z one hop after.
    assert routed(router, g, "n1", "n2") == [near_c, from_b]
    assert stats.distance_checks == 2 + 3
    assert_routes_like_the_rule(router, g, [near_b, near_c, from_b])


def test_unregister_shrinks_the_leg_radius_asked_for():
    g = labelled_chain("A", "Z", "Z", "Z", "C")
    router, register, stats, substrate = distance_router(g)
    two = register(
        "two", {"x": "label = A", "y": "label = C"}, [("x", "y", 2)]
    )
    three = register(
        "three", {"x": "label = A", "y": "label = C"}, [("x", "y", 3)]
    )
    assert router.leg_radius == 2
    router.unregister(three)
    assert router.leg_radius == 1
    # Routing an edge now labels the radius-1 legs only.
    before = substrate.stats.leg_nodes
    assert routed(router, g, "n1", "n2") == []
    back, fwd = edge_legs(g, "n1", "n2", 1)
    assert substrate.stats.leg_nodes - before == len(back) + len(fwd)
    router.unregister(two)
    assert router.leg_radius is None
    before = substrate.stats.leg_nodes, stats.distance_checks
    assert routed(router, g, "n2", "n3") == []
    assert (substrate.stats.leg_nodes, stats.distance_checks) == before


def test_distance_routed_query_needs_a_substrate():
    g = labelled_chain("A", "C")
    q = pool_query(
        "q",
        Pattern.from_spec(
            {"x": "label = A", "y": "label = C"}, [("x", "y", 2)]
        ),
        g,
        semantics="bounded",
    )
    with pytest.raises(ValueError):
        UpdateRouter().register(q)
