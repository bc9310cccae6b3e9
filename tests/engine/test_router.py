"""Unit tests for the label/predicate-keyed UpdateRouter."""

import pytest

from repro.engine import MatcherPool, UpdateRouter
from repro.engine.distances import SharedDistanceSubstrate
from repro.engine.eligibility import SharedEligibilityIndex
from repro.engine.query import ContinuousQuery
from repro.graphs.digraph import DiGraph
from repro.incremental.types import insert
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import parse_predicate


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
