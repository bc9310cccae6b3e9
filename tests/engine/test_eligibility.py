"""Unit tests for the pool-wide predicate-eligibility substrate."""

import random

import pytest

from repro.engine import (
    EligibilityLeaseError,
    MatcherPool,
    SharedEligibilityIndex,
)
from repro.engine.eligibility import EligibleSet
from repro.graphs.digraph import DiGraph
from repro.incremental.types import insert
from repro.patterns.minimize import canonical_pattern
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Atom, Predicate, parse_predicate
from tests.attr_values import ATOM_CASES, VALUES


def _graph():
    g = DiGraph()
    g.add_node(1, label="A", age=30)
    g.add_node(2, label="A", age=20)
    g.add_node(3, label="B", age=40)
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    return g


class TestLeases:
    def test_lease_builds_once_and_interns_permutations(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        a = idx.lease(parse_predicate("label = A & age > 25"))
        b = idx.lease(parse_predicate("age > 25 & label = A"))
        assert a is b
        assert a.refs == 2
        assert a.members == {1}
        assert idx.num_entries() == 1
        assert idx.stats.sets_built == 1

    def test_release_drops_at_zero(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pred = parse_predicate("label = A")
        idx.lease(pred)
        idx.lease(pred)
        idx.release(pred)
        assert idx.num_entries() == 1
        idx.release(pred)
        assert idx.num_entries() == 0
        # A fresh lease rebuilds from the current graph.
        g.add_node(4, label="A")
        assert idx.lease(pred).members == {1, 2, 4}

    def test_trivial_predicate_members_everything(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        entry = idx.lease(parse_predicate(""))
        assert entry.members == {1, 2, 3}

    def test_atoms_shared_across_conjunctions(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        a = idx.lease(parse_predicate("label = A"))
        b = idx.lease(parse_predicate("label = A & age > 25"))
        assert idx.num_atoms() == 2
        # Both conjunctions read the SAME posting set for the shared atom
        # (canonical atom order puts ``age > 25`` before ``label = A``).
        assert a.atom_entries[0] is b.atom_entries[1]
        assert idx.stats.atom_sets_built == 2
        # Releasing the 2-atom conjunction keeps the shared atom alive.
        idx.release(parse_predicate("label = A & age > 25"))
        assert idx.num_atoms() == 1
        idx.release(parse_predicate("label = A"))
        assert idx.num_atoms() == 0


class TestLeaseLifecycle:
    def test_release_never_leased_raises(self):
        idx = SharedEligibilityIndex(_graph())
        with pytest.raises(EligibilityLeaseError, match="never-leased"):
            idx.release(parse_predicate("label = A"))

    def test_double_release_raises_and_protects_other_holders(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pred = parse_predicate("label = A")
        idx.lease(pred)
        idx.release(pred)
        with pytest.raises(EligibilityLeaseError, match="never-leased"):
            idx.release(pred)  # entry already dropped
        assert idx.entry(pred) is None

    def test_surviving_lease_keeps_seeing_flips(self):
        """Regression: another consumer leasing and releasing the
        predicate a holder reads must not leave the holder's member set
        stale: the holder's own lease keeps the entry alive and
        maintained."""
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pred = parse_predicate("label = B")
        held = idx.lease(pred)
        assert held.members == {3}
        # A second consumer leases and releases the same predicate.
        idx.lease(pred)
        idx.release(pred)
        assert idx.entry(pred) is held
        # The holder must still see flips: node 3 loses label B...
        g.add_node(3, label="C")
        assert idx.observe_attr_change(3) == [(pred, False)]
        assert held.members == set()
        # ...and gains it back.
        g.add_node(3, label="B")
        assert idx.observe_attr_change(3) == [(pred, True)]
        assert held.members == {3}
        idx.check_invariants()
        idx.release(pred)
        assert idx.num_entries() == 0


class TestUnsatisfiable:
    def test_unsat_conjunction_is_upkeep_free(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        unsat = parse_predicate("label = A & label = B")
        entry = idx.lease(unsat)
        assert entry.members == set()
        assert idx.num_atoms() == 0  # no posting sets leased
        idx.stats.reset()
        g.add_node(9, label="A")
        assert idx.observe_node_added(9) == []
        g.add_node(1, label="B")
        assert idx.observe_attr_change(1) == []
        assert idx.stats.atom_evals == 0
        assert entry.members == set()
        idx.check_invariants()
        idx.release(unsat)
        assert idx.num_entries() == 0

    def test_unsat_predicate_consumes_no_router_bucket(self):
        g = _graph()
        pool = MatcherPool(g)
        p = Pattern.from_spec(
            {"x": "label = A & label = B", "y": "label = B"}, [("x", "y", 1)]
        )
        q = pool.register(p, semantics="bounded", name="u")
        unsat = parse_predicate("label = A & label = B")
        assert unsat not in pool._router._by_pred
        assert q.matches()["x"] == set()
        # Churn that would flip the satisfiable atoms repairs fine.
        pool.update_node_attrs(1, label="B")
        assert q.matches()["x"] == set()
        pool.unregister(q)
        assert pool.eligibility.num_entries() == 0


class TestObservation:
    def test_node_added_reports_gains_only(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pa = parse_predicate("label = A")
        pb = parse_predicate("label = B")
        ea, eb = idx.lease(pa), idx.lease(pb)
        g.add_node(4, label="A")
        flips = idx.observe_node_added(4)
        assert flips == [(pa, True)]
        assert 4 in ea.members and 4 not in eb.members

    def test_attr_change_flips_membership(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pa = parse_predicate("label = A")
        conj = parse_predicate("label = B & age > 25")
        ea, ec = idx.lease(pa), idx.lease(conj)
        g.add_node(1, label="B")  # label A -> B, age stays 30
        flips = dict(idx.observe_attr_change(1))
        assert flips == {pa: False, conj: True}
        assert 1 not in ea.members and 1 in ec.members
        # A no-op merge flips nothing and changes no membership.
        before = (set(ea.members), set(ec.members))
        assert idx.observe_attr_change(1) == []
        assert (ea.members, ec.members) == before

    def test_changed_names_prune_unrelated_predicates(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        idx.lease(parse_predicate("label = A"))
        idx.lease(parse_predicate("age > 25"))
        idx.lease(parse_predicate(""))  # trivial: no attr can flip it
        idx.stats.reset()
        g.add_node(1, weight=3)  # attribute no predicate mentions
        assert idx.observe_attr_change(1, ["weight"]) == []
        assert idx.stats.atom_evals == 0
        g.add_node(1, age=10)
        flips = idx.observe_attr_change(1, ["age"])
        assert idx.stats.atom_evals == 1  # only the age atom
        assert flips == [(parse_predicate("age > 25"), False)]

    def test_one_evaluation_per_distinct_atom_per_event(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        idx.lease(parse_predicate("label = A"))
        idx.lease(parse_predicate("A = 1 & b = 2"))
        idx.stats.reset()
        g.add_node(9, label="A")
        idx.observe_node_added(9)
        # One per interned atom (label=A, A=1, b=2), NOT per conjunction.
        assert idx.stats.atom_evals == 3

    def test_shared_atoms_amortize_across_conjunctions(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        # Three conjunctions drawn from a 2-atom vocabulary.
        idx.lease(parse_predicate("label = A"))
        idx.lease(parse_predicate("age > 25"))
        idx.lease(parse_predicate("label = A & age > 25"))
        assert idx.num_entries() == 3
        assert idx.num_atoms() == 2
        idx.stats.reset()
        g.add_node(9, label="A", age=50)
        flips = idx.observe_node_added(9)
        assert idx.stats.atom_evals == 2  # per atom, not per conjunction
        assert len(flips) == 3  # but every dependent view flipped
        idx.check_invariants()

    def test_listener_exactly_once_for_conjunctions_sharing_an_atom(self):
        """One node event flipping two conjunctions that share an atom
        must report exactly one flip per conjunction."""
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pa = parse_predicate("label = A")
        pc = parse_predicate("label = A & age > 25")
        idx.lease(pa)
        idx.lease(pc)
        # Node 3 (label B, age 40) becomes label A: ONE event, BOTH
        # conjunctions gain — one flip each.
        g.add_node(3, label="A")
        flips = idx.observe_attr_change(3)
        assert dict(flips) == {pa: True, pc: True}
        assert len(flips) == 2
        # And back: both lose in one event, again exactly once each.
        g.add_node(3, label="B")
        flips = idx.observe_attr_change(3)
        assert dict(flips) == {pa: False, pc: False}
        assert len(flips) == 2
        idx.check_invariants()

    def test_node_added_listener_order_and_exactly_once(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pa = parse_predicate("label = A")
        pc = parse_predicate("label = A & age > 25")
        idx.lease(pa)
        idx.lease(pc)
        g.add_node(9, label="A", age=30)
        flips = idx.observe_node_added(9)
        # Exactly one gain per dependent conjunction, in interning order.
        assert flips == [(pa, True), (pc, True)]

    def test_check_invariants_catches_drift(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        entry = idx.lease(parse_predicate("label = A"))
        idx.check_invariants()
        entry.members.add(3)  # corrupt
        with pytest.raises(AssertionError):
            idx.check_invariants()

    def test_net_flips_cancel_within_batch(self):
        g = DiGraph()
        g.add_node("v", score=1)
        idx = SharedEligibilityIndex(g)
        pred = parse_predicate("score > 2")
        idx.lease(pred)
        # Two writes that net out: gain then loss inside one batch.
        g.set_attr("v", "score", 5)
        g.set_attr("v", "score", 0)
        flips = idx.observe_events(
            [("v", ["score"], False), ("v", ["score"], False)]
        )
        assert flips == []
        assert "v" not in idx.entry(pred).members
        idx.check_invariants()

    def test_batch_flips_are_the_net_membership_change(self):
        """Random batches of attribute writes and fresh nodes: each
        batch's flips are exactly the change in membership, recomputed
        from scratch before and after it, one flip per (predicate,
        node)."""
        rnd = random.Random(59)
        g = DiGraph(
            [(i, (i + 1) % 20) for i in range(20)],
            {i: {"score": i % 7, "label": "AB"[i % 2]} for i in range(20)},
        )
        idx = SharedEligibilityIndex(g)
        preds = [
            parse_predicate("score > 3"),
            parse_predicate("score > 3 & label = A"),
            parse_predicate("label != B"),
            parse_predicate(""),
        ]
        for p in preds:
            idx.lease(p)

        def truth():
            return {
                (p, v)
                for p in preds
                for v in g.nodes()
                if p.satisfied_by(g.attrs(v))
            }

        for _ in range(30):
            before = truth()
            events = []
            for _ in range(rnd.randrange(1, 5)):
                v = rnd.randrange(25)
                if not g.has_node(v):
                    g.add_node(v, score=rnd.randrange(7))
                    events.append((v, None, True))
                    continue
                names = rnd.choice([["score"], ["label"], None])
                if names == ["score"]:
                    attrs = {"score": rnd.randrange(7)}
                elif names == ["label"]:
                    attrs = {"label": rnd.choice("AB")}
                else:
                    attrs = {"score": rnd.randrange(7), "label": "A"}
                for name, value in attrs.items():
                    g.set_attr(v, name, value)
                events.append((v, names, False))
            flips = idx.observe_events(events)
            after = truth()
            assert len(flips) == len(set(flips))
            assert set(flips) == (
                {(p, v, True) for p, v in after - before}
                | {(p, v, False) for p, v in before - after}
            )
            for p in preds:
                assert idx.entry(p).members == {
                    v for q, v in after if q == p
                }
            idx.check_invariants()


class TestMixedDomainColumn:
    @pytest.mark.parametrize("op,value,expected", ATOM_CASES)
    def test_postings_follow_writes_across_value_domains(
        self, op, value, expected
    ):
        """An attribute holding values of every domain
        (``tests.attr_values``), rewritten in random batches: the atom's
        posting set and a conjunction over it hold exactly the nodes whose
        current value satisfies the atom, and each batch's flips are the
        net membership change."""
        rnd = random.Random(61)
        names = sorted(VALUES)
        # node -> name of its current x value; None: no x attribute.
        current = {}
        g = DiGraph()
        for v in range(30):
            current[v] = None if v % 6 == 0 else rnd.choice(names)
            g.add_node(v, y=v % 2)
            if current[v] is not None:
                g.set_attr(v, "x", VALUES[current[v]])
        idx = SharedEligibilityIndex(g)
        atom = Predicate([Atom("x", op, value)])
        conj = Predicate([Atom("x", op, value), Atom("y", "=", 1)])
        idx.lease(atom)
        idx.lease(conj)

        def truth():
            hits = {v for v, name in current.items() if name in expected}
            return {(atom, v) for v in hits} | {
                (conj, v) for v in hits if g.get_attr(v, "y") == 1
            }

        assert {(atom, v) for v in idx.entry(atom).members} | {
            (conj, v) for v in idx.entry(conj).members
        } == truth()
        for _ in range(25):
            before = truth()
            events = []
            for _ in range(rnd.randrange(1, 6)):
                v = rnd.randrange(36)
                name = rnd.choice(names)
                if v not in current:
                    current[v] = name
                    g.add_node(v, x=VALUES[name], y=rnd.randrange(2))
                    events.append((v, None, True))
                elif rnd.random() < 0.2:
                    g.set_attr(v, "y", 1 - g.get_attr(v, "y"))
                    events.append((v, ["y"], False))
                else:
                    current[v] = name
                    g.set_attr(v, "x", VALUES[name])
                    events.append((v, ["x"], False))
            flips = idx.observe_events(events)
            after = truth()
            assert len(flips) == len(set(flips))
            assert set(flips) == (
                {(p, v, True) for p, v in after - before}
                | {(p, v, False) for p, v in before - after}
            )
            assert idx.entry(atom).members == {
                v for p, v in after if p is atom
            }
            assert idx.entry(conj).members == {
                v for p, v in after if p is conj
            }
            idx.check_invariants()


class TestPoolIntegration:
    def test_same_predicate_queries_share_sets(self):
        g = _graph()
        pool = MatcherPool(g)
        # Two distinct patterns (two interned indexes) over the same two
        # predicates.
        p1 = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        p2 = Pattern.normal_from_labels(
            {"x": "A", "y": "B"}, [("x", "y"), ("y", "x")]
        )
        q1 = pool.register(p1, semantics="simulation", name="q1")
        q2 = pool.register(p2, semantics="simulation", name="q2")
        i1, i2 = q1.index.join.query.index, q2.index.join.query.index
        assert i1 is not i2
        x1 = canonical_pattern(p1).renaming["x"]
        x2 = canonical_pattern(p2).renaming["x"]
        assert i1.eligible[x1] is i2.eligible[x2]
        assert pool.eligibility.num_entries() == 2

    def test_unregister_releases_leases(self):
        g = _graph()
        pool = MatcherPool(g)
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        q1 = pool.register(p, semantics="simulation", name="q1")
        pool.register(p, semantics="simulation", name="q2")
        pool.unregister(q1)
        assert pool.eligibility.num_entries() == 2  # q2 still leases
        pool.unregister(pool.query("q2"))
        assert pool.eligibility.num_entries() == 0

    def test_flip_routing_repairs_all_semantics(self):
        g = _graph()
        pool = MatcherPool(g)
        sim = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        bnd = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
        )
        qs = pool.register(sim, semantics="simulation", name="s")
        qb = pool.register(bnd, semantics="bounded", name="b")
        qi = pool.register(sim, semantics="isomorphism", name="i")
        pool.update_node_attrs(2, label="B")
        assert ("y", 2) in (
            (u, v) for u, vs in qs.matches().items() for v in vs
        )
        assert 2 in qb.matches()["y"]
        assert any(emb["y"] == 2 for emb in qi.embeddings())
        pool.update_node_attrs(3, label="C")  # loses y for node 3
        pool.eligibility.check_invariants()

    def test_fresh_wired_node_reaches_shared_sets_before_routing(self):
        g = _graph()
        pool = MatcherPool(g)
        p = Pattern.from_spec({"x": "", "y": "label = B"}, [("x", "y", 2)])
        q = pool.register(p, semantics="bounded", name="q")
        # Wire a brand-new attribute-less node straight to 3 (label B):
        # it satisfies TRUE immediately and must appear in the match.
        pool.apply([insert(99, 3)])
        assert 99 in q.matches().get("x", set())
