"""Unit tests for the pool-wide predicate-eligibility substrate."""

import pytest

from repro.engine import (
    EligibilityLeaseError,
    MatcherPool,
    SharedEligibilityIndex,
)
from repro.engine.distances import SharedDistanceSubstrate
from repro.engine.eligibility import EligibleSet
from repro.graphs.digraph import DiGraph
from repro.incremental.types import insert
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import parse_predicate


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
        # With a listener keeping the zero-ref entry alive, over-release
        # must raise instead of driving refs negative.
        entry = idx.lease(pred)
        token = idx.add_listener(pred, lambda v: None, lambda v: None)
        idx.release(pred)
        assert idx.entry(pred) is entry  # kept alive by the listener
        with pytest.raises(EligibilityLeaseError, match="unbalanced"):
            idx.release(pred)
        idx.remove_listener(pred, token)
        assert idx.entry(pred) is None

    def test_listeners_keep_entry_alive_across_release_and_relense(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pred = parse_predicate("label = A")
        entry = idx.lease(pred)
        seen = []
        idx.add_listener(
            pred, lambda v: seen.append(("gain", v)),
            lambda v: seen.append(("loss", v)),
        )
        idx.release(pred)
        # The listener keeps the entry (and its members object) alive...
        assert idx.num_entries() == 1
        release = idx.lease(pred)
        assert release is entry
        assert release.members is entry.members
        # ...and still fires after the release/re-lease cycle.
        g.add_node(3, label="A")
        idx.observe_attr_change(3)
        assert seen == [("gain", 3)]
        idx.check_invariants()

    def test_distance_substrate_listener_survives_release_relense(self):
        """Regression: releasing+re-leasing a predicate another consumer
        holds must not unhook the distance substrate's ball-field
        listener."""
        g = _graph()
        idx = SharedEligibilityIndex(g)
        substrate = SharedDistanceSubstrate(g, eligibility=idx)
        pred = parse_predicate("label = A")
        field = substrate.lease_field(pred, 1, False)
        assert 3 in field  # one hop out from source 2
        # A second consumer leases and releases the same predicate.
        idx.lease(pred)
        idx.release(pred)
        # The field's listener must still see flips: node 2 loses label A.
        g.add_node(2, label="C")
        idx.observe_attr_change(2)
        assert 2 not in field.sources
        g.add_node(2, label="A")
        idx.observe_attr_change(2)
        assert 2 in field.sources
        substrate.check_invariants()
        substrate.release_field(pred, 1, False)
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
        assert entry.members == set() and entry.version == 0
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

    def test_attr_change_flips_and_versions(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pa = parse_predicate("label = A")
        conj = parse_predicate("label = B & age > 25")
        ea, ec = idx.lease(pa), idx.lease(conj)
        va, vc = ea.version, ec.version
        g.add_node(1, label="B")  # label A -> B, age stays 30
        flips = dict(idx.observe_attr_change(1))
        assert flips == {pa: False, conj: True}
        assert ea.version == va + 1 and ec.version == vc + 1
        assert 1 not in ea.members and 1 in ec.members
        # A no-op merge flips nothing and bumps nothing.
        before = (ea.version, ec.version)
        assert idx.observe_attr_change(1) == []
        assert (ea.version, ec.version) == before

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

    def test_listeners_fire_after_mutation(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pred = parse_predicate("label = A")
        entry = idx.lease(pred)
        seen = []
        token = idx.add_listener(
            pred,
            lambda v: seen.append(("gain", v, v in entry.members)),
            lambda v: seen.append(("loss", v, v in entry.members)),
        )
        g.add_node(3, label="A")
        idx.observe_attr_change(3)
        g.add_node(3, label="C")
        idx.observe_attr_change(3)
        assert seen == [("gain", 3, True), ("loss", 3, False)]
        idx.remove_listener(pred, token)
        g.add_node(3, label="A")
        idx.observe_attr_change(3)
        assert len(seen) == 2

    def test_listener_exactly_once_for_conjunctions_sharing_an_atom(self):
        """One node event flipping two conjunctions that share an atom
        must deliver exactly one callback per (conjunction, flip), with
        the member sets already mutated (set-already-mutated contract)."""
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pa = parse_predicate("label = A")
        pc = parse_predicate("label = A & age > 25")
        ea, ec = idx.lease(pa), idx.lease(pc)
        seen = []
        idx.add_listener(
            pa,
            lambda v: seen.append(("a+", v, v in ea.members)),
            lambda v: seen.append(("a-", v, v in ea.members)),
        )
        idx.add_listener(
            pc,
            lambda v: seen.append(("c+", v, v in ec.members)),
            lambda v: seen.append(("c-", v, v in ec.members)),
        )
        # Node 3 (label B, age 40) becomes label A: ONE event, BOTH
        # conjunctions gain — one callback each, own set already mutated.
        g.add_node(3, label="A")
        flips = idx.observe_attr_change(3)
        assert sorted(seen) == [("a+", 3, True), ("c+", 3, True)]
        assert dict(flips) == {pa: True, pc: True}
        assert len(flips) == 2
        # And back: both lose in one event, again exactly once each.
        seen.clear()
        g.add_node(3, label="B")
        flips = idx.observe_attr_change(3)
        assert sorted(seen) == [("a-", 3, False), ("c-", 3, False)]
        assert dict(flips) == {pa: False, pc: False}
        assert len(flips) == 2
        idx.check_invariants()

    def test_node_added_listener_order_and_exactly_once(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        pa = parse_predicate("label = A")
        pc = parse_predicate("label = A & age > 25")
        ea, ec = idx.lease(pa), idx.lease(pc)
        seen = []
        idx.add_listener(
            pa, lambda v: seen.append(("a+", v in ea.members)),
            lambda v: seen.append(("a-", None)),
        )
        idx.add_listener(
            pc, lambda v: seen.append(("c+", v in ec.members)),
            lambda v: seen.append(("c-", None)),
        )
        g.add_node(9, label="A", age=30)
        flips = idx.observe_node_added(9)
        # Exactly one gain per dependent conjunction, post-mutation, in
        # interning order.
        assert seen == [("a+", True), ("c+", True)]
        assert flips == [(pa, True), (pc, True)]

    def test_check_invariants_catches_drift(self):
        g = _graph()
        idx = SharedEligibilityIndex(g)
        entry = idx.lease(parse_predicate("label = A"))
        idx.check_invariants()
        entry.members.add(3)  # corrupt
        with pytest.raises(AssertionError):
            idx.check_invariants()


class TestPoolIntegration:
    def test_same_predicate_queries_share_sets(self):
        g = _graph()
        pool = MatcherPool(g)
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        q1 = pool.register(p, semantics="simulation", name="q1")
        q2 = pool.register(p, semantics="simulation", name="q2")
        assert q1.index.eligible["x"] is q2.index.eligible["x"]
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
