"""Tests for incremental simulation (IncMatch family, paper Section 5).

The central invariant, checked many times over: after any update sequence
the index equals a from-scratch batch recomputation on the final graph.
"""

import pytest
from hypothesis import given, settings

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import chain, synthetic_graph
from repro.graphs.scc import is_dag
from repro.incremental.incsim import SimulationIndex
from repro.incremental.types import delete, insert
from repro.matching.relation import as_pairs, totalize
from repro.matching.simulation import maximum_simulation
from repro.patterns.generator import random_pattern
from repro.patterns.pattern import Pattern, PatternError
from repro.patterns.predicate import Predicate
from repro.workloads.updates import mixed_updates
from tests.strategies import small_graphs, small_patterns, update_batches


def assert_matches_batch(idx: SimulationIndex) -> None:
    batch = maximum_simulation(idx.pattern, idx.graph)
    assert as_pairs(idx.raw_match_sets()) == as_pairs(batch)
    idx.check_invariants()


def cto_db_pattern() -> Pattern:
    return Pattern.normal_from_labels(
        {"c": "CTO", "d": "DB", "b": "Bio"},
        [("c", "d"), ("d", "b")],
        attribute="job",
    )


class TestConstruction:
    def test_initial_match_equals_batch(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        assert_matches_batch(idx)

    def test_b_pattern_rejected(self, friendfeed_graph):
        p = Pattern.from_spec({"x": None, "y": None}, [("x", "y", 2)])
        with pytest.raises(PatternError):
            SimulationIndex(p, friendfeed_graph)

    def test_matches_totalized(self):
        g = DiGraph()
        g.add_node("a", label="A")
        p = Pattern.normal_from_labels({"u": "A", "w": "B"}, [("u", "w")])
        idx = SimulationIndex(p, g)
        assert idx.matches() == {"u": set(), "w": set()}


class TestUnitDeletion:
    def test_ss_deletion_demotes(self, friendfeed_graph):
        """Example 5.2: deleting (Pat, Bill) invalidates Pat for DB."""
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        assert "Pat" in idx.raw_match_sets()["d"]
        idx.delete_edge("Pat", "Bill")
        # Pat's only Bio child was Bill; Dan still has Mat.
        assert "Pat" not in idx.raw_match_sets()["d"]
        assert "Dan" in idx.raw_match_sets()["d"]
        assert_matches_batch(idx)

    def test_deletion_cascades_upward(self):
        g = DiGraph()
        for n, lab in (("a", "A"), ("b", "B"), ("c", "C")):
            g.add_node(n, label=lab)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        p = Pattern.normal_from_labels(
            {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
        )
        idx = SimulationIndex(p, g)
        assert idx.raw_match_sets()["x"] == {"a"}
        idx.delete_edge("b", "c")
        # b loses z-support, which cascades to a.
        assert idx.raw_match_sets() == {"x": set(), "y": set(), "z": {"c"}}
        assert_matches_batch(idx)

    def test_irrelevant_deletion_cheap(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        idx.stats.reset()
        idx.delete_edge("Ross", "Dan")  # Ross matches nothing
        assert idx.stats.demotions == 0
        assert_matches_batch(idx)

    def test_deleting_absent_edge_noop(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        assert not idx.delete_edge("Ann", "Ross")
        assert_matches_batch(idx)

    def test_deletion_can_empty_match(self):
        g = DiGraph()
        g.add_node("a", label="A")
        g.add_node("b", label="B")
        g.add_edge("a", "b")
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = SimulationIndex(p, g)
        idx.delete_edge("a", "b")
        assert idx.matches() == {"x": set(), "y": set()}
        assert_matches_batch(idx)


class TestUnitInsertion:
    def test_cs_insertion_promotes(self):
        g = DiGraph()
        for n, lab in (("a", "A"), ("b", "B")):
            g.add_node(n, label=lab)
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = SimulationIndex(p, g)
        assert idx.matches()["x"] == set()
        idx.insert_edge("a", "b")
        assert idx.raw_match_sets()["x"] == {"a"}
        assert_matches_batch(idx)

    def test_promotion_cascades_upward(self):
        g = DiGraph()
        for n, lab in (("a", "A"), ("b", "B"), ("c", "C")):
            g.add_node(n, label=lab)
        g.add_edge("a", "b")
        p = Pattern.normal_from_labels(
            {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
        )
        idx = SimulationIndex(p, g)
        idx.insert_edge("b", "c")
        assert idx.raw_match_sets() == {"x": {"a"}, "y": {"b"}, "z": {"c"}}
        assert_matches_batch(idx)

    def test_cyclic_pattern_scc_promotion(self):
        """Paper Fig. 6 scenario: two chains close into a cycle."""
        g = chain(4, label="a")
        g2 = chain(4, label="a")
        for v, w in g2.edges():
            g.add_edge(v + 10, w + 10)
        for v in g2.nodes():
            g.add_node(v + 10, label="a")
        p = Pattern.normal_from_labels({"u": "a", "w": "a"}, [("u", "w"), ("w", "u")])
        idx = SimulationIndex(p, g)
        assert idx.matches() == {"u": set(), "w": set()}
        idx.insert_edge(3, 10)  # chains joined, still acyclic
        assert idx.matches() == {"u": set(), "w": set()}
        idx.insert_edge(13, 0)  # now a big cycle: everything matches
        sets = idx.raw_match_sets()
        assert len(sets["u"]) == 8 and len(sets["w"]) == 8
        assert_matches_batch(idx)

    def test_ss_insertion_no_new_matches(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        before = as_pairs(idx.raw_match_sets())
        idx.stats.reset()
        idx.insert_edge("Ann", "Dan")  # both already matches
        assert as_pairs(idx.raw_match_sets()) == before
        assert idx.stats.promotions == 0
        assert_matches_batch(idx)

    def test_duplicate_insertion_noop(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        assert not idx.insert_edge("Ann", "Pat")
        assert_matches_batch(idx)

    def test_new_node_registration(self):
        g = DiGraph()
        g.add_node("a", label="A")
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = SimulationIndex(p, g)
        idx.add_node("fresh", label="B")
        idx.insert_edge("a", "fresh")
        assert idx.raw_match_sets() == {"x": {"a"}, "y": {"fresh"}}
        assert_matches_batch(idx)

    def test_add_node_attribute_change_promotes(self):
        g = DiGraph()
        g.add_node("a", label="A")
        g.add_node("mystery", label="?")
        g.add_edge("a", "mystery")
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = SimulationIndex(p, g)
        assert idx.matches()["x"] == set()
        idx.add_node("mystery", label="B")
        assert idx.raw_match_sets()["x"] == {"a"}
        assert_matches_batch(idx)


def two_cycle(predicate=None) -> Pattern:
    """``u`` and ``w`` each need a child matching the other."""
    p = Pattern()
    for u in ("u", "w"):
        p.add_node(u, predicate or Predicate.label("a"))
    p.add_edge("u", "w", 1)
    p.add_edge("w", "u", 1)
    return p


class TestAffectedArea:
    """IncMatch+ promotes from its seeds, not from every candidate."""

    @staticmethod
    def chains(n: int, length: int = 4) -> DiGraph:
        """``n`` disjoint candidate chains ``(i, 0) -> ... -> (i, L - 1)``
        of ``L = length`` nodes, each below a node ``(i, "top")``."""
        g = DiGraph()
        for i in range(n):
            g.add_node((i, "top"), label="b")
            for j in range(length):
                g.add_node((i, j), label="a")
            g.add_edge((i, "top"), (i, 0))
            for j in range(length - 1):
                g.add_edge((i, j), (i, j + 1))
        return g

    def test_work_is_independent_of_untouched_candidates(self):
        """The 2-cycle ``u <-> w`` under a parent ``x -> u``: closing one
        chain promotes its SCC closure, which hands off to its top."""
        pattern = two_cycle()
        pattern.add_node("x", Predicate.label("b"))
        pattern.add_edge("x", "u", 1)
        examined = []
        for n in (10, 100):
            idx = SimulationIndex(pattern, self.chains(n))
            assert idx.matches() == {"u": set(), "w": set(), "x": set()}
            idx.insert_edge((0, 3), (0, 0))  # closes chain 0 into a cycle
            chain0 = {(0, j) for j in range(4)}
            assert idx.raw_match_sets() == {
                "u": chain0, "w": chain0, "x": {(0, "top")}
            }
            assert idx.stats.promotions == 9
            examined.append(idx.stats.candidates_examined)
            assert_matches_batch(idx)
        assert examined[0] == examined[1]

    def test_fresh_endpoints_close_a_cycle(self):
        """Both edges have a fresh endpoint, so no bookkeeping sees them:
        only the fresh endpoint's adopted pairs seed the promotion."""
        pattern = two_cycle(Predicate.true())
        batch = [insert("a", "z"), insert("z", "a")]
        g = DiGraph()
        g.add_node("a")
        idx = SimulationIndex(pattern, g)
        idx.apply_batch(batch)
        assert idx.raw_match_sets() == {"u": {"a", "z"}, "w": {"a", "z"}}
        assert_matches_batch(idx)
        g = DiGraph()
        g.add_node("a")
        pool = MatcherPool(g)
        q = pool.register(pattern, semantics="simulation", name="cycle")
        pool.apply(batch)
        assert q.matches() == {"u": {"a", "z"}, "w": {"a", "z"}}
        q.index.check_invariants()

    def test_fresh_endpoints_adopt_before_promoting(self):
        """A fresh endpoint promoted on adoption bumps the counter of a
        fresh parent from the same batch, so every fresh endpoint's
        counters must exist first."""
        pattern = Pattern()
        pattern.add_node("x", Predicate.true())
        pattern.add_node("y", Predicate.true())
        pattern.add_edge("x", "y", 1)
        g = DiGraph()
        g.add_node("q")
        pool = MatcherPool(g)
        q = pool.register(pattern, semantics="simulation", name="leaf")
        pool.apply([insert("a", "b"), insert("c", "a")])
        assert q.matches() == {"x": {"a", "c"}, "y": {"a", "b", "c", "q"}}
        q.index.check_invariants()


class TestBatch:
    def test_example_5_5_cancellation(self, friendfeed_graph):
        """Deleting and re-adding ss support for Pat cancels out."""
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        idx.apply_batch([
            delete("Pat", "Bill"),
            insert("Pat", "Mat"),  # Pat keeps a Bio child
        ])
        assert "Pat" in idx.raw_match_sets()["d"]
        assert_matches_batch(idx)

    def test_mixed_batch_equals_batch_recompute(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        idx.apply_batch([
            insert("Don", "Pat"),
            insert("Don", "Tom"),
            delete("Ann", "Bill"),
            insert("Dan", "Tom"),
        ])
        assert_matches_batch(idx)

    def test_same_edge_insert_delete_in_batch(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        before = as_pairs(idx.raw_match_sets())
        idx.apply_batch([insert("Don", "Tom"), delete("Don", "Tom")])
        assert as_pairs(idx.raw_match_sets()) == before
        assert_matches_batch(idx)

    def test_naive_equals_batch(self, friendfeed_graph):
        updates = [
            insert("Don", "Pat"),
            delete("Pat", "Bill"),
            insert("Don", "Tom"),
        ]
        a = SimulationIndex(cto_db_pattern(), friendfeed_graph.copy())
        b = SimulationIndex(cto_db_pattern(), friendfeed_graph.copy())
        a.apply_batch(updates)
        b.apply_batch_naive(updates)
        assert as_pairs(a.raw_match_sets()) == as_pairs(b.raw_match_sets())

    def test_stats_track_reduction(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        idx.apply_batch([insert("Don", "Tom"), delete("Don", "Tom")])
        assert idx.stats.original_updates == 2
        assert idx.stats.reduced_updates == 0


class TestMinDelta:
    def test_drops_irrelevant(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        # Ross matches nothing: updates touching only Ross are irrelevant.
        reduced = idx.min_delta([insert("Ross", "Tom"), delete("Ross", "Dan")])
        assert reduced == []

    def test_keeps_ss_deletion(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        reduced = idx.min_delta([delete("Pat", "Bill")])
        assert reduced == [delete("Pat", "Bill")]

    def test_keeps_cs_insertion(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        # Don is a CTO candidate; Pat is a DB match.
        reduced = idx.min_delta([insert("Don", "Pat")])
        assert reduced == [insert("Don", "Pat")]

    def test_does_not_mutate(self, friendfeed_graph):
        idx = SimulationIndex(cto_db_pattern(), friendfeed_graph)
        before = as_pairs(idx.raw_match_sets())
        idx.min_delta([delete("Pat", "Bill"), insert("Don", "Pat")])
        assert as_pairs(idx.raw_match_sets()) == before
        assert not idx.graph.has_edge("Don", "Pat")


class TestDagFastPath:
    def test_dag_insertions_use_worklist(self):
        g = synthetic_graph(40, 90, seed=8)
        p = random_pattern(g, 4, 4, preds_per_node=1, max_bound=1, dag=True, seed=8)
        assert is_dag(p.graph())
        idx = SimulationIndex(p, g.copy())
        for u in mixed_updates(g, 10, 0, seed=9):
            idx.insert_edge(u.source, u.target)
        assert_matches_batch(idx)


# The simulation fuzzers below draw pattern self-loops too: a self-loop
# is a nontrivial pattern SCC of one node.
@settings(max_examples=40, deadline=None)
@given(
    small_graphs(),
    small_patterns(max_bound=1, allow_star=False, self_loops=True),
)
def test_random_unit_updates_match_batch(g, p):
    idx = SimulationIndex(p, g.copy())
    for u in mixed_updates(g, 4, 4, seed=21):
        if u.op == "insert":
            idx.insert_edge(u.source, u.target)
        else:
            idx.delete_edge(u.source, u.target)
        assert_matches_batch(idx)


@settings(max_examples=40, deadline=None)
@given(
    small_graphs(),
    small_patterns(max_bound=1, allow_star=False, self_loops=True),
)
def test_random_batches_match_batch(g, p):
    idx = SimulationIndex(p, g.copy())
    for seed in (31, 32):
        idx.apply_batch(mixed_updates(idx.graph, 4, 4, seed=seed))
        assert_matches_batch(idx)


@settings(max_examples=25, deadline=None)
@given(
    small_graphs(max_nodes=6),
    small_patterns(
        max_nodes=3, max_bound=1, allow_star=False, self_loops=True
    ),
)
def test_hypothesis_update_batches(g, p):
    """Adversarial batches from the update strategy, incl. duplicates."""
    idx = SimulationIndex(p, g.copy())
    batch = [insert(0, 0), insert(0, 0), delete(0, 0)]
    idx.apply_batch(batch)
    assert_matches_batch(idx)
