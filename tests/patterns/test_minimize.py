"""Tests for pattern minimization."""

import pytest
from hypothesis import given, settings

from repro.matching.simulation import maximum_simulation
from repro.patterns.minimize import (
    equivalence_classes,
    minimize_pattern,
    pattern_self_simulation,
)
from repro.patterns.pattern import Pattern, PatternError
from tests.strategies import small_graphs, small_patterns


def twin_pattern() -> Pattern:
    """Two indistinguishable B-children under one A-parent."""
    return Pattern.normal_from_labels(
        {"a": "A", "b1": "B", "b2": "B"},
        [("a", "b1"), ("a", "b2")],
    )


class TestSelfSimulation:
    def test_reflexive(self):
        p = twin_pattern()
        rel = pattern_self_simulation(p)
        for u in p.nodes():
            assert (u, u) in rel

    def test_twins_mutually_simulate(self):
        rel = pattern_self_simulation(twin_pattern())
        assert ("b1", "b2") in rel and ("b2", "b1") in rel

    def test_different_predicates_unrelated(self):
        p = Pattern.normal_from_labels({"a": "A", "b": "B"}, [("a", "b")])
        rel = pattern_self_simulation(p)
        assert ("a", "b") not in rel

    def test_child_obligation_breaks_symmetry(self):
        # b1 has a further obligation, b2 does not: b1 is *more* demanding.
        p = Pattern.normal_from_labels(
            {"a": "A", "b1": "B", "b2": "B", "c": "C"},
            [("a", "b1"), ("a", "b2"), ("b1", "c")],
        )
        rel = pattern_self_simulation(p)
        assert ("b2", "b1") in rel  # b1 can do whatever b2 must
        assert ("b1", "b2") not in rel


class TestMinimize:
    def test_twins_merge(self):
        minimized, rep = minimize_pattern(twin_pattern())
        assert minimized.num_nodes() == 2
        assert rep["b1"] == rep["b2"]

    def test_already_minimal_unchanged(self):
        p = Pattern.normal_from_labels(
            {"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")]
        )
        minimized, rep = minimize_pattern(p)
        assert minimized.num_nodes() == 3
        assert all(rep[u] == u for u in p.nodes())

    def test_b_pattern_rejected(self):
        p = Pattern.from_spec({"x": None, "y": None}, [("x", "y", 2)])
        with pytest.raises(PatternError):
            minimize_pattern(p)

    def test_equivalence_classes_partition(self):
        classes = equivalence_classes(twin_pattern())
        members = [u for cls in classes for u in cls]
        assert sorted(members) == sorted(twin_pattern().nodes())

    def test_cyclic_twins_merge(self):
        p = Pattern.normal_from_labels(
            {"x": "A", "y": "A"}, [("x", "y"), ("y", "x")]
        )
        minimized, rep = minimize_pattern(p)
        assert minimized.num_nodes() == 1
        # The merged class keeps its self-obligation as a loop.
        only = next(iter(minimized.nodes()))
        assert minimized.has_edge(only, only)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), small_patterns(max_bound=1, allow_star=False))
def test_minimized_pattern_preserves_matches(g, p):
    """The headline property: per-class match sets are unchanged."""
    minimized, rep = minimize_pattern(p)
    original = maximum_simulation(p, g)
    reduced = maximum_simulation(minimized, g)
    for u in p.nodes():
        assert original[u] == reduced[rep[u]], (u, rep[u])


@settings(max_examples=30, deadline=None)
@given(small_patterns(max_bound=1, allow_star=False))
def test_minimization_is_idempotent(p):
    m1, _ = minimize_pattern(p)
    m2, rep2 = minimize_pattern(m1)
    assert m2.num_nodes() == m1.num_nodes()
    assert all(rep2[u] == u for u in m1.nodes())


# ----------------------------------------------------------------------
# Canonical form (name-independent fingerprints)
# ----------------------------------------------------------------------

import random

from hypothesis import strategies as st

from repro.graphs.digraph import DiGraph
from repro.patterns.generator import random_pattern
from repro.patterns.minimize import canonical_pattern


def _relabeled(p: Pattern, seed: int) -> Pattern:
    """The same pattern under a random node renaming."""
    rng = random.Random(seed)
    names = list(p.nodes())
    fresh = [f"r{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    q = Pattern()
    for u in names:
        q.add_node(mapping[u], p.predicate(u))
    for u, u2 in p.edges():
        q.add_edge(mapping[u], mapping[u2], p.bound(u, u2))
    return q


class TestCanonicalForm:
    def test_twins_fold_to_shared_index(self):
        canon = canonical_pattern(twin_pattern())
        assert canon.pattern.num_nodes() == 2
        assert canon.renaming["b1"] == canon.renaming["b2"]

    def test_minimized_and_redundant_spellings_agree(self):
        redundant = twin_pattern()
        minimal = Pattern.normal_from_labels(
            {"a": "A", "b": "B"}, [("a", "b")]
        )
        assert (
            canonical_pattern(redundant).key == canonical_pattern(minimal).key
        )

    def test_self_loop(self):
        p = Pattern.from_spec({"x": "label = A"}, [("x", "x", 2)])
        q = Pattern.from_spec({"other": "label = A"}, [("other", "other", 2)])
        assert canonical_pattern(p).key == canonical_pattern(q).key
        loop_edge = next(iter(canonical_pattern(p).pattern.edges()))
        assert loop_edge[0] == loop_edge[1]

    def test_duplicate_leg_patterns(self):
        # Same leg vocabulary (A -2-> B) appearing twice from one source
        # node is NOT the same pattern as a single leg.
        single = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
        )
        double = Pattern.from_spec(
            {"x": "label = A", "y": "label = B", "z": "label = B"},
            [("x", "y", 2), ("x", "z", 2)],
        )
        assert canonical_pattern(single).key != canonical_pattern(double).key

    def test_bounds_distinguish(self):
        spec = {"x": "label = A", "y": "label = B"}
        k2 = Pattern.from_spec(spec, [("x", "y", 2)])
        k3 = Pattern.from_spec(spec, [("x", "y", 3)])
        star = Pattern.from_spec(spec, [("x", "y", "*")])
        keys = {
            canonical_pattern(p).key for p in (k2, k3, star)
        }
        assert len(keys) == 3

    def test_fingerprint_delegates(self):
        p = twin_pattern()
        assert p.fingerprint() == canonical_pattern(p).key

    def test_equal_patterns_hash_equal(self):
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
        )
        q = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
        )
        assert p == q and hash(p) == hash(q)


@settings(max_examples=60, deadline=None)
@given(small_patterns(max_bound=3, allow_star=True), st.integers(0, 2**16))
def test_canonical_key_invariant_under_relabeling(p, seed):
    """The headline property: isomorphic spellings fingerprint equal."""
    assert canonical_pattern(p).key == canonical_pattern(_relabeled(p, seed)).key


@settings(max_examples=40, deadline=None)
@given(small_patterns(max_bound=3, allow_star=True))
def test_canonicalization_is_idempotent(p):
    canon = canonical_pattern(p)
    again = canonical_pattern(canon.pattern)
    assert again.key == canon.key
    assert again.pattern == canon.pattern


@settings(max_examples=40, deadline=None)
@given(small_graphs(), small_patterns(max_bound=1, allow_star=False))
def test_canonical_pattern_preserves_matches(g, p):
    """Renaming through ``canon.renaming`` preserves per-node match sets
    (canonicalization composes minimization with a bijective relabel)."""
    canon = canonical_pattern(p)
    original = maximum_simulation(p, g)
    relabeled = maximum_simulation(canon.pattern, g)
    for u in p.nodes():
        assert original[u] == relabeled[canon.renaming[u]], (u, canon.renaming)


def test_generator_patterns_relabel_consistently():
    """Generator-produced patterns (mixed bounds, inequality atoms, stars)
    fingerprint equal across random relabelings."""
    g = DiGraph()
    rng = random.Random(7)
    for i in range(20):
        g.add_node(i, label=rng.choice("ABC"), score=rng.randint(0, 9))
    for _ in range(40):
        g.add_edge(rng.randrange(20), rng.randrange(20))
    for seed in range(25):
        p = random_pattern(
            g,
            num_nodes=rng.randint(1, 4),
            num_edges=rng.randint(0, 5),
            preds_per_node=rng.randint(1, 2),
            max_bound=3,
            star_probability=0.2,
            seed=seed,
        )
        key = canonical_pattern(p).key
        for relabel_seed in range(3):
            assert canonical_pattern(_relabeled(p, relabel_seed)).key == key


# ----------------------------------------------------------------------
# Automorphism pruning of the canonical search
# ----------------------------------------------------------------------


def _copies(shape_edges, size: int, copies: int, bound=2) -> Pattern:
    """``copies`` disjoint copies of one shape, every node ``label = A``
    (``bound`` 2 keeps it a b-pattern, so minimization leaves it whole)."""
    p = Pattern()
    for c in range(copies):
        for i in range(size):
            p.add_node(f"c{c}n{i}", "label = A")
        for i, j in shape_edges:
            p.add_edge(f"c{c}n{i}", f"c{c}n{j}", bound)
    return p


def _clique(n: int, bound=2) -> Pattern:
    return _copies(
        [(i, j) for i in range(n) for j in range(n) if i != j], n, 1, bound
    )


_TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def _unpruned_canonical(pattern: Pattern):
    """``(key, renaming)`` by the full individualization-refinement
    search, every leaf visited: the reference the pruned search must
    reproduce exactly."""
    from repro.patterns.minimize import _bound_key, _certificate, _refine

    if pattern.is_normal():
        base, rep = minimize_pattern(pattern)
    else:
        base, rep = pattern, {v: v for v in pattern.nodes()}
    nodes = list(base.nodes())
    pred_keys = {v: repr(base.predicate(v)) for v in nodes}
    edges = [(u, u2, _bound_key(base.bound(u, u2))) for u, u2 in base.edges()]
    out_adj = {v: [] for v in nodes}
    in_adj = {v: [] for v in nodes}
    for u, u2, bk in edges:
        out_adj[u].append((bk, u2))
        in_adj[u2].append((bk, u))
    ids = {k: i for i, k in enumerate(sorted(set(pred_keys.values())))}
    best = []

    def search(colors):
        colors = _refine(nodes, colors, out_adj, in_adj)
        cells = {}
        for v in nodes:
            cells.setdefault(colors[v], []).append(v)
        target = next(
            (cells[c] for c in sorted(cells) if len(cells[c]) > 1), None
        )
        if target is None:
            order = sorted(nodes, key=colors.__getitem__)
            cert = _certificate(order, pred_keys, edges)
            if not best or cert < best[0]:
                best[:] = [cert, order]
            return
        for v in target:
            branched = {u: 2 * colors[u] + 1 for u in nodes}
            branched[v] = 2 * colors[v]
            search(branched)

    search({v: ids[pred_keys[v]] for v in nodes})
    index = {v: i for i, v in enumerate(best[1])}
    return best[0], {orig: index[rep[orig]] for orig in pattern.nodes()}


@pytest.mark.parametrize(
    "pattern",
    [_clique(7), _copies(_TRIANGLE, 3, 4)],
    ids=["K7", "four-triangles"],
)
def test_symmetric_patterns_take_few_certificates(pattern, monkeypatch):
    """Automorphism pruning keeps the search polynomial on symmetric
    patterns: the full search encodes 5,040 leaves of K7 and 1,944 of
    four disjoint triangles."""
    from repro.patterns import minimize

    calls = []
    certificate = minimize._certificate
    monkeypatch.setattr(
        minimize,
        "_certificate",
        lambda *args: calls.append(args) or certificate(*args),
    )
    canon = canonical_pattern(pattern)
    n = pattern.num_nodes()
    assert 0 < len(calls) <= n * n
    assert sorted(canon.renaming.values()) == list(range(n))
    assert canon.key == canonical_pattern(_relabeled(pattern, n)).key


def _symmetric_family():
    for bound in (1, 2, None):
        for copies in (1, 2, 3):
            yield _copies(_TRIANGLE, 3, copies, bound)
            yield _copies([(0, 1), (1, 0)], 2, copies, bound)
            yield _copies([(0, 1), (0, 2)], 3, copies, bound)
        for n in (2, 3, 4, 5):
            yield _clique(n, bound)
            yield _copies([(i, (i + 1) % n) for i in range(n)], n, 1, bound)


def _random_small_patterns(count: int, seed: int = 5):
    rng = random.Random(seed)
    preds = ["label = A", "label = B", "label = A & score > 1"]
    for _ in range(count):
        n = rng.randint(1, 6)
        kinds = rng.choice([1, 1, 2, 3])
        bounds = rng.choice([[1], [1, 2], [2, None], [1, 2, None]])
        p = Pattern()
        for i in range(n):
            p.add_node(i, preds[rng.randrange(kinds)])
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.35:
                    p.add_edge(i, j, rng.choice(bounds))
        yield p


def test_pruned_search_keeps_every_key_and_renaming():
    """No first least leaf is ever pruned, so keys and renamings are the
    ones the full search finds."""
    for p in list(_symmetric_family()) + list(_random_small_patterns(300)):
        canon = canonical_pattern(p)
        assert (canon.key, canon.renaming) == _unpruned_canonical(p), p
