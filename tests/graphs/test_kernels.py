"""Unit tests for the optional numpy kernel layer.

The contract under test is *twin equivalence*: every numpy kernel must
answer byte-for-byte identically to the pure-Python twin it accelerates
(or decline with ``None`` and let the twin run), across adversarial
column contents — missing slots, NaN, big ints beyond float64 exactness,
mixed types, exotic values.  Mode selection itself (``REPRO_KERNELS``) is
tested down to the error paths.
"""

import random

import pytest

from repro.graphs import kernels
from repro.graphs.columnar import ColumnarDiGraph, as_backend
from repro.graphs.digraph import DiGraph
from repro.graphs.traversal import bfs_distances, reachable_set
from repro.engine.eligibility import SharedEligibilityIndex
from repro.patterns.predicate import Atom, Predicate

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)


class TestModeSelection:
    def test_auto_mode_follows_availability(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        expected = "numpy" if kernels.numpy_available() else "python"
        assert kernels.kernel_mode() == expected

    def test_python_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert kernels.kernel_mode() == "python"
        assert not kernels.use_numpy()

    @needs_numpy
    def test_numpy_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert kernels.use_numpy()

    def test_invalid_mode_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "cuda")
        with pytest.raises(ValueError):
            kernels.kernel_mode()

    def test_numpy_demanded_but_missing_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        monkeypatch.setattr(kernels, "_np", None)
        with pytest.raises(RuntimeError):
            kernels.kernel_mode()


def _random_graph(rnd, n=40, m=120):
    g = ColumnarDiGraph()
    for i in range(n):
        g.add_node(i)
    for _ in range(m):
        g.add_edge(rnd.randrange(n), rnd.randrange(n))
    # Churn so the id space has freed + recycled slots.
    for v in rnd.sample(range(n), n // 5):
        g.remove_node(v)
    for v in rnd.sample(range(n), n // 8):
        g.add_node(v)
        g.add_edge(v, rnd.randrange(n) if g.num_nodes() else v)
    return g


@needs_numpy
class TestTraversalTwins:
    def test_bfs_and_reachable_match_python_twin(self, monkeypatch):
        rnd = random.Random(11)
        for trial in range(5):
            g = _random_graph(rnd)
            sources = rnd.sample([v for v in g.nodes()], 3)
            for reverse in (False, True):
                monkeypatch.setenv("REPRO_KERNELS", "numpy")
                fast_r = g._reachable_set(sources, reverse=reverse)
                fast_d = {
                    s: g._bfs_distances(s, reverse=reverse) for s in sources
                }
                monkeypatch.setenv("REPRO_KERNELS", "python")
                assert g._reachable_set(sources, reverse=reverse) == fast_r
                for s in sources:
                    assert g._bfs_distances(s, reverse=reverse) == fast_d[s]

    def test_generic_helpers_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        g = ColumnarDiGraph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        d = as_backend(g, "dict")
        assert bfs_distances(g, "a") == bfs_distances(d, "a")
        assert reachable_set(g, ["a"]) == reachable_set(d, ["a"])

    def test_csr_cache_invalidates_on_edge_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        g = ColumnarDiGraph([("a", "b")])
        assert g._reachable_set(["a"]) == {"a", "b"}
        p1, i1 = g._csr_arrays()
        assert g._csr_arrays()[0] is p1  # clean: cached arrays reused
        g.add_edge("b", "c")
        assert g._reachable_set(["a"]) == {"a", "b", "c"}
        g.remove_edge("a", "b")
        assert g._reachable_set(["a"]) == {"a"}


# Adversarial column contents: every exactness hazard the typed snapshot
# must either represent faithfully or decline on.
_COLUMN_VALUES = [
    0,
    1,
    -3,
    2.5,
    -0.0,
    True,
    False,
    float("nan"),
    float("inf"),
    2**53 + 1,  # not float64-exact: must force numeric_ok off
    10**40,
    "DB",
    "",
    None,
    (1, 2),  # sequence value in the column
]

_ATOM_CASES = [
    ("=", 1),
    ("=", True),
    ("=", 2.5),
    ("=", "DB"),
    ("=", None),
    ("=", float("nan")),
    ("=", 2**53 + 1),
    ("!=", 1),
    ("!=", "DB"),
    ("!=", float("nan")),
    ("<", 2),
    ("<=", 2.5),
    (">", 0),
    (">=", -1),
    ("<", float("inf")),
    (">", float("nan")),
]


_POOLS = {
    "mixed": _COLUMN_VALUES,
    # Numeric but float64-poisoned (big ints): ordering must decline.
    "numeric": [v for v in _COLUMN_VALUES if isinstance(v, (int, float))],
    # Exactly float64-representable: the ordering kernel must engage.
    "clean": [0, 1, -3, 2.5, -0.0, True, False, float("nan"), float("inf")],
}


@needs_numpy
class TestBulkAtomTwins:
    def _graph(self, pool_kind):
        rnd = random.Random(47)
        g = ColumnarDiGraph()
        pool = _POOLS[pool_kind]
        for i in range(60):
            if rnd.random() < 0.2:
                g.add_node(i)  # no attr: MISSING slot
            else:
                g.add_node(i, x=rnd.choice(pool))
        for v in rnd.sample(range(60), 12):
            g.remove_node(v)
        for v in rnd.sample(range(60), 6):
            g.add_node(v, x=rnd.choice(pool))
        return g

    @pytest.mark.parametrize("pool_kind", sorted(_POOLS))
    def test_bulk_verdicts_match_satisfied_by(self, monkeypatch, pool_kind):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        g = self._graph(pool_kind)
        nodes = list(g.nodes())
        engaged = 0
        for op, value in _ATOM_CASES:
            atom = Atom("x", op, value)
            expect = [atom.satisfied_by(g.attrs(v)) for v in nodes]
            got = g._bulk_atom_verdicts("x", atom.op, atom.value, nodes)
            if got is None:
                continue  # declined: twin runs — nothing to compare
            engaged += 1
            assert got == expect, (op, value, pool_kind)
            members = g._atom_sweep_members("x", atom.op, atom.value)
            assert members == {
                v for v, ok in zip(nodes, expect) if ok
            }, (op, value)
        assert engaged  # the kernel must not decline across the board

    def test_float64_poisoned_ordering_declines_but_eq_runs(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        g = self._graph("numeric")
        # Big ints poison float64 exactness, so ordering must decline …
        assert g._bulk_atom_verdicts("x", "<", 2, list(g.nodes())) is None
        # … but equality still runs in object space.
        assert g._bulk_atom_verdicts("x", "=", 1, list(g.nodes())) is not None

    def test_clean_numeric_ordering_engages(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        g = self._graph("clean")
        nodes = list(g.nodes())
        got = g._bulk_atom_verdicts("x", "<", 2, nodes)
        assert got is not None
        atom = Atom("x", "<", 2)
        assert got == [atom.satisfied_by(g.attrs(v)) for v in nodes]

    def test_missing_column_is_all_false(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        g = ColumnarDiGraph([("a", "b")])
        assert g._bulk_atom_verdicts("ghost", "=", 1, ["a", "b"]) == [
            False,
            False,
        ]
        assert g._atom_sweep_members("ghost", "!=", 1) == set()

    def test_exotic_value_declines(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        g = ColumnarDiGraph()
        g.add_node("a", x=(1, 2))
        # Sequence-valued atom: elementwise broadcasting would diverge
        # from Python scalar equality, so the kernel must decline.
        assert g._bulk_atom_verdicts("x", "=", (1, 2), ["a"]) is None
        assert g._atom_sweep_members("x", "=", (1, 2)) is None

    def test_python_mode_declines_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        g = ColumnarDiGraph()
        g.add_node("a", x=1)
        assert g._bulk_atom_verdicts("x", "=", 1, ["a"]) is None
        assert g._atom_sweep_members("x", "=", 1) is None

    def test_snapshot_invalidates_on_attr_write(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        g = ColumnarDiGraph()
        g.add_node("a", x=1)
        g.add_node("b", x=2)
        assert g._atom_sweep_members("x", ">", 1) == {"b"}
        g.set_attr("a", "x", 5)
        assert g._atom_sweep_members("x", ">", 1) == {"a", "b"}
        g.remove_node("b")
        assert g._atom_sweep_members("x", ">", 1) == {"a"}


@needs_numpy
class TestEligibilityBatchTwins:
    def _run(self, monkeypatch, mode, backend):
        monkeypatch.setenv("REPRO_KERNELS", mode)
        rnd = random.Random(59)
        g = as_backend(
            DiGraph(
                [(i, (i + 1) % 20) for i in range(20)],
                {i: {"score": i % 7, "label": "AB"[i % 2]} for i in range(20)},
            ),
            backend,
        )
        idx = SharedEligibilityIndex(g)
        preds = [
            Predicate((Atom("score", ">", 3),)),
            Predicate((Atom("score", ">", 3), Atom("label", "=", "A"))),
            Predicate((Atom("label", "!=", "B"),)),
            Predicate.true(),
        ]
        for p in preds:
            idx.lease(p)
        all_flips = []
        for step in range(30):
            events = []
            for _ in range(rnd.randrange(1, 5)):
                v = rnd.randrange(25)
                if g.has_node(v):
                    names = rnd.choice([["score"], ["label"], None])
                    attrs = (
                        {"score": rnd.randrange(7)}
                        if names == ["score"]
                        else {"label": rnd.choice("AB")}
                        if names == ["label"]
                        else {"score": rnd.randrange(7), "label": "A"}
                    )
                    for name, value in attrs.items():
                        g.set_attr(v, name, value)
                    events.append(
                        (v, list(attrs) if names is not None else None, False)
                    )
                else:
                    g.add_node(v, score=rnd.randrange(7))
                    events.append((v, None, True))
            all_flips.append(sorted(map(repr, idx.observe_events(events))))
            idx.check_invariants()
        return all_flips, {
            repr(p): sorted(map(repr, idx.entry(p).members)) for p in preds
        }

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_batch_equivalent_across_kernel_modes(
        self, monkeypatch, backend
    ):
        fast = self._run(monkeypatch, "numpy", backend)
        slow = self._run(monkeypatch, "python", backend)
        assert fast == slow

    def test_net_flips_cancel_within_batch(self, monkeypatch):
        for mode in ("numpy", "python"):
            monkeypatch.setenv("REPRO_KERNELS", mode)
            g = ColumnarDiGraph()
            g.add_node("v", score=1)
            idx = SharedEligibilityIndex(g)
            pred = Predicate((Atom("score", ">", 2),))
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
