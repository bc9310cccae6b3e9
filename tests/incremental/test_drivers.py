"""The standalone drivers refuse an index whose eligible sets a pool
leases: the pool's eligibility substrate alone moves nodes in and out of
those sets, so every standalone entry point raises before it touches the
graph or the sets."""

import pytest

from repro.engine.eligibility import SharedEligibilityIndex
from repro.graphs.digraph import DiGraph
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.inciso import IsoIndex
from repro.incremental.incsim import SimulationIndex
from repro.incremental.types import insert
from repro.patterns.pattern import Pattern

KINDS = {
    "bounded": BoundedSimulationIndex,
    "isomorphism": IsoIndex,
    "simulation": SimulationIndex,
}

ENTRY_POINTS = {
    "add_node": lambda idx: idx.add_node("d", label="A"),
    "apply_batch": lambda idx: idx.apply_batch([insert("a", "c")]),
    "apply_batch_naive": lambda idx: idx.apply_batch_naive([]),
    "delete_edge": lambda idx: idx.delete_edge("a", "b"),
    "insert_edge": lambda idx: idx.insert_edge("a", "c"),
    "update_node_attrs": lambda idx: idx.update_node_attrs("a", label="B"),
}


def _state(graph, idx):
    return (
        {v: dict(graph.attrs(v)) for v in graph.nodes()},
        set(graph.edges()),
        {u: set(members) for u, members in idx.eligible.items()},
    )


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_leased_index_refuses_standalone_entry_points(kind, entry):
    g = DiGraph()
    g.add_node("a", label="A")
    g.add_node("b", label="B")
    g.add_node("c", label="B")
    g.add_edge("a", "b")
    p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
    idx = KINDS[kind](p, g, eligibility=SharedEligibilityIndex(g))
    before = _state(g, idx)
    with pytest.raises(RuntimeError, match="shared-eligibility"):
        ENTRY_POINTS[entry](idx)
    assert _state(g, idx) == before
