"""Differential sweep: incremental maintenance vs from-scratch recomputation.

The docstrings of all three incremental indexes promise the same central
invariant — after any update stream, the maintained result equals a batch
recomputation on the current graph.  Unit tests pin single scenarios; this
module sweeps the invariant across random multi-flush update streams for
every semantics, both through the raw indexes (``apply_batch``, and every
standalone entry point mixed in one stream) and through the shared-graph
:class:`~repro.engine.pool.MatcherPool` plumbing (routing + phased
repair), which must agree with them pair for pair.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import MatcherPool
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.inciso import IsoIndex, LocalizedIsoIndex
from repro.incremental.incsim import SimulationIndex
from repro.incremental.types import insert
from repro.matching.bounded import bounded_match
from repro.matching.isomorphism import iter_embeddings
from repro.matching.relation import as_pairs, totalize
from repro.matching.simulation import candidate_sets, maximum_simulation

from tests.strategies import LABELS, small_graphs, small_patterns, update_batches

FLUSHES = 3


def emb_set(embeddings):
    return {frozenset(e.items()) for e in embeddings}


def assert_simulation_consistent(pattern, graph, relation):
    assert as_pairs(relation) == as_pairs(
        totalize(maximum_simulation(pattern, graph))
    )


def assert_bounded_consistent(pattern, graph, relation):
    assert as_pairs(relation) == as_pairs(
        totalize(bounded_match(pattern, graph))
    )


def assert_iso_consistent(pattern, graph, embeddings):
    assert emb_set(embeddings) == emb_set(iter_embeddings(pattern, graph))


# ----------------------------------------------------------------------
# Raw indexes: apply_batch after every flush
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_simulation_stream_matches_batch(data):
    graph = data.draw(small_graphs())
    pattern = data.draw(small_patterns(max_bound=1, allow_star=False))
    idx = SimulationIndex(pattern, graph)
    for _ in range(FLUSHES):
        idx.apply_batch(data.draw(update_batches(graph)))
        assert_simulation_consistent(pattern, graph, idx.matches())
        idx.check_invariants()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_bounded_stream_matches_batch(data):
    graph = data.draw(small_graphs(max_nodes=6))
    pattern = data.draw(small_patterns(max_nodes=3))
    idx = BoundedSimulationIndex(pattern, graph)
    for _ in range(FLUSHES):
        idx.apply_batch(data.draw(update_batches(graph, max_updates=6)))
        assert_bounded_consistent(pattern, graph, idx.matches())
        idx.check_invariants()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_bounded_landmark_stream_matches_batch(data):
    graph = data.draw(small_graphs(max_nodes=6))
    pattern = data.draw(small_patterns(max_nodes=3))
    idx = BoundedSimulationIndex(pattern, graph, distance_mode="landmark")
    for _ in range(FLUSHES):
        idx.apply_batch(data.draw(update_batches(graph, max_updates=6)))
        assert_bounded_consistent(pattern, graph, idx.matches())


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_iso_stream_matches_batch(data):
    graph = data.draw(small_graphs(max_nodes=6))
    pattern = data.draw(
        small_patterns(max_nodes=3, max_bound=1, allow_star=False)
    )
    idx = IsoIndex(pattern, graph)
    for _ in range(FLUSHES):
        idx.apply_batch(data.draw(update_batches(graph, max_updates=6)))
        assert_iso_consistent(pattern, graph, idx.embeddings())


# ----------------------------------------------------------------------
# Raw indexes: every standalone entry point mixed in one stream
# ----------------------------------------------------------------------
STEPS = 10
# Two labels keep most nodes eligible, so streams this short still build
# and break witness paths (attribute flips draw from all of LABELS, so a
# node can also fall out of every predicate).
DENSE = LABELS[:2]
STANDALONE = [
    "simulation",
    "bounded-bfs",
    "bounded-landmark",
    "bounded-matrix",
    "iso",
    "iso-localized",
]


def _weakly_connected(pattern):
    nodes = list(pattern.nodes())
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        u = frontier.pop()
        for w in list(pattern.children(u)) + list(pattern.parents(u)):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(nodes)


def _standalone_index(kind, data, graph, wildcards=False):
    """(index, check) for one standalone index kind; ``check``
    compares the index with from-scratch recomputation.  ``wildcards``
    lets the pattern draw TRUE predicates."""
    if kind.startswith("bounded"):
        pattern = data.draw(
            small_patterns(max_nodes=3, labels=DENSE, wildcards=wildcards)
        )
        idx = BoundedSimulationIndex(
            pattern, graph, distance_mode=kind.split("-")[1]
        )

        def check():
            assert_bounded_consistent(pattern, graph, idx.matches())
            idx.check_invariants()

        return idx, check
    pattern = data.draw(
        small_patterns(
            max_nodes=3, labels=DENSE, max_bound=1, allow_star=False,
            wildcards=wildcards,
        )
    )
    if kind == "simulation":
        idx = SimulationIndex(pattern, graph)

        def check():
            assert_simulation_consistent(pattern, graph, idx.matches())
            idx.check_invariants()

        return idx, check
    if kind == "iso-localized":
        # The default radius is exact only for weakly connected patterns.
        assume(_weakly_connected(pattern))
        idx = LocalizedIsoIndex(pattern, graph)
    else:
        idx = IsoIndex(pattern, graph)

    def check():
        assert_iso_consistent(pattern, graph, idx.embeddings())

    return idx, check


@pytest.mark.parametrize("kind", STANDALONE)
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_standalone_entry_points_match_batch(kind, data):
    """Unit ``insert_edge``/``delete_edge``, ``apply_batch``,
    ``apply_batch_naive``, ``update_node_attrs`` and ``add_node`` (both on
    existing and fresh nodes) interleaved in one stream; every step is
    checked against from-scratch recomputation, and the unit entry points
    must report whether the graph changed."""
    graph = data.draw(small_graphs(max_nodes=6, labels=DENSE))
    idx, check = _standalone_index(kind, data, graph)
    next_node = 100
    for _ in range(STEPS):
        nodes = sorted(graph.nodes())
        step = data.draw(
            st.sampled_from(
                ["insert", "delete", "batch", "naive", "attrs", "add_node"]
            )
        )
        if step in ("insert", "delete"):
            # Endpoints may be fresh (insert) or the edge absent (delete).
            endpoints = nodes + [next_node]
            if step == "delete" and graph.num_edges() and data.draw(
                st.booleans()
            ):
                v, w = data.draw(st.sampled_from(sorted(graph.edges())))
            else:
                v = data.draw(st.sampled_from(endpoints))
                w = data.draw(st.sampled_from(endpoints))
            had = graph.has_edge(v, w)
            if step == "insert":
                assert idx.insert_edge(v, w) == (not had)
            else:
                assert idx.delete_edge(v, w) == had
            assert graph.has_edge(v, w) == (step == "insert")
        elif step == "batch":
            idx.apply_batch(data.draw(update_batches(graph, max_updates=6)))
        elif step == "naive":
            idx.apply_batch_naive(
                data.draw(update_batches(graph, max_updates=6))
            )
        else:
            v = data.draw(st.sampled_from(nodes + [next_node]))
            entry = (
                idx.update_node_attrs if step == "attrs" else idx.add_node
            )
            entry(v, label=data.draw(st.sampled_from(LABELS)))
        if next_node in graph:
            next_node += 1
        check()


@pytest.mark.parametrize("kind", STANDALONE)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_standalone_node_events_match_batch(kind, data):
    """Every node event takes the flip path: ``add_node`` and
    ``update_node_attrs`` on existing and fresh nodes, and edge batches
    whose insertions bring fresh, attribute-less endpoints into the
    graph, against patterns that may hold TRUE predicates (the ones such
    endpoints satisfy).  After every step the index equals from-scratch
    recomputation, its invariants hold, and its eligible sets are the
    predicates' verdicts."""
    graph = data.draw(small_graphs(max_nodes=5, labels=DENSE))
    idx, check = _standalone_index(kind, data, graph, wildcards=True)
    next_node = 100
    for _ in range(STEPS):
        nodes = sorted(graph.nodes())
        step = data.draw(st.sampled_from(["add_node", "attrs", "batch"]))
        if step == "batch":
            batch = data.draw(update_batches(graph, max_updates=4))
            endpoints = nodes + [next_node, next_node + 1]
            for _ in range(data.draw(st.integers(1, 3))):
                batch.append(
                    insert(
                        data.draw(st.sampled_from(endpoints)),
                        data.draw(st.sampled_from(endpoints)),
                    )
                )
            idx.apply_batch(batch)
        else:
            v = data.draw(st.sampled_from(nodes + [next_node]))
            entry = (
                idx.add_node if step == "add_node" else idx.update_node_attrs
            )
            entry(v, label=data.draw(st.sampled_from(LABELS)))
        while next_node in graph:
            next_node += 1
        check()
        assert idx.eligible == candidate_sets(idx.pattern, graph)


# ----------------------------------------------------------------------
# Pool plumbing: all three semantics side by side on one shared graph,
# with routed/phased repair and interleaved attribute updates
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pool_stream_matches_batch_all_semantics(data):
    graph = data.draw(small_graphs(max_nodes=6))
    sim_pattern = data.draw(
        small_patterns(max_nodes=3, max_bound=1, allow_star=False)
    )
    b_pattern = data.draw(small_patterns(max_nodes=3))
    iso_pattern = data.draw(
        small_patterns(max_nodes=3, max_bound=1, allow_star=False)
    )
    pool = MatcherPool(graph)
    sim_q = pool.register(sim_pattern, semantics="simulation", name="sim")
    b_q = pool.register(b_pattern, semantics="bounded", name="bsim")
    iso_q = pool.register(iso_pattern, semantics="isomorphism", name="iso")
    nodes = sorted(graph.nodes())
    for _ in range(FLUSHES):
        pool.queue_updates(data.draw(update_batches(graph, max_updates=6)))
        if nodes and data.draw(st.booleans()):
            v = data.draw(st.sampled_from(nodes))
            pool.queue_node(v, label=data.draw(st.sampled_from(LABELS)))
        pool.flush()
        assert_simulation_consistent(sim_pattern, graph, sim_q.matches())
        assert_bounded_consistent(b_pattern, graph, b_q.matches())
        assert_iso_consistent(iso_pattern, graph, iso_q.embeddings())
        sim_q.index.check_invariants()
        b_q.index.check_invariants()


@pytest.mark.parametrize("mode", ["bfs", "landmark"])
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_pool_bounded_distance_modes_with_node_churn(mode, data):
    """The safety net for distance-aware routing: bounded queries in every
    ``distance_mode``, with node additions, attribute flips (eligibility
    gained AND lost), and fresh nodes wired mid-flush interleaved with the
    edge batches — recomputed from scratch after every flush."""
    from repro.incremental.types import insert as ins

    graph = data.draw(small_graphs(max_nodes=5))
    pattern = data.draw(small_patterns(max_nodes=3))
    pool = MatcherPool(graph)
    q = pool.register(
        pattern, semantics="bounded", distance_mode=mode, name="b"
    )
    next_node = 100
    for _ in range(FLUSHES):
        nodes = sorted(graph.nodes())
        # A brand-new labelled node, sometimes wired in the same flush.
        if data.draw(st.booleans()):
            pool.queue_node(
                next_node, label=data.draw(st.sampled_from(LABELS))
            )
            if nodes and data.draw(st.booleans()):
                pool.queue(
                    ins(data.draw(st.sampled_from(nodes)), next_node)
                )
            next_node += 1
        # An attribute flip on an existing node (may gain/lose layers).
        if nodes and data.draw(st.booleans()):
            pool.queue_node(
                data.draw(st.sampled_from(nodes)),
                label=data.draw(st.sampled_from(LABELS)),
            )
        pool.queue_updates(data.draw(update_batches(graph, max_updates=6)))
        pool.flush()
        assert_bounded_consistent(pattern, graph, q.matches())
        q.index.check_invariants()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_pool_with_fresh_nodes_and_attr_flips(data):
    """Streams that grow the node set and flip eligibility mid-stream."""
    graph = data.draw(small_graphs(max_nodes=5))
    pattern = data.draw(
        small_patterns(max_nodes=3, max_bound=1, allow_star=False)
    )
    pool = MatcherPool(graph)
    q = pool.register(pattern, semantics="simulation", name="sim")
    next_node = 100
    for _ in range(FLUSHES):
        nodes = sorted(graph.nodes())
        # A brand-new labelled node, sometimes wired in the same flush.
        pool.queue_node(next_node, label=data.draw(st.sampled_from(LABELS)))
        if nodes and data.draw(st.booleans()):
            from repro.incremental.types import insert

            pool.queue(insert(data.draw(st.sampled_from(nodes)), next_node))
        pool.queue_updates(data.draw(update_batches(graph, max_updates=4)))
        pool.flush()
        next_node += 1
        assert_simulation_consistent(pattern, graph, q.matches())
        q.index.check_invariants()
