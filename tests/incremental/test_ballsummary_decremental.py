"""Property sweep: decremental ball repair ≡ from-scratch recomputation.

:class:`~repro.incremental.ballsummary.BallField` promises that its
Ramalingam–Reps-style shrink keeps the capped multi-source distance map
*exactly* equal to a fresh rebuild after every deletion batch and source
loss (growth was already exact).  This module sweeps that promise over
random graphs, radii (including 0 and the unbounded ``*`` case), source
sets, and interleaved op batches.

All sweeps are driven by ``random.Random`` with seeds derived from a
pinned base: a failure message carries the exact seed, and re-running with
that seed replays the failing sequence deterministically.  Scale the sweep
with ``BALL_REPAIR_SWEEPS`` (default 120 per direction).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.graphs.digraph import DiGraph
from repro.incremental.ballsummary import BallField

BASE_SEED = 0xBA11
SWEEPS = int(os.environ.get("BALL_REPAIR_SWEEPS", "120"))
BATCHES = 4


def _random_graph(rng: random.Random, n: int) -> DiGraph:
    g = DiGraph()
    for v in range(n):
        g.add_node(v, label=rng.choice("ABC"))
    for _ in range(rng.randint(0, 3 * n)):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


def _one_field_sequence(seed: int, reverse: bool) -> None:
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    g = _random_graph(rng, n)
    sources = set(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
    radius = rng.choice([0, 1, 2, 3, None])
    field = BallField(g, sources, radius, reverse=reverse)
    for _ in range(BATCHES):
        # A deletion batch (the decremental path under test).
        edges = sorted(g.edges())
        dels = rng.sample(edges, min(len(edges), rng.randint(1, 3)))
        for x, y in dels:
            g.remove_edge(x, y)
        field.shrink_edges(dels)
        field.check_exact()
        # Interleave growth so later deletions hit repaired state.
        for _ in range(rng.randint(0, 2)):
            v, w = rng.randrange(n), rng.randrange(n)
            if g.add_edge(v, w):
                field.grow_edges([(v, w)])
        field.check_exact()
        # Source churn: gains relax, losses repair decrementally.
        v = rng.randrange(n)
        if v in sources and len(sources) > 1 and rng.random() < 0.5:
            sources.remove(v)
            field.source_lost(v)
        elif v not in sources:
            sources.add(v)
            field.source_gained(v)
        field.check_exact()


@pytest.mark.parametrize("reverse", [False, True])
def test_shrink_equals_rebuild_over_random_sequences(reverse):
    for i in range(SWEEPS):
        seed = BASE_SEED * 10_000 + i
        try:
            _one_field_sequence(seed, reverse)
        except AssertionError as exc:
            raise AssertionError(
                f"decremental ball repair drift: seed={seed} "
                f"reverse={reverse} — replay with "
                f"_one_field_sequence({seed}, {reverse})"
            ) from exc


def test_summary_repair_equals_rebuild_after_every_deletion_batch():
    """A pattern edge's field pair (forward over the eligible sources,
    backward over the eligible targets, radius ``k - 1``): after each
    deletion batch both fields equal a from-scratch rebuild (no
    threshold rebuild ever fires)."""
    for i in range(max(1, SWEEPS // 2)):
        seed = BASE_SEED * 20_000 + i
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        g = _random_graph(rng, n)
        eligible = {
            "x": {v for v in range(n) if g.attrs(v)["label"] == "A"},
            "y": {v for v in range(n) if g.attrs(v)["label"] == "B"},
        }
        bound = rng.choice([1, 2, 3, None])
        radius = None if bound is None else bound - 1
        fields = [
            BallField(g, eligible["x"], radius),
            BallField(g, eligible["y"], radius, reverse=True),
        ]
        try:
            for _ in range(BATCHES):
                edges = sorted(g.edges())
                if not edges:
                    break
                dels = rng.sample(edges, min(len(edges), rng.randint(1, 3)))
                for x, y in dels:
                    g.remove_edge(x, y)
                for field in fields:
                    field.shrink_edges(dels)
                    field.check_exact()
            assert all(field.rebuilds == 1 for field in fields)
        except AssertionError as exc:
            raise AssertionError(
                f"summary repair drift: seed={seed}"
            ) from exc


def test_radius_zero_field_is_exactly_the_source_set():
    g = DiGraph()
    for v in "abc":
        g.add_node(v)
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    field = BallField(g, {"a"}, 0, reverse=False)
    assert "a" in field and "b" not in field
    g.remove_edge("a", "b")
    field.shrink_edges([("a", "b")])
    field.check_exact()
