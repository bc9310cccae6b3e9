"""Shared fixtures for the pytest-benchmark suite.

Workload sizes derive from ``REPRO_BENCH_SCALE`` (default 0.02 — about 350
node / 1.2K edge stand-ins) so that ``pytest benchmarks/ --benchmark-only``
finishes quickly; raise the scale for paper-size measurements.  The full
parameter sweeps that regenerate each figure's series live in
``python -m repro.bench`` (``--list`` names them).
"""

from __future__ import annotations

import os

import pytest

from repro.graphs.generators import synthetic_graph
from repro.patterns.generator import random_pattern
from repro.workloads.datasets import citation_like, youtube_like
from repro.workloads.updates import (
    degree_biased_deletions,
    degree_biased_insertions,
    mixed_updates,
)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))


@pytest.fixture(scope="session")
def scale():
    return SCALE


@pytest.fixture(scope="session")
def youtube_graph():
    return youtube_like(SCALE)


@pytest.fixture(scope="session")
def citation_graph():
    return citation_like(SCALE)


@pytest.fixture(scope="session")
def syn_graph():
    n = max(200, int(17_000 * SCALE))
    return synthetic_graph(n, 5 * n, seed=3)


@pytest.fixture(scope="session")
def normal_pattern(syn_graph):
    return random_pattern(syn_graph, 4, 5, preds_per_node=1, max_bound=1, seed=17)


@pytest.fixture(scope="session")
def b_pattern(syn_graph):
    return random_pattern(
        syn_graph, 4, 5, preds_per_node=1, max_bound=3, dag=True, seed=17
    )


@pytest.fixture(scope="session")
def insertions(syn_graph):
    count = max(10, syn_graph.num_edges() // 10)  # ~10% of edges
    return degree_biased_insertions(syn_graph, count, seed=9)


@pytest.fixture(scope="session")
def deletions(syn_graph):
    count = max(10, syn_graph.num_edges() // 10)
    return degree_biased_deletions(syn_graph, count, seed=9)


@pytest.fixture(scope="session")
def mixed_batch(syn_graph):
    count = max(10, syn_graph.num_edges() // 10)
    return mixed_updates(syn_graph, count // 2, count // 2, seed=9)
