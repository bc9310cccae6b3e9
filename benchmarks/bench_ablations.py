"""Ablation benches for the design choices DESIGN.md calls out.

- abl-oracle:   distance backend inside IncBMatch (landmark vs bfs vs matrix);
  covered per-backend in bench_fig19; here we ablate on *unit* updates.
- abl-mindelta: IncMatch batch (with minDelta + one promotion pass) vs
  the naive one-update-at-a-time loop — the Section 5.2 optimization.
- abl-scc:      insertion handling on a DAG pattern (every component
  trivial: the IncMatch+dag worklist of Theorem 5.1(2b)) vs the same
  pattern plus one back edge (propCC over the affected area of a
  nontrivial SCC).
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import scc_ablation_patterns
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.incsim import SimulationIndex

ROUNDS = 3


def test_abl_mindelta_batch(benchmark, syn_graph, normal_pattern, mixed_batch):
    def setup():
        return (SimulationIndex(normal_pattern, syn_graph.copy()),), {}

    benchmark.pedantic(
        lambda idx: idx.apply_batch(mixed_batch), setup=setup, rounds=ROUNDS
    )


def test_abl_mindelta_naive(benchmark, syn_graph, normal_pattern, mixed_batch):
    def setup():
        return (SimulationIndex(normal_pattern, syn_graph.copy()),), {}

    benchmark.pedantic(
        lambda idx: idx.apply_batch_naive(mixed_batch), setup=setup, rounds=ROUNDS
    )


@pytest.mark.parametrize("kind", [0, 1], ids=["dag", "cyclic"])
def test_abl_scc_insertions(benchmark, syn_graph, insertions, kind):
    pattern = scc_ablation_patterns(syn_graph)[kind]

    def setup():
        return (SimulationIndex(pattern, syn_graph.copy()),), {}

    benchmark.pedantic(
        lambda idx: idx.apply_batch_naive(insertions), setup=setup, rounds=ROUNDS
    )


@pytest.mark.parametrize("mode", ["bfs", "landmark", "matrix"])
def test_abl_oracle_unit_inserts(benchmark, syn_graph, b_pattern, insertions, mode):
    few = insertions[: max(3, len(insertions) // 10)]

    def setup():
        idx = BoundedSimulationIndex(
            b_pattern, syn_graph.copy(), distance_mode=mode
        )
        return (idx,), {}

    def run(idx):
        for u in few:
            idx.insert_edge(u.source, u.target)

    benchmark.pedantic(run, setup=setup, rounds=ROUNDS)
