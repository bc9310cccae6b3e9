"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they isolate individual design
decisions of this implementation (distance backend, minDelta, the DAG fast
path, distributed partitioning, localized isomorphism) and print series in
the same row-dict format as :mod:`repro.bench.figures`.  Run via
``python -m repro.bench --figure abl-oracle`` etc.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..extensions.distributed import DistributedSimulation
from ..graphs.digraph import DiGraph
from ..graphs.generators import synthetic_graph
from ..graphs.scc import is_dag
from ..incremental.incbsim import BoundedSimulationIndex
from ..incremental.incsim import SimulationIndex
from ..incremental.inciso import IsoIndex, LocalizedIsoIndex
from ..matching.simulation import maximum_simulation
from ..patterns.generator import random_pattern
from ..patterns.pattern import Pattern
from ..workloads.updates import degree_biased_insertions, mixed_updates
from .config import get_scale, scaled, timed

Row = Dict[str, object]


def abl_oracle(scale: Optional[float] = None) -> List[Row]:
    """Distance backend inside IncBMatch: bfs vs landmark vs matrix.

    All three produce identical matches (differentially tested); the cost
    of keeping their auxiliary structure current differs sharply.
    """
    scale = get_scale(scale)
    n = scaled(17_000, scale, minimum=200)
    graph = synthetic_graph(n, 5 * n, seed=3)
    pattern = random_pattern(graph, 4, 5, preds_per_node=1, max_bound=3,
                             dag=True, seed=17)
    rows: List[Row] = []
    for frac in (0.01, 0.02, 0.05):
        updates = mixed_updates(
            graph,
            max(1, int(graph.num_edges() * frac / 2)),
            max(1, int(graph.num_edges() * frac / 2)),
            seed=9,
        )
        row: Row = {"update_fraction": frac, "num_updates": len(updates)}
        for mode in ("bfs", "landmark", "matrix"):
            idx = BoundedSimulationIndex(pattern, graph.copy(), distance_mode=mode)
            t, _ = timed(lambda: idx.apply_batch(updates))
            row[f"{mode}_s"] = round(t, 4)
        rows.append(row)
    return rows


def abl_mindelta(scale: Optional[float] = None) -> List[Row]:
    """Batch IncMatch (minDelta + one promotion pass) vs the one-at-a-time
    loop on redundancy-heavy batches (where cancellation pays)."""
    scale = get_scale(scale)
    n = scaled(17_000, scale, minimum=200)
    graph = synthetic_graph(n, 5 * n, seed=3)
    pattern = random_pattern(graph, 4, 5, preds_per_node=1, max_bound=1, seed=17)
    rows: List[Row] = []
    for frac in (0.02, 0.05, 0.10):
        half = max(1, int(graph.num_edges() * frac / 2))
        base = mixed_updates(graph, half, half, seed=9)
        # Redundancy: every update followed by its inverse, then replayed.
        churn = []
        for u in base:
            churn.append(u)
            churn.append(u.inverse())
        churn.extend(base)
        a = SimulationIndex(pattern, graph.copy())
        t_batch, _ = timed(lambda: a.apply_batch(churn))
        b = SimulationIndex(pattern, graph.copy())
        t_naive, _ = timed(lambda: b.apply_batch_naive(churn))
        rows.append({
            "update_fraction": frac,
            "num_updates": len(churn),
            "after_mindelta": a.stats.reduced_updates,
            "incmatch_s": round(t_batch, 4),
            "naive_s": round(t_naive, 4),
        })
    return rows


def scc_ablation_patterns(graph: DiGraph) -> Tuple[Pattern, Pattern]:
    """A random DAG pattern and the same pattern plus one back edge
    (last node -> first node), which closes a nontrivial SCC."""
    dag = random_pattern(
        graph, 4, 5, preds_per_node=1, max_bound=1, dag=True, seed=23
    )
    cyclic = dag.copy()
    nodes = list(dag.nodes())
    cyclic.add_edge(nodes[-1], nodes[0], 1)
    if is_dag(cyclic.graph()):
        raise ValueError("the back edge closes no cycle in this pattern")
    return dag, cyclic


def abl_scc(scale: Optional[float] = None) -> List[Row]:
    """IncMatch+ unit insertions on a DAG pattern (every component
    trivial: promotion is a worklist in topological order) vs the same
    pattern plus one back edge (a nontrivial SCC: propCC over the
    affected area)."""
    scale = get_scale(scale)
    n = scaled(17_000, scale, minimum=200)
    graph = synthetic_graph(n, 5 * n, seed=3)
    updates = degree_biased_insertions(graph, max(5, graph.num_edges() // 20), seed=9)
    rows: List[Row] = []
    for kind, pattern in zip(("dag", "cyclic"), scc_ablation_patterns(graph)):
        idx = SimulationIndex(pattern, graph.copy())
        t, _ = timed(lambda: idx.apply_batch_naive(updates))
        rows.append({
            "pattern_kind": kind,
            "num_updates": len(updates),
            "unit_inserts_s": round(t, 4),
            "candidates_examined": idx.stats.candidates_examined,
        })
    return rows


def abl_distributed(scale: Optional[float] = None) -> List[Row]:
    """Partitioned simulation: rounds/messages vs fragment count."""
    scale = get_scale(scale)
    n = scaled(17_000, scale, minimum=200)
    graph = synthetic_graph(n, 5 * n, seed=3)
    pattern = random_pattern(graph, 4, 5, preds_per_node=1, max_bound=1, seed=17)
    t_central, _ = timed(lambda: maximum_simulation(pattern, graph))
    rows: List[Row] = []
    for k in (1, 2, 4, 8):
        sim = DistributedSimulation(pattern, graph, num_fragments=k)
        t, _ = timed(sim.run)
        rows.append({
            "fragments": k,
            "rounds": sim.stats.rounds,
            "messages": sim.stats.messages,
            "removals_shipped": sim.stats.removals_shipped,
            "wall_s": round(t, 4),
            "centralized_s": round(t_central, 4),
        })
    return rows


def abl_localized_iso(scale: Optional[float] = None) -> List[Row]:
    """Global vs locality-bounded anchored search for incremental iso."""
    scale = get_scale(scale)
    n = scaled(17_000, scale, minimum=200)
    graph = synthetic_graph(n, 3 * n, seed=3)
    pattern = random_pattern(
        graph, 3, 2, preds_per_node=1, max_bound=1, seed=29,
        attributes=("label",),
    )
    inserts = degree_biased_insertions(graph, 30, seed=9)
    rows: List[Row] = []
    for name, factory in (
        ("global", lambda: IsoIndex(pattern, graph.copy(), max_embeddings=2000)),
        ("localized", lambda: LocalizedIsoIndex(pattern, graph.copy(), max_embeddings=2000)),
    ):
        idx = factory()

        def run():
            for u in inserts:
                idx.insert_edge(u.source, u.target)

        t, _ = timed(run)
        rows.append({
            "variant": name,
            "num_inserts": len(inserts),
            "time_s": round(t, 4),
            "embeddings": idx.count(),
        })
    return rows


ABLATIONS: Dict[str, Callable[..., List[Row]]] = {
    "abl-oracle": abl_oracle,
    "abl-mindelta": abl_mindelta,
    "abl-scc": abl_scc,
    "abl-distributed": abl_distributed,
    "abl-localized-iso": abl_localized_iso,
}
