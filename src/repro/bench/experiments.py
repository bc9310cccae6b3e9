"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they isolate individual design
decisions of this implementation (distance backend, minDelta, the DAG fast
path, the IncLM column gate, distributed partitioning, localized
isomorphism) and print series in the same row-dict format as
:mod:`repro.bench.figures`.  Run via ``python -m repro.bench --figure
abl-oracle`` etc.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..extensions.distributed import DistributedSimulation
from ..graphs.digraph import DiGraph, Node
from ..graphs.generators import synthetic_graph
from ..graphs.scc import is_dag
from ..incremental.incbsim import BoundedSimulationIndex
from ..incremental.incsim import SimulationIndex
from ..incremental.inciso import IsoIndex, LocalizedIsoIndex
from ..landmarks.vector import LandmarkIndex
from ..matching.simulation import maximum_simulation
from ..patterns.generator import random_pattern
from ..patterns.pattern import Pattern
from ..workloads.datasets import youtube_like
from ..workloads.updates import degree_biased_insertions, mixed_updates
from .config import get_scale, scaled, timed

Row = Dict[str, object]


def abl_oracle(scale: Optional[float] = None) -> List[Row]:
    """Distance backend inside IncBMatch: bfs vs landmark vs matrix.

    All three produce identical matches (differentially tested); the cost
    of keeping their auxiliary structure current differs sharply.
    ``pairs_rechecked`` is the bfs index's count of IncBMatch- suspect
    pairs, which repeats exactly run to run.
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
            if mode == "bfs":
                row["pairs_rechecked"] = idx.stats.pairs_rechecked
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


Edge = Tuple[Node, Node]


def disjoint_communities(count: int, size: int, seed: int) -> DiGraph:
    """``count`` disjoint ``synthetic_graph`` communities of ``size``
    nodes; node ``i`` of community ``c`` is ``c * size + i``."""
    graph = DiGraph()
    for c in range(count):
        part = synthetic_graph(size, 3 * size, seed=seed + c)
        for v in part.nodes():
            graph.add_node(c * size + v)
        for v, w in part.edges():
            graph.add_edge(c * size + v, c * size + w)
    return graph


def community_batch(
    graph: DiGraph, size: int, num_updates: int, seed: int
) -> Tuple[List[Edge], List[Edge]]:
    """A mixed batch on :func:`disjoint_communities`: half deletions of
    existing edges, half insertions inside one community each."""
    rng = random.Random(seed)
    deleted = rng.sample(sorted(graph.edges()), num_updates // 2)
    communities = graph.num_nodes() // size
    inserted: List[Edge] = []
    while len(inserted) < num_updates - len(deleted):
        base = rng.randrange(communities) * size
        v, w = base + rng.randrange(size), base + rng.randrange(size)
        if v != w and not graph.has_edge(v, w) and (v, w) not in inserted:
            inserted.append((v, w))
    return inserted, deleted


def abl_lm(scale: Optional[float] = None) -> List[Row]:
    """IncLM column work: one mixed batch on disjoint communities (each
    node reaches few landmarks, so few columns can change) vs on a
    connected youtube-like graph (most columns can)."""
    scale = get_scale(scale)
    num_updates = scaled(6_000, scale, minimum=20)
    size = 20
    communities = disjoint_communities(
        scaled(8_000, scale, minimum=8), size, seed=90
    )
    youtube = youtube_like(scale)
    ups = mixed_updates(youtube, num_updates // 2, num_updates // 2, seed=91)
    batches = (
        ("communities", communities,
         community_batch(communities, size, num_updates, seed=92)),
        ("youtube", youtube,
         ([u.edge for u in ups if u.op == "insert"],
          [u.edge for u in ups if u.op == "delete"])),
    )
    rows: List[Row] = []
    for name, graph, (inserted, deleted) in batches:
        lm = LandmarkIndex(graph)
        for e in deleted:
            graph.remove_edge(*e)
        for e in inserted:
            graph.add_edge(*e)
        t, _ = timed(lambda: lm.apply_batch(inserted=inserted, deleted=deleted))
        rows.append({
            "graph": name,
            "nodes": graph.num_nodes(),
            "num_updates": len(inserted) + len(deleted),
            "landmarks": len(lm.landmarks()),
            "columns": 2 * len(lm.landmarks()),
            "columns_visited": lm.columns_visited,
            "nodes_touched": lm.nodes_touched(),
            "inclm_s": round(t, 4),
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
    "abl-lm": abl_lm,
    "abl-distributed": abl_distributed,
    "abl-localized-iso": abl_localized_iso,
}
