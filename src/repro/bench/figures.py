"""Experiment drivers — one function per figure of the paper's Section 8.

Each ``figXX`` function returns a list of row dicts (the series the paper
plots); ``python -m repro.bench --figure fig18a`` renders them as a table.
Absolute times differ from the paper's 2011 testbed; the *shape* — who
wins, by what rough factor, where incremental crosses batch — is the
reproduction target, which :mod:`repro.bench.summary` checks against the
paper's Section-8 findings.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from ..graphs.digraph import DiGraph
from ..graphs.generators import synthetic_graph
from ..incremental.hornsat import HornSimulation
from ..incremental.incbsim import BoundedSimulationIndex
from ..incremental.incsim import SimulationIndex
from ..landmarks.vector import LandmarkIndex
from ..matching.bounded import bounded_match
from ..matching.isomorphism import isomorphic_embeddings
from ..matching.oracles import BFSOracle, MatrixOracle, TwoHopOracle
from ..matching.relation import relation_size, totalize
from ..matching.simulation import maximum_simulation
from ..patterns.generator import random_pattern
from ..workloads.datasets import citation_like, youtube_like
from ..workloads.updates import (
    degree_biased_deletions,
    degree_biased_insertions,
    mixed_updates,
)
from .config import get_scale, scaled, timed

Row = Dict[str, object]

# Paper-scale base quantities (Section 8.2 experimental setting).
SYN_NODES = 17_000
ISO_CAP = 2_000  # embedding cap so VF2 cannot blow up unboundedly


def _syn_graph(scale: float, seed: int = 3, nodes: int = SYN_NODES, epn: float = 5.0) -> DiGraph:
    n = scaled(nodes, scale, minimum=200)
    return synthetic_graph(n, int(n * epn), seed=seed)


def _patterns(graph: DiGraph, nv: int, ne: int, preds: int, k: int, count: int = 3,
              dag: bool = False, seed: int = 17) -> List:
    return [
        random_pattern(graph, nv, ne, preds_per_node=preds, max_bound=k,
                       dag=dag, seed=seed + i)
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Exp-1 (Section 8.1): Match vs VF2
# ----------------------------------------------------------------------
def fig16b(scale: Optional[float] = None) -> List[Row]:
    """Fig. 16(b): elapsed time, Match(k=1) / Match(k=3) vs VF2, by size."""
    scale = get_scale(scale)
    graph = youtube_like(scale)
    oracle = MatrixOracle(graph) if graph.num_nodes() <= 3000 else BFSOracle(graph)
    rows: List[Row] = []
    cats = ("category", "uploader")
    for nv in range(3, 9):
        p1 = random_pattern(graph, nv, nv, preds_per_node=1, max_bound=1,
                            seed=nv, attributes=cats)
        p3 = random_pattern(graph, nv, nv, preds_per_node=1, max_bound=3,
                            seed=nv, attributes=cats)
        t_vf2, embs = timed(lambda: isomorphic_embeddings(p1, graph, max_count=ISO_CAP))
        t_m1, _ = timed(lambda: bounded_match(p1, graph, oracle=oracle))
        t_m3, _ = timed(lambda: bounded_match(p3, graph, oracle=oracle))
        rows.append({
            "pattern": f"({nv},{nv})",
            "vf2_s": round(t_vf2, 4),
            "match_k1_s": round(t_m1, 4),
            "match_k3_s": round(t_m3, 4),
        })
    return rows


def fig16c(scale: Optional[float] = None) -> List[Row]:
    """Fig. 16(c): number of distinct matches found per method."""
    scale = get_scale(scale)
    graph = youtube_like(scale)
    oracle = MatrixOracle(graph) if graph.num_nodes() <= 3000 else BFSOracle(graph)
    rows: List[Row] = []
    cats = ("category", "uploader")
    for nv in range(3, 9):
        p1 = random_pattern(graph, nv, nv, preds_per_node=1, max_bound=1,
                            seed=nv, attributes=cats)
        p3 = random_pattern(graph, nv, nv, preds_per_node=1, max_bound=3,
                            seed=nv, attributes=cats)
        embs = isomorphic_embeddings(p1, graph, max_count=ISO_CAP)
        vf2_pairs = len({(u, v) for e in embs for u, v in e.items()})
        m1 = relation_size(totalize(bounded_match(p1, graph, oracle=oracle)))
        m3 = relation_size(totalize(bounded_match(p3, graph, oracle=oracle)))
        rows.append({
            "pattern": f"({nv},{nv})",
            "vf2_matches": vf2_pairs,
            "match_k1_matches": m1,
            "match_k3_matches": m3,
        })
    return rows


# ----------------------------------------------------------------------
# Exp-2 (Section 8.1): Match efficiency / scalability
# ----------------------------------------------------------------------
def _fig17_efficiency(graph: DiGraph) -> List[Row]:
    matrix = MatrixOracle(graph)
    twohop = TwoHopOracle(graph)
    bfs = BFSOracle(graph)
    rows: List[Row] = []
    for nv, ne in ((2, 3), (4, 6), (6, 9)):
        for k in (3, 4):
            p = random_pattern(graph, nv, ne, preds_per_node=1, max_bound=k,
                               seed=10 * nv + k)
            t_mat, _ = timed(lambda: bounded_match(p, graph, oracle=matrix))
            t_2h, _ = timed(lambda: bounded_match(p, graph, oracle=twohop))
            t_bfs, _ = timed(lambda: bounded_match(p, graph, oracle=bfs))
            rows.append({
                "pattern": f"({nv},{ne},{k})",
                "matrix_s": round(t_mat, 4),
                "twohop_s": round(t_2h, 4),
                "bfs_s": round(t_bfs, 4),
            })
    return rows


def fig17a(scale: Optional[float] = None) -> List[Row]:
    """Fig. 17(a): Match via matrix / 2-hop / BFS on YouTube-like."""
    return _fig17_efficiency(youtube_like(get_scale(scale)))


def fig17b(scale: Optional[float] = None) -> List[Row]:
    """Fig. 17(b): same on Citation-like."""
    return _fig17_efficiency(citation_like(get_scale(scale)))


def fig17c(scale: Optional[float] = None) -> List[Row]:
    """Fig. 17(c): Match via BFS, scalability with pattern size."""
    scale = get_scale(scale)
    graph = _syn_graph(scale, nodes=100_000, epn=2.0)
    oracle = BFSOracle(graph)
    rows: List[Row] = []
    for nv in range(3, 9):
        for k in (3, 4):
            p = random_pattern(graph, nv, nv, preds_per_node=1, max_bound=k,
                               seed=7 * nv + k)
            t, _ = timed(lambda: bounded_match(p, graph, oracle=oracle))
            rows.append({"pattern_size": nv, "k": k, "bfs_match_s": round(t, 4)})
    return rows


def fig17d(scale: Optional[float] = None) -> List[Row]:
    """Fig. 17(d): Match via BFS, scalability with |V| (|E| = 2|V|)."""
    scale = get_scale(scale)
    rows: List[Row] = []
    for frac in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        n = scaled(int(1_000_000 * frac), scale, minimum=100)
        graph = synthetic_graph(n, 2 * n, seed=5)
        oracle = BFSOracle(graph)
        p1 = random_pattern(graph, 3, 3, preds_per_node=1, max_bound=3, seed=31)
        p2 = random_pattern(graph, 4, 4, preds_per_node=1, max_bound=3, seed=41)
        t1, _ = timed(lambda: bounded_match(p1, graph, oracle=oracle))
        t2, _ = timed(lambda: bounded_match(p2, graph, oracle=oracle))
        rows.append({
            "num_nodes": n,
            "p1_s": round(t1, 4),
            "p2_s": round(t2, 4),
        })
    return rows


# ----------------------------------------------------------------------
# Exp-1 of Section 8.2: incremental simulation (Fig. 18)
# ----------------------------------------------------------------------
def _incsim_compare(graph: DiGraph, patterns: List, updates: List) -> Row:
    """Time the four Section-8.2 contenders on one update batch."""
    t_batch = t_inc = t_naive = t_horn = 0.0
    for p in patterns:
        # Batch Match_s: recompute on the updated graph from scratch.
        g2 = graph.copy()
        for u in updates:
            if u.op == "insert":
                g2.add_edge(u.source, u.target)
            else:
                g2.remove_edge(u.source, u.target)
        t, _ = timed(lambda: maximum_simulation(p, g2))
        t_batch += t

        idx = SimulationIndex(p, graph.copy())
        t, _ = timed(lambda: idx.apply_batch(updates))
        t_inc += t

        idxn = SimulationIndex(p, graph.copy())
        t, _ = timed(lambda: idxn.apply_batch_naive(updates))
        t_naive += t

        horn = HornSimulation(p, graph.copy())
        t, _ = timed(lambda: horn.apply_batch(updates))
        t_horn += t
    n = len(patterns)
    return {
        "batch_s": round(t_batch / n, 4),
        "incmatch_s": round(t_inc / n, 4),
        "incmatch_naive_s": round(t_naive / n, 4),
        "hornsat_s": round(t_horn / n, 4),
    }


def _fig18(graph: DiGraph, pattern_shape, fractions, op: str, seed: int = 9) -> List[Row]:
    nv, ne, preds = pattern_shape
    patterns = _patterns(graph, nv, ne, preds, 1, count=2, seed=seed)
    rows: List[Row] = []
    base_edges = graph.num_edges()
    for frac in fractions:
        count = max(1, int(base_edges * frac))
        if op == "insert":
            updates = degree_biased_insertions(graph, count, seed=seed)
        else:
            updates = degree_biased_deletions(graph, count, seed=seed)
        row: Row = {"update_fraction": frac, "num_updates": len(updates)}
        row.update(_incsim_compare(graph, patterns, updates))
        rows.append(row)
    return rows


def fig18a(scale: Optional[float] = None) -> List[Row]:
    """Fig. 18(a): IncSim vs batch, edge insertions, synthetic."""
    graph = _syn_graph(get_scale(scale))
    return _fig18(graph, (4, 5, 3), (0.03, 0.06, 0.11, 0.18, 0.25, 0.30), "insert")


def fig18b(scale: Optional[float] = None) -> List[Row]:
    """Fig. 18(b): IncSim vs batch, edge deletions, synthetic."""
    graph = _syn_graph(get_scale(scale))
    return _fig18(graph, (4, 5, 3), (0.03, 0.06, 0.11, 0.18, 0.25, 0.30), "delete")


def fig18c(scale: Optional[float] = None) -> List[Row]:
    """Fig. 18(c): IncSim on YouTube-like (snapshot-style insertions)."""
    graph = youtube_like(get_scale(scale))
    return _fig18(graph, (6, 8, 3), (0.05, 0.15, 0.30, 0.50), "insert")


def fig18d(scale: Optional[float] = None) -> List[Row]:
    """Fig. 18(d): IncSim on Citation-like."""
    graph = citation_like(get_scale(scale))
    return _fig18(graph, (6, 8, 3), (0.05, 0.15, 0.30, 0.50), "insert")


# ----------------------------------------------------------------------
# Exp-2 of Section 8.2: incremental bounded simulation (Fig. 19)
# ----------------------------------------------------------------------
def _incbsim_compare(graph: DiGraph, patterns: List, updates: List) -> Row:
    t_batch = t_inc = t_matrix = 0.0
    for p in patterns:
        g2 = graph.copy()
        for u in updates:
            if u.op == "insert":
                g2.add_edge(u.source, u.target)
            else:
                g2.remove_edge(u.source, u.target)
        # The batch Match_bs of the paper (Fig. 3) starts by computing the
        # distance matrix of the updated graph — that cost is part of every
        # from-scratch recomputation.
        t, _ = timed(lambda: bounded_match(p, g2, oracle=MatrixOracle(g2)))
        t_batch += t

        # Default IncBMatch: probe rechecks (distance_mode='bfs').
        # The landmark-backed variant is measured in bench_ablations.py —
        # a vertex-cover vector on these dense synthetic graphs holds
        # ~|V|/2 landmarks, so its maintenance dominates at laptop scale.
        idx = BoundedSimulationIndex(p, graph.copy(), distance_mode="bfs")
        t, _ = timed(lambda: idx.apply_batch(updates))
        t_inc += t

        idxm = BoundedSimulationIndex(p, graph.copy(), distance_mode="matrix")
        t, _ = timed(lambda: idxm.apply_batch(updates))
        t_matrix += t
    n = len(patterns)
    return {
        "batch_bs_s": round(t_batch / n, 4),
        "incbmatch_s": round(t_inc / n, 4),
        "incbmatch_m_s": round(t_matrix / n, 4),
    }


def _fig19(graph: DiGraph, pattern_shape, fractions, op: str, seed: int = 13) -> List[Row]:
    nv, ne, preds, k = pattern_shape
    patterns = _patterns(graph, nv, ne, preds, k, count=2, dag=True, seed=seed)
    rows: List[Row] = []
    base_edges = graph.num_edges()
    for frac in fractions:
        count = max(1, int(base_edges * frac))
        if op == "insert":
            updates = degree_biased_insertions(graph, count, seed=seed)
        else:
            updates = degree_biased_deletions(graph, count, seed=seed)
        row: Row = {"update_fraction": frac, "num_updates": len(updates)}
        row.update(_incbsim_compare(graph, patterns, updates))
        rows.append(row)
    return rows


def fig19a(scale: Optional[float] = None) -> List[Row]:
    """Fig. 19(a): IncBSim vs batch, insertions, synthetic."""
    graph = _syn_graph(get_scale(scale), epn=6.0)
    return _fig19(graph, (4, 5, 3, 3), (0.01, 0.02, 0.04, 0.07, 0.10), "insert")


def fig19b(scale: Optional[float] = None) -> List[Row]:
    """Fig. 19(b): IncBSim vs batch, deletions, synthetic."""
    graph = _syn_graph(get_scale(scale), epn=6.0)
    return _fig19(graph, (4, 5, 3, 3), (0.01, 0.02, 0.04, 0.07, 0.10), "delete")


def fig19c(scale: Optional[float] = None) -> List[Row]:
    """Fig. 19(c): IncBSim on YouTube-like."""
    graph = youtube_like(get_scale(scale))
    return _fig19(graph, (6, 8, 3, 3), (0.02, 0.05, 0.10, 0.20), "insert")


def fig19d(scale: Optional[float] = None) -> List[Row]:
    """Fig. 19(d): IncBSim on Citation-like."""
    graph = citation_like(get_scale(scale))
    return _fig19(graph, (6, 8, 3, 3), (0.02, 0.05, 0.10, 0.20), "insert")


# ----------------------------------------------------------------------
# Exp-3 of Section 8.2: optimizations (Fig. 20)
# ----------------------------------------------------------------------
def fig20a(scale: Optional[float] = None) -> List[Row]:
    """Fig. 20(a): minDelta update reduction vs densification alpha."""
    scale = get_scale(scale)
    n = scaled(20_000, scale, minimum=300)
    num_updates = scaled(4_000, scale, minimum=100)
    rows: List[Row] = []
    for alpha in (1.0, 1.05, 1.1, 1.15, 1.2):
        m = min(int(round(n**alpha)), n * (n - 1))
        graph = synthetic_graph(n, m, seed=23)
        p = random_pattern(graph, 4, 5, preds_per_node=1, max_bound=1, seed=29)
        idx = SimulationIndex(p, graph.copy())
        updates = mixed_updates(graph, num_updates // 2, num_updates // 2, seed=31)
        reduced = idx.min_delta(updates)
        rows.append({
            "alpha": alpha,
            "original_updates": len(updates),
            "reduced_updates": len(reduced),
            "reduction_pct": round(100 * (1 - len(reduced) / max(1, len(updates))), 1),
        })
    return rows


def fig20b(scale: Optional[float] = None) -> List[Row]:
    """Fig. 20(b): landmark + distance vector space, InsLM vs BatchLM."""
    scale = get_scale(scale)
    graph = youtube_like(scale)
    rows: List[Row] = []
    inc_graph = graph.copy()
    lm_inc = LandmarkIndex(inc_graph)
    total = scaled(5_000, scale, minimum=100)
    step = total // 5
    inserted = 0
    for point in range(1, 6):
        ups = degree_biased_insertions(inc_graph, step, seed=40 + point)
        for u in ups:
            inc_graph.add_edge(u.source, u.target)
            lm_inc.insert_edge(u.source, u.target)
        inserted += len(ups)
        lm_batch = LandmarkIndex(inc_graph)  # recomputed from scratch
        rows.append({
            "inserted_edges": inserted,
            "inslm_entries": lm_inc.size_entries(),
            "inslm_landmarks": len(lm_inc.landmarks()),
            "batchlm_entries": lm_batch.size_entries(),
            "batchlm_landmarks": len(lm_batch.landmarks()),
        })
    return rows


def fig20c(scale: Optional[float] = None) -> List[Row]:
    """Fig. 20(c): InsLM / DelLM vs BatchLM+/- maintenance time."""
    scale = get_scale(scale)
    rows: List[Row] = []
    for count_base in (500, 1000, 1500, 2000, 2500, 3000):
        count = scaled(count_base, scale, minimum=10)
        # Insertions
        g1 = youtube_like(scale)
        lm1 = LandmarkIndex(g1)
        ins = degree_biased_insertions(g1, count, seed=50)

        def run_inslm():
            for u in ins:
                g1.add_edge(u.source, u.target)
                lm1.insert_edge(u.source, u.target)

        t_ins, _ = timed(run_inslm)
        g1b = youtube_like(scale)
        for u in ins:
            g1b.add_edge(u.source, u.target)
        t_batch_ins, _ = timed(lambda: LandmarkIndex(g1b))
        # Deletions
        g2 = youtube_like(scale)
        lm2 = LandmarkIndex(g2)
        dels = degree_biased_deletions(g2, count, seed=51)

        def run_dellm():
            for u in dels:
                g2.remove_edge(u.source, u.target)
                lm2.delete_edge(u.source, u.target)

        t_del, _ = timed(run_dellm)
        g2b = youtube_like(scale)
        for u in dels:
            g2b.remove_edge(u.source, u.target)
        t_batch_del, _ = timed(lambda: LandmarkIndex(g2b))
        rows.append({
            "num_updates": count,
            "inslm_s": round(t_ins, 4),
            "batchlm_plus_s": round(t_batch_ins, 4),
            "dellm_s": round(t_del, 4),
            "batchlm_minus_s": round(t_batch_del, 4),
        })
    return rows


def fig20d(scale: Optional[float] = None) -> List[Row]:
    """Fig. 20(d): IncLM vs BatchLM under mixed batch updates."""
    scale = get_scale(scale)
    rows: List[Row] = []
    for count_base in (1000, 2000, 3000, 4000, 5000, 6000):
        count = scaled(count_base, scale, minimum=10)
        g = youtube_like(scale)
        lm = LandmarkIndex(g)
        ups = mixed_updates(g, count // 2, count // 2, seed=60)
        ins = [u.edge for u in ups if u.op == "insert"]
        dels = [u.edge for u in ups if u.op == "delete"]
        for e in dels:
            g.remove_edge(*e)
        for e in ins:
            g.add_edge(*e)
        t_inc, _ = timed(lambda: lm.apply_batch(inserted=ins, deleted=dels))
        t_batch, _ = timed(lambda: LandmarkIndex(g))
        rows.append({
            "num_updates": len(ups),
            "inclm_s": round(t_inc, 4),
            "batchlm_s": round(t_batch, 4),
        })
    return rows


def fig20e(scale: Optional[float] = None) -> List[Row]:
    """Fig. 20(e): incremental bounded-matching cost vs maximum bound k.

    The paper measures IncLM against the pattern bound km (larger k means
    more node pairs inspected); here the k-dependent work lives in the
    pair-repair of IncBMatch with landmark vectors, so that is what the
    sweep times.
    """
    scale = get_scale(scale)
    graph = citation_like(scale)
    count = scaled(2_000, scale, minimum=20)
    rows: List[Row] = []
    for k in (3, 4, 5, 6):
        p = random_pattern(graph, 4, 5, preds_per_node=1, max_bound=k, seed=70)
        idx = BoundedSimulationIndex(p, graph.copy(), distance_mode="landmark")
        ups = mixed_updates(graph, count // 2, count // 2, seed=71)
        t, _ = timed(lambda: idx.apply_batch(ups))
        rows.append({"k": k, "inclm_s": round(t, 4)})
    return rows


def fig20f(scale: Optional[float] = None) -> List[Row]:
    """Fig. 20(f): IncLM vs naive per-update InsLM+DelLM."""
    scale = get_scale(scale)
    rows: List[Row] = []
    for count_base in (500, 1000, 1500, 2000, 2500, 3000):
        count = scaled(count_base, scale, minimum=10)
        base = synthetic_graph(scaled(15_000, scale, minimum=200),
                               scaled(40_000, scale, minimum=500), seed=80)
        ups = mixed_updates(base, count // 2, count // 2, seed=81)
        ins = [u.edge for u in ups if u.op == "insert"]
        dels = [u.edge for u in ups if u.op == "delete"]

        g1 = base.copy()
        lm1 = LandmarkIndex(g1)
        for e in dels:
            g1.remove_edge(*e)
        for e in ins:
            g1.add_edge(*e)
        t_inc, _ = timed(lambda: lm1.apply_batch(inserted=ins, deleted=dels))

        g2 = base.copy()
        lm2 = LandmarkIndex(g2)

        def run_naive():
            for e in dels:
                g2.remove_edge(*e)
                lm2.delete_edge(*e)
            for e in ins:
                g2.add_edge(*e)
                lm2.insert_edge(*e)

        t_naive, _ = timed(run_naive)
        rows.append({
            "num_updates": len(ups),
            "inclm_s": round(t_inc, 4),
            "ins_del_lm_s": round(t_naive, 4),
        })
    return rows


FIGURES: Dict[str, Callable[..., List[Row]]] = {
    "fig16b": fig16b,
    "fig16c": fig16c,
    "fig17a": fig17a,
    "fig17b": fig17b,
    "fig17c": fig17c,
    "fig17d": fig17d,
    "fig18a": fig18a,
    "fig18b": fig18b,
    "fig18c": fig18c,
    "fig18d": fig18d,
    "fig19a": fig19a,
    "fig19b": fig19b,
    "fig19c": fig19c,
    "fig19d": fig19d,
    "fig20a": fig20a,
    "fig20b": fig20b,
    "fig20c": fig20c,
    "fig20d": fig20d,
    "fig20e": fig20e,
    "fig20f": fig20f,
}
