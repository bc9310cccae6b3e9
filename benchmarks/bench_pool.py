"""Routed-update throughput of MatcherPool vs a naive matcher loop.

The scenarios, all over one shared graph holding labelled communities
(the ``kernels`` microbench adds a dedicated dense columnar graph):

- ``simulation``: N normal patterns (``A{i} -> B{i} -> C{i}``), routed by
  eq-keys alone — PR 1's headline property;
- ``bounded``: N bound-2 b-patterns (``A{i} -2-> C{i}``), which the old
  router dumped into the wildcard-edge bucket (every query observed every
  edge); the distance-aware oracle now lets the N-1 non-owning queries
  decline the whole stream, so routed flush cost should stay ~flat here
  too — the paper's flagship IncBMatch semantics.  Its ``upkeep``
  column is 0: ``bfs`` mode maintains no distance structure (routing
  and repair read the substrate's memoized edge legs);
- ``bounded-shared``: the ``bounded`` scenario in ``landmark`` mode —
  every pool query leases the pool substrate's ONE landmark index while
  the naive loop maintains one per pattern; the ``upkeep`` column counts
  the substrate's landmark-index batches per flush, which stay flat in
  N;
- ``overlap``: N simulation queries over only k << N *distinct*
  predicate sets (query i reuses partition i % k's pattern), driven by a
  mixed stream of attribute flips and edge churn.  The eligibility
  substrate evaluates each distinct atom once per node event however
  many queries use it, so per-flush atom evaluations must be non-zero
  and *exactly* flat in N once all k patterns are registered — the
  scenario enforces it and fails otherwise;
- ``overlap-atoms``: N conjunction queries whose predicates are all
  drawn from one fixed 6-atom vocabulary (18 distinct conjunctions) —
  the same atom-evaluation gate from N = 3 on, where the vocabulary is
  fully interned, however many distinct conjunctions compose it;
- ``shared-plan``: N bound-2 two-leg patterns drawn from only 4 distinct
  *leg vocabularies* (query i re-spells partition ``i % 4``'s pattern
  with its own node names), under ``plan_scope='shared'`` vs
  ``'per-query'``.  The shared plan interns each pattern by canonical
  fingerprint into 4 joins, one interned index each, so per-flush join
  repairs (interned indexes the flush routed and repaired) are a function
  of the 4 pattern shapes alone — the scenario *enforces* that the
  join-repair count is non-zero and exactly equal across all N >= 4,
  and (at N >= 16, above the noise floor) that the shared flush beats
  the per-query flush outright;
- ``reach-oracle``: interval-mode routing cost dict vs columnar backend
  plus (ungated) oracle-consult accounting on ``*``-bound patterns;
- ``kernels``: the numpy kernel layer raced against its pure-Python
  twins on the two bulk hot paths it vectorizes — full-column atom
  sweeps (first-lease eligibility builds) and SCC-interval oracle
  rebuilds on a dense graph — with a hard gate that numpy wins at the
  largest size (min-of-k, above a noise floor).

The naive baseline is one independent incremental index per pattern, each
fed the full stream.  The script prints a table per scenario (median pool
flush ms over ``--reps``, naive ms, speedup, routed/skipped counts),
writes a machine-readable ``BENCH_pool.json``, and exits non-zero if any
routed result disagrees with its naive baseline.  ``BENCH_pool.json``
feeds the CI regression compare (``benchmarks/compare_bench.py``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_pool.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_pool.py --tiny   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import MatcherPool  # noqa: E402
from repro.engine.eligibility import SharedEligibilityIndex  # noqa: E402
from repro.graphs import kernels  # noqa: E402
from repro.graphs.columnar import ColumnarDiGraph  # noqa: E402
from repro.graphs.digraph import DiGraph  # noqa: E402
from repro.graphs.reachability import IntervalReachabilityIndex  # noqa: E402
from repro.incremental.incbsim import BoundedSimulationIndex  # noqa: E402
from repro.incremental.incsim import SimulationIndex  # noqa: E402
from repro.incremental.types import delete, insert  # noqa: E402
from repro.matching.relation import as_pairs  # noqa: E402
from repro.patterns import predicate as predmod  # noqa: E402
from repro.patterns.pattern import Pattern  # noqa: E402
from repro.workloads.updates import label_partitioned_updates  # noqa: E402


def cluster_labels(i: int):
    return (f"A{i}", f"B{i}", f"C{i}")


def build_graph(num_clusters: int, cluster_size: int, seed: int = 7) -> DiGraph:
    """One graph holding ``num_clusters`` disjoint labelled communities."""
    rng = random.Random(seed)
    g = DiGraph()
    for i in range(num_clusters):
        labels = cluster_labels(i)
        members = []
        for j in range(cluster_size):
            node = f"c{i}n{j}"
            g.add_node(node, label=labels[j % 3])
            members.append(node)
        wanted = 3 * cluster_size
        attempts = 0
        while g.num_edges() < wanted * (i + 1) and attempts < 20 * wanted:
            attempts += 1
            v, w = rng.choice(members), rng.choice(members)
            if v != w:
                g.add_edge(v, w)
    return g


def sim_pattern(i: int) -> Pattern:
    a, b, c = cluster_labels(i)
    return Pattern.normal_from_labels(
        {"x": a, "y": b, "z": c}, [("x", "y"), ("y", "z")]
    )


def bounded_pattern(i: int) -> Pattern:
    """A bound-2 b-pattern: A{i} reaches C{i} within two hops."""
    a, _, c = cluster_labels(i)
    return Pattern.from_spec(
        {"x": f"label = {a}", "z": f"label = {c}"}, [("x", "z", 2)]
    )


def reach_pattern(i: int) -> Pattern:
    """An unbounded b-pattern: A{i} reaches C{i} by any nonempty path.

    ``*`` legs are the ones the SCC-interval oracle answers *exactly*
    (finite bounds need true distances and fall back to ball consults).
    """
    a, _, c = cluster_labels(i)
    return Pattern.from_spec(
        {"x": f"label = {a}", "z": f"label = {c}"}, [("x", "z", "*")]
    )


SCENARIOS = {
    "simulation": {
        "pattern": sim_pattern,
        "semantics": "simulation",
        "naive_index": SimulationIndex,
    },
    "bounded": {
        "pattern": bounded_pattern,
        "semantics": "bounded",
        "naive_index": BoundedSimulationIndex,
    },
}


def run_pool(
    graph, scenario, num_patterns, updates, distance_mode,
    pattern_fn=None, graph_backend=None,
):
    spec = SCENARIOS[scenario]
    pool = MatcherPool(graph, graph_backend=graph_backend)
    for i in range(num_patterns):
        pool.register(
            (pattern_fn or spec["pattern"])(i),
            semantics=spec["semantics"],
            name=f"p{i}",
            distance_mode=distance_mode,
        )
    start = time.perf_counter()
    report = pool.apply(updates)
    elapsed = time.perf_counter() - start
    return elapsed, pool, report


def run_naive(
    base, scenario, num_patterns, updates, pattern_fn=None, **index_kwargs
):
    """One independent incremental index per pattern, each fed everything."""
    spec = SCENARIOS[scenario]
    indexes = [
        spec["naive_index"](
            (pattern_fn or spec["pattern"])(i), base.copy(), **index_kwargs
        )
        for i in range(num_patterns)
    ]
    start = time.perf_counter()
    for idx in indexes:
        idx.apply_batch(updates)
    elapsed = time.perf_counter() - start
    return elapsed, indexes


def run_scenario(
    scenario, sizes, graph, updates, reps, distance_mode, label=None
):
    """Pool flush vs the naive loop; ``upkeep`` counts the distance
    substrate's structure-level update applications in the flush."""
    bounded = scenario == "bounded"
    naive_kwargs = {"distance_mode": distance_mode} if bounded else {}
    print(f"\n== scenario: {label or scenario} "
          f"({'distance_mode=' + distance_mode if bounded else 'eq-key routed'}) ==")
    print(f"{'N':>4} {'pool ms':>10} {'naive ms':>10} {'speedup':>9} "
          f"{'routed':>7} {'skipped':>8} {'upkeep':>7}")
    ok = True
    results = []
    pool_times = {}
    for n in sizes:
        pool_times_n = []
        naive_times_n = []
        pool = report = indexes = None
        for _ in range(reps):
            t, pool, report = run_pool(
                graph.copy(), scenario, n, updates, distance_mode
            )
            pool_times_n.append(t)
            t, indexes = run_naive(
                graph, scenario, n, updates, **naive_kwargs
            )
            naive_times_n.append(t)
        pool_t = statistics.median(pool_times_n)
        naive_t = statistics.median(naive_times_n)
        pool_times[n] = pool_t
        # The routed result must equal the naive per-pattern result.
        for i, idx in enumerate(indexes):
            routed = as_pairs(pool.query(f"p{i}").matches())
            if routed != as_pairs(idx.matches()):
                print(
                    f"MISMATCH scenario={scenario} N={n} pattern {i}",
                    file=sys.stderr,
                )
                ok = False
        speedup = naive_t / pool_t if pool_t > 0 else float("inf")
        upkeep = pool.substrate.stats.structure_batches
        print(
            f"{n:>4} {pool_t * 1e3:>10.2f} {naive_t * 1e3:>10.2f} "
            f"{speedup:>8.1f}x {report.routed:>7} {report.skipped:>8} "
            f"{upkeep:>7}"
        )
        results.append(
            {
                "n": n,
                "pool_ms": round(pool_t * 1e3, 3),
                "naive_ms": round(naive_t * 1e3, 3),
                "speedup": round(speedup, 2),
                "routed": report.routed,
                "skipped": report.skipped,
                "upkeep": upkeep,
            }
        )
    lo, hi = min(sizes), max(sizes)
    growth = pool_times[hi] / pool_times[lo] if pool_times[lo] > 0 else 0.0
    print(
        f"pool flush cost grew {growth:.2f}x from N={lo} to N={hi} "
        f"({hi // lo}x more registered patterns)"
    )
    return ok, {
        "sizes": sizes,
        "reps": reps,
        "results": results,
        "growth_factor": round(growth, 3),
    }


def overlap_stream(graph, k, num_ops, seed=13):
    """A mixed node/edge op stream across the first ``k`` partitions.

    Attribute flips dominate (they are what drives predicate
    re-evaluation); edge churn keeps the simulation repair honest.
    """
    rng = random.Random(seed)
    members = {
        i: sorted(v for v in graph.nodes() if str(v).startswith(f"c{i}n"))
        for i in range(k)
    }
    ops = []
    for _ in range(num_ops):
        i = rng.randrange(k)
        labels = cluster_labels(i)
        if rng.random() < 0.6:
            v = rng.choice(members[i])
            ops.append(("node", v, {"label": rng.choice(labels)}))
        else:
            v, w = rng.choice(members[i]), rng.choice(members[i])
            if v == w:
                continue
            if rng.random() < 0.6:
                ops.append(("edge", insert(v, w)))
            else:
                ops.append(("edge", delete(v, w)))
    return ops


def run_overlap_pool(graph, n, ops, pattern_fn):
    """One pool flush over a mixed node/edge op stream; returns
    ``(elapsed, atom_evals, pool)`` with atom evaluations counted over the
    flush alone (registration's first-lease sweeps excluded)."""
    pool = MatcherPool(graph)
    for i in range(n):
        pool.register(pattern_fn(i), semantics="simulation", name=f"p{i}")
    for op in ops:
        if op[0] == "node":
            pool.queue_node(op[1], **op[2])
        else:
            pool.queue(op[1])
    before = predmod.atom_evaluation_count()
    start = time.perf_counter()
    pool.flush()
    elapsed = time.perf_counter() - start
    return elapsed, predmod.atom_evaluation_count() - before, pool


def run_overlap_naive(base, patterns, ops):
    """One independent SimulationIndex per pattern, fed the stream in
    flush order (node ops first, then the coalesced edge batch) — the
    baseline and correctness oracle; returns ``(elapsed, indexes)``."""
    indexes = [SimulationIndex(p, base.copy()) for p in patterns]
    edge_ops = [op[1] for op in ops if op[0] == "edge"]
    start = time.perf_counter()
    for idx in indexes:
        for op in ops:
            if op[0] == "node":
                idx.update_node_attrs(op[1], **op[2])
        idx.apply_batch(edge_ops)
    return time.perf_counter() - start, indexes


def run_overlap_scenario(name, what, sizes, graph, reps, ops, pattern_fn,
                         flat_from):
    """N simulation queries over a fixed predicate vocabulary, pool vs
    naive loop, under a mixed attribute-flip / edge-churn op stream.

    'atom evals' counts ``Atom.satisfied_by`` applications during the
    pool flush.  The eligibility substrate evaluates each distinct atom
    once per node event however many queries use it, so from
    ``flat_from`` queries on (every atom of the vocabulary interned) the
    count is a function of the op stream alone.  Hard gate: it is
    non-zero and exactly equal across every N >= ``flat_from``.
    """
    print(f"\n== scenario: {name} ({what}; pool vs naive loop) ==")
    print(f"{'N':>4} {'pool ms':>10} {'naive ms':>10} {'speedup':>9} "
          f"{'atom evals':>11}")
    ok = True
    results = []
    for n in sizes:
        pool_times, naive_times = [], []
        for _ in range(reps):
            t, evals, pool = run_overlap_pool(
                graph.copy(), n, ops, pattern_fn
            )
            pool_times.append(t)
            t, naive = run_overlap_naive(
                graph, [pattern_fn(i) for i in range(n)], ops
            )
            naive_times.append(t)
        for i, idx in enumerate(naive):
            if as_pairs(pool.query(f"p{i}").matches()) != as_pairs(
                idx.matches()
            ):
                print(f"MISMATCH {name} N={n} pattern {i}", file=sys.stderr)
                ok = False
        pool_t = statistics.median(pool_times)
        naive_t = statistics.median(naive_times)
        speedup = naive_t / pool_t if pool_t > 0 else float("inf")
        print(
            f"{n:>4} {pool_t * 1e3:>10.2f} {naive_t * 1e3:>10.2f} "
            f"{speedup:>8.1f}x {evals:>11}"
        )
        results.append(
            {
                "n": n,
                "pool_ms": round(pool_t * 1e3, 3),
                "naive_ms": round(naive_t * 1e3, 3),
                "speedup": round(speedup, 2),
                "atom_evals": evals,
            }
        )
    gated = {r["n"]: r["atom_evals"] for r in results if r["n"] >= flat_from}
    evals_flat = len(set(gated.values())) == 1 and all(gated.values())
    if not evals_flat:
        print(
            f"FLATNESS VIOLATION {name}: per-flush atom evaluations must be "
            f"non-zero and equal for every N >= {flat_from}: {gated}",
            file=sys.stderr,
        )
        ok = False
    print(f"atom evaluations per flush non-zero and exactly flat for "
          f"N >= {flat_from}: {evals_flat}")
    return ok, {
        "sizes": sizes,
        "reps": reps,
        "flat_from": flat_from,
        "results": results,
        "atom_evals_flat": evals_flat,
    }


_SCORE_ATOMS = (("score", ">", 0), ("score", ">", 1), ("score", "<=", 2))
_SCORE_COMBOS = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2))


def overlap_atoms_predicate(i: int):
    """Conjunction ``i`` over a fixed 6-atom vocabulary: one of 3 label-eq
    atoms (partition 0's labels) & 1-2 of 3 score atoms — 18 distinct
    conjunctions, all sharing posting sets in the substrate's atom tier.
    The first three (i = 0, 1, 2) cover all six atoms, so the vocabulary
    is fully interned once N >= 3 and per-flush atom evaluations must be
    *exactly* flat in N from there."""
    from repro.patterns.predicate import Atom, Predicate

    a, b, c = cluster_labels(0)
    label = Atom("label", "=", (a, b, c)[i % 3])
    # (i + 2*(i//3)) mod 6 walks a shifted diagonal: i = 0, 1, 2 hit score
    # combos 0, 1, 2 (all six atoms interned by N = 3), and with i = 3b+r
    # the combo index is (5b + r) mod 6 — 5 is coprime with 6, so all 18
    # (label, combo) pairs are distinct over a period.
    combo = _SCORE_COMBOS[(i + 2 * (i // 3)) % len(_SCORE_COMBOS)]
    return Predicate([label] + [Atom(*_SCORE_ATOMS[j]) for j in combo])


def overlap_atoms_pattern(i: int) -> Pattern:
    """``x -> y`` where x carries conjunction ``i`` and y is trivial."""
    from repro.patterns.predicate import Predicate

    p = Pattern()
    p.add_node("x", overlap_atoms_predicate(i))
    p.add_node("y", Predicate.true())
    p.add_edge("x", "y", 1)
    return p


def overlap_atoms_stream(graph, num_ops, seed=17):
    """Label/score flips on partition 0 (the conjunction vocabulary's
    attribute space) plus some edge churn to keep repair honest."""
    rng = random.Random(seed)
    members = sorted(v for v in graph.nodes() if str(v).startswith("c0n"))
    labels = cluster_labels(0)
    ops = []
    for _ in range(num_ops):
        roll = rng.random()
        if roll < 0.45:
            ops.append(("node", rng.choice(members),
                        {"label": rng.choice(labels)}))
        elif roll < 0.80:
            ops.append(("node", rng.choice(members),
                        {"score": rng.choice([0, 1, 2, 3])}))
        else:
            v, w = rng.choice(members), rng.choice(members)
            if v == w:
                continue
            op = insert(v, w) if rng.random() < 0.6 else delete(v, w)
            ops.append(("edge", op))
    return ops


# Minimum dict-backend flush time (ms, min-of-k) for a reach-oracle race
# row to participate in the ``columnar_wins`` gate; see the docstring.
RACE_GATE_FLOOR_MS = 1.0

# The shared-plan race is only judged from this many registered queries
# up: below it the pool holds at most one query per distinct pattern, so
# there is nothing to share and the comparison is not the claim.
PLAN_GATE_MIN_N = 16


def plan_pattern(i: int, k: int = 4) -> Pattern:
    """Two-leg bound-2 pattern over leg vocabulary ``i % k``, spelled
    with node names private to query ``i`` — canonical fingerprints,
    not node-name spelling, must drive the plan's interning."""
    a, b, c = cluster_labels(i % k)
    p = Pattern()
    x, y, z = f"x{i}", f"y{i}", f"z{i}"
    p.add_node(x, f"label = {a}")
    p.add_node(y, f"label = {b}")
    p.add_node(z, f"label = {c}")
    p.add_edge(x, y, 2)
    p.add_edge(y, z, 2)
    return p


def plan_updates(graph, k, num_updates, seed=11):
    """An edge stream spanning all ``k`` leg-vocabulary partitions, so
    every interned index (not just partition 0's) sees repair work."""
    per = max(2, num_updates // k)
    ops = []
    for i in range(k):
        ops.extend(
            label_partitioned_updates(
                graph,
                cluster_labels(i),
                num_insertions=per // 2,
                num_deletions=per - per // 2,
                seed=seed + i,
            )
        )
    return ops


def run_plan_pool(graph, n, k, updates, plan_scope, reps):
    """min-of-``reps`` flush timing of one plan-scoped pool; returns
    ``(elapsed, pool, report)`` with stats from the final rep's flush."""
    best = float("inf")
    pool = report = None
    for _ in range(reps):
        pool = MatcherPool(graph.copy(), plan_scope=plan_scope)
        for i in range(n):
            pool.register(
                plan_pattern(i, k), semantics="bounded", name=f"p{i}"
            )
        pool.stats.reset()
        start = time.perf_counter()
        report = pool.apply(updates)
        best = min(best, time.perf_counter() - start)
    return best, pool, report


def run_shared_plan_scenario(sizes, graph, num_updates, reps, k=4):
    """Shared multi-query plan vs per-query indexes, N bound-2 patterns
    over ``k`` distinct leg vocabularies.

    Two hard gates (both judged in-scenario, ``ok=False`` on failure):

    - **flatness**: per-flush join repairs under the shared plan must be
      non-zero and *exactly* equal across every N >= k — once every
      vocabulary is interned (k joins), repair work is a function of the
      update stream alone, never of the number of registered queries;
    - **outright win**: at every N >= ``PLAN_GATE_MIN_N`` whose per-query
      flush clears ``RACE_GATE_FLOOR_MS`` (min-of-k timing, noise-floor
      convention shared with the backend races), the shared plan's flush
      must be strictly cheaper than the per-query flush.  Below the floor
      or the minimum N the race is reported ungated (``None``).

    Correctness gates both scopes against naive per-pattern indexes.
    """
    k = min(k, max(sizes))
    updates = plan_updates(graph, k, num_updates)
    print(
        f"\n== scenario: shared-plan "
        f"(N bound-2 patterns over {k} leg vocabularies, "
        f"shared plan vs per-query indexes) =="
    )
    print(
        f"{'N':>4} {'shared ms':>10} {'perq ms':>10} {'perq/shared':>12} "
        f"{'join reps':>10} {'joins':>6}"
    )
    ok = True
    results = []
    race_reps = max(reps, 5)
    join_repairs = {}
    for n in sizes:
        row = {"n": n}
        pools = {}
        for scope in ("shared", "per-query"):
            t, pool, _ = run_plan_pool(
                graph.copy(), n, k, updates, scope, race_reps
            )
            pools[scope] = pool
            key = "plan_shared" if scope == "shared" else "plan_per_query"
            row[f"{key}_ms"] = round(t * 1e3, 3)
        shared = pools["shared"]
        join_repairs[n] = shared.stats.join_repairs
        row["join_repairs"] = shared.stats.join_repairs
        row["plan_joins"] = shared.plan.num_joins()
        # Correctness: both scopes must match the naive per-pattern result.
        _, indexes = run_naive(
            graph, "bounded", n, updates,
            pattern_fn=lambda i: plan_pattern(i, k),
        )
        for i, idx in enumerate(indexes):
            expect = as_pairs(idx.matches())
            for scope, pool in pools.items():
                if as_pairs(pool.query(f"p{i}").matches()) != expect:
                    print(
                        f"MISMATCH shared-plan scope={scope} N={n} "
                        f"pattern {i}",
                        file=sys.stderr,
                    )
                    ok = False
        ratio = (
            row["plan_per_query_ms"] / row["plan_shared_ms"]
            if row["plan_shared_ms"] > 0
            else float("inf")
        )
        row["per_query_over_shared"] = round(ratio, 2)
        print(
            f"{n:>4} {row['plan_shared_ms']:>10.2f} "
            f"{row['plan_per_query_ms']:>10.2f} {ratio:>11.1f}x "
            f"{row['join_repairs']:>10} {row['plan_joins']:>6}"
        )
        results.append(row)
    # Gate 1 (hard): join repairs non-zero and exactly flat in N once
    # every vocabulary is interned.
    flat_counts = sorted({join_repairs[n] for n in sizes if n >= k})
    repairs_flat = len(flat_counts) == 1 and flat_counts[0] > 0
    if not repairs_flat:
        print(
            f"FLATNESS VIOLATION shared-plan: per-flush join repairs are "
            f"zero or vary with N: "
            f"{ {n: join_repairs[n] for n in sizes if n >= k} }",
            file=sys.stderr,
        )
        ok = False
    # Gate 2 (hard above the noise floor): shared flush beats per-query
    # outright once sharing is real (N >= PLAN_GATE_MIN_N).
    gated = [
        r for r in results
        if r["n"] >= PLAN_GATE_MIN_N
        and r["plan_per_query_ms"] >= RACE_GATE_FLOOR_MS
    ]
    shared_wins = (
        all(r["per_query_over_shared"] > 1.0 for r in gated)
        if gated else None
    )
    if shared_wins is False:
        print(
            "shared-plan: shared plan did not beat per-query flush cost",
            file=sys.stderr,
        )
        ok = False
    elif shared_wins is None:
        print(
            f"shared-plan: race ungated (no size >= {PLAN_GATE_MIN_N} "
            f"with per-query flush over {RACE_GATE_FLOOR_MS}ms — "
            f"noise-dominated at this scale)"
        )
    lo, hi = min(sizes), max(sizes)
    times = {
        key: {r["n"]: r[f"plan_{key}_ms"] for r in results}
        for key in ("shared", "per_query")
    }
    growth = {
        key: (times[key][hi] / times[key][lo] if times[key][lo] else 0.0)
        for key in times
    }
    print(
        f"plan flush cost grew {growth['shared']:.2f}x (shared) vs "
        f"{growth['per_query']:.2f}x (per-query) from N={lo} to N={hi} "
        f"({k} leg vocabularies, {k} joins); "
        f"join_repairs_flat={repairs_flat} shared_wins={shared_wins}"
    )
    return ok, {
        "sizes": sizes,
        "reps": race_reps,
        "leg_vocabularies": k,
        "updates": len(updates),
        "results": results,
        "join_repairs_flat": repairs_flat,
        "shared_wins": shared_wins,
        "growth_shared": round(growth["shared"], 3),
        "growth_per_query": round(growth["per_query"], 3),
    }


def run_reach_oracle_scenario(sizes, graph, updates, reps, gate_race=True):
    """SCC-interval oracle routing + columnar id-space kernels, two legs.

    **Backend race (bound-2 patterns, ``interval`` mode).** The flush's
    dominant term in interval mode is pool-level: the oracle labelling is
    rebuilt after net insertions and the shared source closures are
    re-derived from it.  The columnar backend runs that rebuild with
    id-space kernels (Tarjan/condensation over slot ids, fused
    neighbourhood balls), so its flush must be *cheaper* than the dict
    backend's at every N — that is the acceptance gate ``columnar_wins``.
    ``landmark_ms`` (dict backend, same workload) is reported as the
    routing-cost baseline the oracle competes with.

    **Consult accounting (``*``-bound patterns, ``interval`` mode).**
    Unbounded legs are the ones the oracle answers exactly.  The
    labelling's ``consults`` / ``rebuilds`` / ``fallbacks`` counters and
    the pool-wide eligible-set population are reported, not gated: routing
    goes through ``ReachClosure`` membership, which the consult counter
    does not see, so a gate over it would pass vacuously.

    Both legs gate correctness against naive per-pattern indexes.

    Timings in the backend race use **min-of-k** rather than the median:
    tiny flushes are sub-millisecond, where scheduler interference only
    ever *adds* time, so the minimum is the interference-robust estimator
    (the same convention ``timeit`` uses); ``reps`` is floored at 7 here.
    The ``columnar_wins`` gate only judges rows whose dict-backend run
    takes at least ``RACE_GATE_FLOOR_MS`` — below that the whole flush is
    timer jitter and a verdict either way would be noise, so such rows
    are reported ungated (``columnar_wins`` is ``None`` when no row
    qualifies).  Smoke runs pass ``gate_race=False`` and always report the
    race ungated: smoke graphs are too small for the columnar kernels to
    pay off (columnar loses ~0.5-0.9x there on constant overheads), so on
    a slow host whose flushes cross the floor the gate could only fail.
    """
    print(
        "\n== scenario: reach-oracle "
        "(interval distance mode; dict vs columnar backend) =="
    )
    print(
        f"{'N':>4} {'dict ms':>9} {'col ms':>9} {'dict/col':>9} "
        f"{'lm ms':>9} {'consults':>9} {'eligible':>9} {'c/flush':>8}"
    )
    ok = True
    results = []
    times = {"dict": {}, "columnar": {}}
    num_flushes = len(updates)
    race_reps = max(reps, 7)
    for n in sizes:
        row = {"n": n}
        # --- leg 1: bound-2 flush-cost race across backends -------------
        pools = {}
        for backend in ("dict", "columnar"):
            backend_times = []
            pool = None
            for _ in range(race_reps):
                t, pool, _ = run_pool(
                    graph.copy(), "bounded", n, updates, "interval",
                    graph_backend=backend,
                )
                backend_times.append(t)
            times[backend][n] = min(backend_times)
            pools[backend] = pool
            key = "dict" if backend == "dict" else "columnar"
            row[f"{key}_ms"] = round(times[backend][n] * 1e3, 3)
        lm_times = []
        for _ in range(race_reps):
            t, _, _ = run_pool(
                graph.copy(), "bounded", n, updates, "landmark",
                graph_backend="dict",
            )
            lm_times.append(t)
        row["landmark_ms"] = round(min(lm_times) * 1e3, 3)
        _, indexes = run_naive(graph, "bounded", n, updates)
        for i, idx in enumerate(indexes):
            expect = as_pairs(idx.matches())
            for backend, pool in pools.items():
                if as_pairs(pool.query(f"p{i}").matches()) != expect:
                    print(
                        f"MISMATCH reach-oracle backend={backend} N={n} "
                        f"pattern {i}",
                        file=sys.stderr,
                    )
                    ok = False
        # --- leg 2: consult accounting on *-bound patterns --------------
        _, star_pool, _ = run_pool(
            graph.copy(), "bounded", n, updates, "interval",
            pattern_fn=reach_pattern,
        )
        reach = star_pool.substrate.reachability_index()
        stats = reach.stats() if reach is not None else {}
        eligible = sum(
            e["members"]
            for e in star_pool.eligibility.live_entries().values()
        )
        consults = stats.get("consults", 0)
        per_flush = consults / num_flushes if num_flushes else 0.0
        row["consults"] = consults
        row["rebuilds"] = stats.get("rebuilds", 0)
        row["fallbacks"] = stats.get("fallbacks", 0)
        row["eligible_members"] = eligible
        row["consults_per_flush"] = round(per_flush, 2)
        _, star_naive = run_naive(
            graph, "bounded", n, updates, pattern_fn=reach_pattern
        )
        for i, idx in enumerate(star_naive):
            if as_pairs(star_pool.query(f"p{i}").matches()) != as_pairs(
                idx.matches()
            ):
                print(
                    f"MISMATCH reach-oracle star N={n} pattern {i}",
                    file=sys.stderr,
                )
                ok = False
        ratio = (
            times["dict"][n] / times["columnar"][n]
            if times["columnar"][n] > 0
            else float("inf")
        )
        row["dict_over_columnar"] = round(ratio, 2)
        print(
            f"{n:>4} {row['dict_ms']:>9.2f} {row['columnar_ms']:>9.2f} "
            f"{ratio:>8.2f}x {row['landmark_ms']:>9.2f} "
            f"{consults:>9} {eligible:>9} {per_flush:>8.1f}"
        )
        results.append(row)
    gated = [
        r for r in results
        if gate_race and r["dict_ms"] >= RACE_GATE_FLOOR_MS
    ]
    columnar_wins = (
        all(r["dict_over_columnar"] > 1.0 for r in gated) if gated else None
    )
    lo, hi = min(sizes), max(sizes)
    growth = {
        backend: (
            times[backend][hi] / times[backend][lo]
            if times[backend][lo] > 0
            else 0.0
        )
        for backend in times
    }
    print(
        f"interval flush cost grew {growth['dict']:.2f}x (dict) vs "
        f"{growth['columnar']:.2f}x (columnar) from N={lo} to N={hi}; "
        f"columnar_wins={columnar_wins}"
    )
    if columnar_wins is False:
        print(
            "reach-oracle: columnar backend did not beat dict on interval "
            "flush cost",
            file=sys.stderr,
        )
        ok = False
    elif columnar_wins is None:
        print(
            f"reach-oracle: race ungated (smoke run, or all dict flushes "
            f"under {RACE_GATE_FLOOR_MS}ms — noise-dominated at this scale)"
        )
    return ok, {
        "sizes": sizes,
        "reps": reps,
        "results": results,
        "growth_dict": round(growth["dict"], 3),
        "growth_columnar": round(growth["columnar"], 3),
        "columnar_wins": columnar_wins,
    }


# The conjunction vocabulary the kernels bulk-sweep leg leases: eight
# distinct atoms over one numeric and one label column, mixing ordering
# ops (numeric-shadow kernel), equality on strings (object-space kernel)
# and a conjunction each so the intersection views are exercised too.
_KERNEL_PREDICATES = (
    "score > 0",
    "score <= 1.5 & score > -2",
    "label = A",
    "label != B & score >= 2.5",
    "score < -1 & label = C",
)


def build_kernels_graph(num_nodes: int, seed: int = 23) -> ColumnarDiGraph:
    """A dense columnar graph (E ~ 8·V) with a float ``score`` column and
    a 3-valued ``label`` column — the substrate both kernel legs race on.

    Bulk edges point from a lower to a higher node index, with a sprinkle
    of adjacent-index back edges forming 2-cycles — so the condensation
    keeps ~V small components and ~E cross-component edges, the regime
    where the vectorized condensation kernel actually has work to
    vectorize.  A uniformly random graph at this density collapses into
    one giant SCC with no cross edges, degenerating both twins to the
    shared Tarjan prefix.
    """
    rng = random.Random(seed)
    g = ColumnarDiGraph()
    labels = ("A", "B", "C")
    for j in range(num_nodes):
        g.add_node(f"n{j}", label=labels[j % 3],
                   score=rng.uniform(-5.0, 5.0))
    wanted = 8 * num_nodes
    attempts = 0
    while g.num_edges() < wanted and attempts < 20 * wanted:
        attempts += 1
        v, w = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if v != w:
            g.add_edge(f"n{min(v, w)}", f"n{max(v, w)}")
    for _ in range(max(1, num_nodes // 50)):
        j = rng.randrange(num_nodes - 1)
        g.add_edge(f"n{j + 1}", f"n{j}")
    return g


def _with_kernel_mode(mode, fn, reps):
    """min-of-``reps`` timing of ``fn()`` with ``REPRO_KERNELS`` pinned."""
    prev = os.environ.get("REPRO_KERNELS")
    os.environ["REPRO_KERNELS"] = mode
    try:
        best = float("inf")
        out = None
        for _ in range(reps):
            start = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if prev is None:
            os.environ.pop("REPRO_KERNELS", None)
        else:
            os.environ["REPRO_KERNELS"] = prev
    return best, out


def run_kernels_scenario(sizes, cluster_size, reps):
    """numpy kernels vs their pure-Python twins on the bulk hot paths.

    Two legs, both on a dense :class:`ColumnarDiGraph` (no pool — this is
    the one microbench that times the kernel layer itself):

    - **bulk atom sweep**: build a fresh :class:`SharedEligibilityIndex`
      and lease the 8-atom conjunction vocabulary, so every atom pays its
      first-lease full-column sweep (``_atom_sweep_members`` under numpy,
      per-node ``satisfied_by`` under python);
    - **interval rebuild**: construct an
      :class:`IntervalReachabilityIndex`, whose condensation step runs the
      vectorized ``condensation_arrays`` kernel under numpy and the
      generic DAG-object path under python.

    Timings are **min-of-k** (``reps`` floored at 7 — scheduler noise
    only ever adds time).  The acceptance gate is judged at the largest
    size only, and only when the python twin's time clears
    ``RACE_GATE_FLOOR_MS`` (below that the race is timer jitter and the
    verdict is reported ungated as ``None``): numpy must be strictly
    faster on *both* legs.  Each leg also cross-checks results across
    modes — member sets per predicate, component labelling and sampled
    reachability answers must be identical.
    """
    print("\n== scenario: kernels "
          "(numpy kernels vs pure-Python twins, columnar backend) ==")
    if not kernels.numpy_available():
        print("kernels: numpy unavailable — scenario skipped "
              "(pure-Python twins are the only mode)")
        return True, {"skipped": "numpy unavailable"}
    node_counts = sorted({cluster_size * n for n in sizes})[-3:]
    race_reps = max(reps, 7)
    preds = [predmod.parse_predicate(text) for text in _KERNEL_PREDICATES]
    print(f"{'V':>6} {'E':>7} {'sweep np':>9} {'sweep py':>9} {'py/np':>7} "
          f"{'intv np':>9} {'intv py':>9} {'py/np':>7}")
    ok = True
    results = []

    def bulk_sweep(g):
        idx = SharedEligibilityIndex(g)
        return {repr(p): frozenset(idx.lease(p).members) for p in preds}

    for num_nodes in node_counts:
        g = build_kernels_graph(num_nodes)
        rng = random.Random(num_nodes)
        names = sorted(g.nodes())
        pairs = [
            (rng.choice(names), rng.choice(names)) for _ in range(200)
        ]
        row = {"n": num_nodes, "edges": g.num_edges()}
        sweeps = {}
        intervals = {}
        for mode in ("numpy", "python"):
            t, sweeps[mode] = _with_kernel_mode(
                mode, lambda: bulk_sweep(g), race_reps
            )
            row[f"bulk_{mode}_ms"] = round(t * 1e3, 3)
            # Time construction only; the correctness fingerprint
            # (identical work in both modes) is taken off the clock.
            t, r = _with_kernel_mode(
                mode, lambda: IntervalReachabilityIndex(g), race_reps
            )
            row[f"interval_{mode}_ms"] = round(t * 1e3, 3)
            intervals[mode] = (
                tuple(r.component_of(v) for v in names),
                tuple(r.reachable(x, y) for x, y in pairs),
            )
        if sweeps["numpy"] != sweeps["python"]:
            print(f"MISMATCH kernels bulk sweep V={num_nodes}: member "
                  f"sets differ across modes", file=sys.stderr)
            ok = False
        if intervals["numpy"] != intervals["python"]:
            print(f"MISMATCH kernels interval V={num_nodes}: labelling "
                  f"or reachability differs across modes", file=sys.stderr)
            ok = False
        row["bulk_python_over_numpy"] = round(
            row["bulk_python_ms"] / row["bulk_numpy_ms"], 2
        ) if row["bulk_numpy_ms"] else float("inf")
        row["interval_python_over_numpy"] = round(
            row["interval_python_ms"] / row["interval_numpy_ms"], 2
        ) if row["interval_numpy_ms"] else float("inf")
        print(f"{num_nodes:>6} {row['edges']:>7} "
              f"{row['bulk_numpy_ms']:>9.2f} {row['bulk_python_ms']:>9.2f} "
              f"{row['bulk_python_over_numpy']:>6.2f}x "
              f"{row['interval_numpy_ms']:>9.2f} "
              f"{row['interval_python_ms']:>9.2f} "
              f"{row['interval_python_over_numpy']:>6.2f}x")
        results.append(row)
    top = results[-1]
    gates = {}
    for leg in ("bulk", "interval"):
        if top[f"{leg}_python_ms"] < RACE_GATE_FLOOR_MS:
            gates[leg] = None
        else:
            gates[leg] = (
                top[f"{leg}_numpy_ms"] < top[f"{leg}_python_ms"]
            )
    for leg, verdict in gates.items():
        if verdict is None:
            print(f"kernels: {leg} race ungated (python twin under "
                  f"{RACE_GATE_FLOOR_MS}ms at V={top['n']} — "
                  f"noise-dominated at this scale)")
        elif verdict is False:
            print(f"kernels: numpy did not beat the python twin on the "
                  f"{leg} leg at V={top['n']}", file=sys.stderr)
            ok = False
    print(f"numpy_wins_bulk={gates['bulk']} "
          f"numpy_wins_interval={gates['interval']}")
    return ok, {
        "sizes": node_counts,
        "reps": race_reps,
        "results": results,
        "numpy_wins_bulk": gates["bulk"],
        "numpy_wins_interval": gates["interval"],
    }


# The temporal scenario draws its standing queries from a small pattern
# vocabulary so shared-substrate upkeep per flush is EXACTLY flat once
# every distinct pattern is registered (n >= vocabulary size) — a
# deterministic counter gate rather than a timing race.
TEMPORAL_PATTERN_VOCAB = 4
TEMPORAL_WINDOW = 10.0


def temporal_pattern(i: int) -> Pattern:
    return bounded_pattern(i % TEMPORAL_PATTERN_VOCAB)


def run_temporal_scenario(sizes, graph, num_churn, reps):
    """Sliding-window expiry: bulk vs per-edge deletion, flat upkeep.

    Three legs per pool size N (landmark mode, shared scopes, patterns
    from a ``TEMPORAL_PATTERN_VOCAB``-sized vocabulary):

    - **bulk expiry** (``expiry_bulk_ms``): a windowed pool ingests one
      churn batch at t=0, the clock advances past the window, and ONE
      flush retires every expired edge as a single coalesced deletion
      batch (netting, one substrate sync, one routing pass, one suspect
      recheck batch);
    - **per-edge deletions** (``expiry_per_edge_ms``): a window-less twin
      pool retires the *same* edges as one-at-a-time deletion flushes —
      the cost bulk expiry must beat (gate ``bulk_expiry_wins``, judged
      only on rows whose per-edge leg clears ``RACE_GATE_FLOOR_MS``,
      min-of-k timing);
    - **steady-state window step** (``windowed_ms``): advance one window,
      queue a fresh churn batch, flush — expiry of the old batch and
      ingest of the new one ride the same flush.

    Deterministic gates, fired at every scale:

    - ``upkeep_flat``: the shared substrate's structure-level batch count
      for the bulk-expiry flush is identical at every N >= vocabulary
      size (windowed flush cost flat in standing-query count);
    - ``zero_expiry_rebuilds``: :meth:`MatcherPool.rebuild_counters` is
      unchanged across the expiry flush — bulk expiry rides the
      decremental repair paths only, never a from-scratch rebuild.

    Correctness: the windowed pool, the per-edge twin, and a fresh
    from-scratch index on the truncated graph must all agree.
    """
    print(
        "\n== scenario: temporal (sliding-window bulk expiry vs per-edge "
        "deletion flushes; landmark mode) =="
    )
    churn = [
        u for u in label_partitioned_updates(
            graph, cluster_labels(0),
            num_insertions=num_churn, num_deletions=0, seed=31,
        )
    ]
    # A second, disjoint churn batch for the steady-state window step
    # (generated against a graph that already holds batch 1).
    warm = graph.copy()
    for u in churn:
        warm.add_edge(*u.edge)
    churn2 = [
        u for u in label_partitioned_updates(
            warm, cluster_labels(0),
            num_insertions=num_churn, num_deletions=0, seed=37,
        )
    ]
    race_reps = max(reps, 5)
    k = TEMPORAL_PATTERN_VOCAB
    print(
        f"{'N':>4} {'bulk ms':>9} {'per-edge ms':>12} {'ratio':>7} "
        f"{'step ms':>9} {'expired':>8} {'upkeep':>7} {'rebuilds':>9}"
    )
    ok = True
    results = []

    def make_pool(n, window):
        pool = MatcherPool(graph.copy(), window=window)
        for i in range(n):
            pool.register(
                temporal_pattern(i),
                semantics="bounded",
                name=f"p{i}",
                distance_mode="landmark",
            )
        return pool

    for n in sizes:
        row = {"n": n}
        # --- leg 1: one bulk-expiry flush --------------------------------
        bulk_times = []
        pool = report = None
        upkeep = rebuild_delta = None
        for _ in range(race_reps):
            pool = make_pool(n, TEMPORAL_WINDOW)
            pool.apply(churn)
            pool.advance(TEMPORAL_WINDOW + 1)
            upkeep_before = pool.substrate.stats.structure_batches
            rebuilds_before = pool.rebuild_counters()["total"]
            start = time.perf_counter()
            report = pool.flush()
            bulk_times.append(time.perf_counter() - start)
            upkeep = pool.substrate.stats.structure_batches - upkeep_before
            rebuild_delta = pool.rebuild_counters()["total"] - rebuilds_before
        row["expiry_bulk_ms"] = round(min(bulk_times) * 1e3, 3)
        row["expired"] = report.expired
        row["structure_batches"] = upkeep
        row["rebuild_delta"] = rebuild_delta
        if report.expired != len(churn):
            print(
                f"MISMATCH temporal N={n}: expired {report.expired} of "
                f"{len(churn)} churn edges",
                file=sys.stderr,
            )
            ok = False
        # --- leg 2: the same deletions, one flush each -------------------
        per_edge_times = []
        twin = None
        for _ in range(race_reps):
            twin = make_pool(n, None)
            twin.apply(churn)
            start = time.perf_counter()
            for u in churn:
                twin.queue(delete(*u.edge))
                twin.flush()
            per_edge_times.append(time.perf_counter() - start)
        row["expiry_per_edge_ms"] = round(min(per_edge_times) * 1e3, 3)
        # --- leg 3: steady-state window step (expire + ingest) -----------
        step_times = []
        for _ in range(race_reps):
            spool = make_pool(n, TEMPORAL_WINDOW)
            spool.apply(churn)
            spool.advance(TEMPORAL_WINDOW + 1)
            spool.queue_updates(churn2)
            start = time.perf_counter()
            spool.flush()
            step_times.append(time.perf_counter() - start)
        row["windowed_ms"] = round(min(step_times) * 1e3, 3)
        # --- correctness: windowed == per-edge twin == from-scratch ------
        pool.check_temporal_invariants()
        for i in range(min(n, k)):
            expect = as_pairs(
                BoundedSimulationIndex(
                    temporal_pattern(i), pool.graph.copy()
                ).matches()
            )
            for label, p in (("windowed", pool), ("per-edge", twin)):
                got = as_pairs(p.query(f"p{i}").matches())
                if got != expect:
                    print(
                        f"MISMATCH temporal N={n} pattern {i} "
                        f"({label} pool vs from-scratch)",
                        file=sys.stderr,
                    )
                    ok = False
        ratio = (
            row["expiry_per_edge_ms"] / row["expiry_bulk_ms"]
            if row["expiry_bulk_ms"]
            else float("inf")
        )
        row["per_edge_over_bulk"] = round(ratio, 2)
        print(
            f"{n:>4} {row['expiry_bulk_ms']:>9.2f} "
            f"{row['expiry_per_edge_ms']:>12.2f} {ratio:>6.2f}x "
            f"{row['windowed_ms']:>9.2f} {row['expired']:>8} "
            f"{upkeep:>7} {rebuild_delta:>9}"
        )
        results.append(row)
    gated = [
        r for r in results if r["expiry_per_edge_ms"] >= RACE_GATE_FLOOR_MS
    ]
    bulk_expiry_wins = (
        all(r["per_edge_over_bulk"] > 1.0 for r in gated) if gated else None
    )
    flat_rows = [r["structure_batches"] for r in results if r["n"] >= k]
    upkeep_flat = len(set(flat_rows)) <= 1
    zero_expiry_rebuilds = all(r["rebuild_delta"] == 0 for r in results)
    print(
        f"bulk_expiry_wins={bulk_expiry_wins} upkeep_flat={upkeep_flat} "
        f"zero_expiry_rebuilds={zero_expiry_rebuilds}"
    )
    if bulk_expiry_wins is False:
        print(
            "temporal: bulk expiry did not beat per-edge deletion flushes",
            file=sys.stderr,
        )
        ok = False
    elif bulk_expiry_wins is None:
        print(
            f"temporal: race ungated (all per-edge runs under "
            f"{RACE_GATE_FLOOR_MS}ms — noise-dominated at this scale)"
        )
    if not upkeep_flat:
        print(
            "temporal: expiry-flush structure batches grew with pool size "
            f"beyond the {k}-pattern vocabulary: {flat_rows}",
            file=sys.stderr,
        )
        ok = False
    if not zero_expiry_rebuilds:
        print(
            "temporal: bulk expiry triggered full-structure rebuilds",
            file=sys.stderr,
        )
        ok = False
    return ok, {
        "sizes": sizes,
        "reps": race_reps,
        "window": TEMPORAL_WINDOW,
        "churn": len(churn),
        "pattern_vocabulary": k,
        "results": results,
        "bulk_expiry_wins": bulk_expiry_wins,
        "upkeep_flat": upkeep_flat,
        "zero_expiry_rebuilds": zero_expiry_rebuilds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small sizes for CI smoke runs",
    )
    parser.add_argument(
        "--cluster-size", type=int, default=None, help="nodes per partition"
    )
    parser.add_argument(
        "--updates", type=int, default=None, help="updates in the stream"
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="repetitions per size (median flush time is reported)",
    )
    parser.add_argument(
        "--scenario",
        choices=[*SCENARIOS, "bounded-shared", "overlap", "overlap-atoms",
                 "shared-plan", "reach-oracle", "kernels", "temporal",
                 "all"],
        default="all",
        help="which workload to run",
    )
    parser.add_argument(
        "--distance-mode",
        choices=["bfs", "landmark", "matrix", "interval"],
        default="bfs",
        help="distance mode for the bounded scenario's pool queries",
    )
    parser.add_argument(
        "--json",
        default="BENCH_pool.json",
        metavar="PATH",
        help="write machine-readable results here ('-' to skip)",
    )
    args = parser.parse_args(argv)

    if args.tiny:
        # Two sizes at or above every flatness gate's threshold (4), so
        # the smoke run can catch a count that grows with N.
        sizes = [1, 2, 4, 8]
        cluster_size = args.cluster_size or 12
        num_updates = args.updates or 20
        reps = args.reps or 2
    else:
        sizes = [1, 2, 4, 8, 16, 32, 64]
        cluster_size = args.cluster_size or 30
        num_updates = args.updates or 120
        reps = args.reps or 3

    max_n = max(sizes)
    graph = build_graph(max_n, cluster_size)
    updates = label_partitioned_updates(
        graph,
        cluster_labels(0),
        num_insertions=num_updates // 2,
        num_deletions=num_updates - num_updates // 2,
        seed=11,
    )
    print(
        f"graph: |V|={graph.num_nodes()} |E|={graph.num_edges()}  "
        f"updates: {len(updates)} (all in partition 0's label space)"
    )

    if args.scenario == "all":
        scenarios = [*SCENARIOS, "bounded-shared", "overlap",
                     "overlap-atoms", "shared-plan", "reach-oracle",
                     "kernels", "temporal"]
    else:
        scenarios = [args.scenario]
    ok = True
    doc = {
        "graph": {"nodes": graph.num_nodes(), "edges": graph.num_edges()},
        "updates": len(updates),
        "distance_mode": args.distance_mode,
        "scenarios": {},
    }
    for scenario in scenarios:
        if scenario == "bounded-shared":
            # The naive loop's N private landmark indexes get expensive
            # fast; a capped size sweep already shows the flat upkeep.
            shared_sizes = [n for n in sizes if n <= 16] or sizes[:1]
            s_ok, s_doc = run_scenario(
                "bounded", shared_sizes, graph, updates, reps, "landmark",
                label="bounded-shared",
            )
        elif scenario == "overlap":
            k = min(4, max(sizes))
            s_ok, s_doc = run_overlap_scenario(
                "overlap",
                f"N simulation queries over {k} distinct predicate sets",
                sizes, graph, reps, overlap_stream(graph, k, num_updates),
                lambda i, k=k: sim_pattern(i % k), flat_from=k,
            )
        elif scenario == "overlap-atoms":
            s_ok, s_doc = run_overlap_scenario(
                "overlap-atoms",
                "N conjunction queries over a fixed 6-atom vocabulary",
                sorted({max(3, n) for n in sizes}), graph, reps,
                overlap_atoms_stream(graph, num_updates),
                overlap_atoms_pattern, flat_from=3,
            )
        elif scenario == "shared-plan":
            # Per-query bounded indexes get expensive fast (that is the
            # contrast being measured); a capped sweep already spans the
            # N >= 16 gate.
            plan_sizes = [n for n in sizes if n <= 16] or sizes[:1]
            s_ok, s_doc = run_shared_plan_scenario(
                plan_sizes, graph, num_updates, reps
            )
        elif scenario == "reach-oracle":
            # Oracle rebuilds are pool-level and O(|V|+|E|); the backend
            # contrast is already decisive on a capped size sweep.
            reach_sizes = [n for n in sizes if n <= 16] or sizes[:1]
            s_ok, s_doc = run_reach_oracle_scenario(
                reach_sizes, graph, updates, reps, gate_race=not args.tiny
            )
        elif scenario == "kernels":
            s_ok, s_doc = run_kernels_scenario(sizes, cluster_size, reps)
        elif scenario == "temporal":
            # The per-edge leg pays one flush per churn edge; a capped
            # sweep already spans the vocabulary-flat gate (k=4).
            temporal_sizes = [n for n in sizes if n <= 16] or sizes[:1]
            s_ok, s_doc = run_temporal_scenario(
                temporal_sizes, graph, num_updates, reps
            )
        else:
            s_ok, s_doc = run_scenario(
                scenario, sizes, graph, updates, reps, args.distance_mode
            )
        ok = ok and s_ok
        doc["scenarios"][scenario] = s_doc

    if args.json != "-":
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    if not ok:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
