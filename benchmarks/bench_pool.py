"""Routed-update throughput of MatcherPool vs a naive matcher loop.

The scenarios, all but the last over one shared graph holding labelled
communities:

- ``simulation``: N normal patterns (``A{i} -> B{i} -> C{i}``), routed by
  eq-keys alone, so the flush's routed (query, update) pairs stay
  exactly flat in N (gate ``routed_flat``);
- ``bounded``: N bound-2 b-patterns (``A{i} -2-> C{i}``), the paper's
  IncBMatch semantics.  Distance routing lets the N-1 non-owning queries
  decline the whole stream, so routed flush cost should stay ~flat here
  too.  The router groups pattern edges by source predicate and
  evaluates only those whose source predicate an edge's backward leg
  meets, so its per-flush rule evaluations (``distance_checks``) are
  non-zero and exactly equal across all N (gate
  ``distance_checks_flat``); ``leg_nodes`` counts the nodes the memoized
  edge legs label.  Its ``upkeep`` column is 0: ``bfs`` mode maintains
  no distance structure (routing and repair read the substrate's
  memoized edge legs);
- ``bounded-shared``: ``bounded`` in ``landmark`` mode — every pool query
  leases the pool substrate's ONE landmark index while the naive loop
  maintains one per pattern, so the substrate's landmark-index batches
  per flush (``upkeep``) stay flat in N (gate ``upkeep_flat``).  The
  pool's index keeps its columns only to H = 2 hops, the largest bound
  its queries read, while each naive index keeps full columns;
  ``lm_entries`` is the pool index's size after the stream and
  ``columns_visited`` its column repairs;
- ``overlap``: N simulation queries over only k << N *distinct*
  predicate sets (query i reuses partition i % k's pattern), driven by a
  mixed stream of attribute flips and edge churn.  The eligibility
  substrate evaluates each distinct atom once per node event however
  many queries use it, and the N/k copies of a pattern read one
  interned index, so per-flush atom evaluations and routed pairs must
  both be non-zero and *exactly* flat in N once all k patterns are
  registered (gates ``atom_evals_flat`` and ``routed_flat``);
- ``overlap-atoms``: N conjunction queries whose predicates are all
  drawn from one fixed 6-atom vocabulary (18 distinct conjunctions) —
  the same atom-evaluation gate from N = 3 on, where the vocabulary is
  fully interned, however many distinct conjunctions compose it;
- ``shared-plan``: N bound-2 two-leg patterns drawn from only k distinct
  *leg vocabularies* (query i re-spells partition ``i % k``'s pattern
  with its own node names).  The shared plan interns each pattern by
  canonical fingerprint into k joins, one interned index each, so
  per-flush join repairs (interned indexes the flush routed and
  repaired) are a function of the k pattern shapes alone (gate
  ``join_repairs_flat`` from N = k), and from N = 16, above the noise
  floor, the pool flush beats the naive loop outright (gate
  ``shared_wins``);
- ``temporal``: sliding-window expiry in ``landmark`` mode, N queries
  over k distinct patterns.  Three legs: one flush retiring a whole
  window of expired edges as a single coalesced deletion batch
  (``expiry_bulk_ms``), a window-less twin retiring the same edges one
  deletion flush at a time (``expiry_per_edge_ms``, the cost bulk expiry
  must beat: gate ``bulk_expiry_wins``), and a steady-state window step
  whose flush expires the old batch and ingests a fresh one
  (``windowed_ms``).  The expiry flush's structure batches are one
  non-zero count from N = k on (gate ``upkeep_flat``), and every expiry
  flush syncs a structure and triggers zero full-structure rebuilds
  (gate ``zero_expiry_rebuilds``); in ``bfs`` mode nothing is leased and
  both counter gates fail.  A partition too full to take the churn makes
  the run fail on the empty stream, before any gate is judged;
- ``bounded-far``: the pool's two distance modes race on a graph of its
  own, the in-repo YouTube-like stand-in (``youtube_like(0.05)``,
  ``0.02`` at ``--tiny``): N bound-6 queries, a deletion-heavy stream
  applied in flushes of 5, one pool in ``bfs`` mode (suspect rechecks by
  probes, ``probe_nodes``) against one in ``landmark`` mode (rechecks
  from the one shared landmark index, ``upkeep`` its batches).  A probe
  at bound 6 expands through most of the graph, while the landmark
  table answers a suspect with a few entries; its upkeep is paid once
  per flush for the whole pool (``lm_entries`` and ``columns_visited``,
  as in ``bounded-shared``), so ``landmark`` must win from N = 2 on
  (gate ``landmark_wins``) wherever the ``bfs`` leg takes
  ``FAR_RACE_FLOOR_MS``.  At ``--tiny`` no row does: that graph's margin
  (0.92-1.40x at N = 2 over ten runs) is inside the host's run-to-run
  noise, so the race is reported ungated there.

Each scenario is one :class:`Scenario` in ``SCENARIOS``: its sizes, the
timed legs it builds for each N, the counters it reads off the pool's
public stats, the oracle its queries are checked against, and its gates.
A scenario runs on the run's partitioned graph unless it declares its
own.
One runner (:func:`run`) measures every scenario the same way.  Each leg
is built untimed and timed right after a full ``gc.collect()``, so a
cyclic-GC pass paid for set-up garbage does not land in it; a row
reports each leg's median over ``--reps`` runs, topped up to
``RACE_REPS`` on a row that some race judges on those first medians,
and records its reps; counters are the change across the last run's
timed region.  The oracle is batch recomputation: every checked pool's
queries, and every naive index, must equal ``maximum_simulation`` or
``bounded_match`` (totalized) on the first checked pool's final graph,
and every other checked pool and every naive index must hold that same
graph.
Gates come in three kinds: :class:`Flat` (a count non-zero and equal at
every N from a threshold, judged on two or more sizes), :class:`Race`
(a ratio above 1 wherever the baseline clears the race's floor)
and :class:`Every` (a condition on every row).

The naive baseline is one independent incremental index per pattern,
each fed the full stream and then made to publish its delta the way a
pool query does (:func:`publish`).  The script prints a table per
scenario, writes a machine-readable record (``BENCH_pool.json`` on a
full run of every scenario, ``--json PATH`` on any run), and exits
non-zero if any routed result disagrees with its oracle or any gate
fails.  ``BENCH_pool.json`` feeds the CI regression compare
(``benchmarks/compare_bench.py``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_pool.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_pool.py --tiny   # smoke, no file
"""

import argparse
import gc
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import bounded_match, maximum_simulation, totalize  # noqa: E402
from repro.engine import MatcherPool  # noqa: E402
from repro.graphs.digraph import DiGraph  # noqa: E402
from repro.incremental.incbsim import BoundedSimulationIndex  # noqa: E402
from repro.incremental.incsim import SimulationIndex  # noqa: E402
from repro.incremental.types import delete, insert  # noqa: E402
from repro.matching.relation import as_pairs  # noqa: E402
from repro.patterns.pattern import Pattern  # noqa: E402
from repro.patterns.predicate import Atom, Predicate  # noqa: E402
from repro.workloads.datasets import (  # noqa: E402
    YOUTUBE_CATEGORIES,
    YOUTUBE_UPLOADERS,
    youtube_like,
)
from repro.workloads.updates import (  # noqa: E402
    label_partitioned_updates,
    mixed_updates,
)

# Pool sizes N of a full run, and of a --tiny run: two sizes at or above
# every flatness gate's threshold (4), so the smoke run can catch a count
# that grows with N.  Only a full run of every scenario is the committed
# record, BENCH_pool.json.
FULL_SIZES = [1, 2, 4, 8, 16, 32, 64]
TINY_SIZES = [1, 2, 4, 8]

# Distinct patterns the ``overlap``, ``shared-plan`` and ``temporal``
# scenarios draw their N queries from (query i uses pattern
# i % VOCABULARY), so their counts are flat from N = VOCABULARY on.
VOCABULARY = 4

# Minimum median time (ms) the baseline side of a race must take for the
# row to be gated; below it the whole race is timer jitter and the
# verdict is reported ungated (``None``).
RACE_GATE_FLOOR_MS = 1.0

# Repetitions a row that some race judges is topped up to.
RACE_REPS = 5

# The shared-plan race is only judged from this many registered queries
# up: below it the pool holds at most one query per distinct pattern, so
# there is nothing to share and the comparison is not the claim.
PLAN_GATE_MIN_N = 16

TEMPORAL_WINDOW = 10.0

# The bounded-far race: bound-FAR_BOUND queries, a stream whose
# FAR_DELETE_SHARE are deletions applied FAR_FLUSH updates per flush.  It
# is judged from FAR_GATE_MIN_N queries on (one query pays the landmark
# upkeep alone, and ties), on rows whose bfs leg takes at least
# FAR_RACE_FLOOR_MS: the --tiny graph's rows take under 250 ms on a
# 2-vCPU VM, and the full run's from N = 2 take over 500 ms.
FAR_BOUND = 6
FAR_FLUSH = 5
FAR_DELETE_SHARE = 0.7
FAR_GATE_MIN_N = 2
FAR_RACE_FLOOR_MS = 400.0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
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


def partition_updates(graph: DiGraph, num_updates: int):
    """The edge stream the ``simulation`` and ``bounded`` scenarios
    replay, all in partition 0's label space.  It moves answers: it
    deletes every out-edge of the partition's first two ``A`` nodes, so
    a match among them is lost, and links the second one back to a ``B``
    node with a ``C`` child and to a ``C`` node, neither its child
    before, so it can match again.  A pool or naive index that skips
    deletion or insertion repair then disagrees with batch
    recomputation.  The rest of the stream, if ``num_updates`` leaves
    room for any, is churn elsewhere in the partition, half insertions
    and half deletions.  The partition needs two ``A`` nodes, so at
    least 4 nodes."""
    a, b, c = cluster_labels(0)
    members = {label: [] for label in (a, b, c)}
    for v in graph.nodes():
        label = graph.get_attr(v, "label")
        if label in members:
            members[label].append(v)
    first, second = members[a][:2]
    children = graph.children(second)
    # The first node that fits; on a partition too dense to have one,
    # the first that comes closest.
    targets = set(members[c])
    linked = min(
        members[b],
        key=lambda v: (v in children, targets.isdisjoint(graph.children(v))),
    )
    target = min(members[c], key=lambda v: v in children)
    stream = [
        delete(v, w) for v in (first, second) for w in graph.children(v)
    ]
    stream += [insert(second, linked), insert(second, target)]
    n = max(0, num_updates - len(stream))
    # The churn leaves the two cut nodes' out-edges alone: one more
    # inserted there could give the first its match back.
    churn = [
        u
        for u in label_partitioned_updates(
            graph, (a, b, c), num_insertions=n, num_deletions=n, seed=11
        )
        if u.source not in (first, second)
    ]
    return (
        stream
        + [u for u in churn if u.op == "insert"][: n // 2]
        + [u for u in churn if u.op == "delete"][: n - n // 2]
    )


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


def overlap_pattern(i: int) -> Pattern:
    return sim_pattern(i % VOCABULARY)


def overlap_stream(graph, num_ops, seed=13):
    """A mixed ``(node ops, edge ops)`` stream across the first
    ``VOCABULARY`` partitions, node ops as ``(node, attrs)``.

    Attribute flips dominate (they are what drives predicate
    re-evaluation); edge churn keeps the simulation repair honest.
    """
    rng = random.Random(seed)
    members = {
        i: sorted(v for v in graph.nodes() if str(v).startswith(f"c{i}n"))
        for i in range(VOCABULARY)
    }
    nodes, edges = [], []
    for _ in range(num_ops):
        i = rng.randrange(VOCABULARY)
        labels = cluster_labels(i)
        if rng.random() < 0.6:
            nodes.append(
                (rng.choice(members[i]), {"label": rng.choice(labels)})
            )
        else:
            v, w = rng.choice(members[i]), rng.choice(members[i])
            if v == w:
                continue
            edges.append(insert(v, w) if rng.random() < 0.6 else delete(v, w))
    return nodes, edges


_SCORE_ATOMS = (("score", ">", 0), ("score", ">", 1), ("score", "<=", 2))
_SCORE_COMBOS = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2))


def overlap_atoms_predicate(i: int):
    """Conjunction ``i`` over a fixed 6-atom vocabulary: one of 3 label-eq
    atoms (partition 0's labels) & 1-2 of 3 score atoms — 18 distinct
    conjunctions, all sharing posting sets in the substrate's atom tier.
    The first three (i = 0, 1, 2) cover all six atoms, so the vocabulary
    is fully interned once N >= 3 and per-flush atom evaluations must be
    *exactly* flat in N from there."""
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
    p = Pattern()
    p.add_node("x", overlap_atoms_predicate(i))
    p.add_node("y", Predicate.true())
    p.add_edge("x", "y", 1)
    return p


def overlap_atoms_stream(graph, num_ops, seed=17):
    """Label/score flips on partition 0 (the conjunction vocabulary's
    attribute space) plus some edge churn to keep repair honest, as
    ``(node ops, edge ops)``."""
    rng = random.Random(seed)
    members = sorted(v for v in graph.nodes() if str(v).startswith("c0n"))
    labels = cluster_labels(0)
    nodes, edges = [], []
    for _ in range(num_ops):
        roll = rng.random()
        if roll < 0.45:
            nodes.append((rng.choice(members), {"label": rng.choice(labels)}))
        elif roll < 0.80:
            nodes.append(
                (rng.choice(members), {"score": rng.choice([0, 1, 2, 3])})
            )
        else:
            v, w = rng.choice(members), rng.choice(members)
            if v == w:
                continue
            edges.append(insert(v, w) if rng.random() < 0.6 else delete(v, w))
    return nodes, edges


def plan_pattern(i: int) -> Pattern:
    """Two-leg bound-2 pattern over leg vocabulary ``i % VOCABULARY``,
    spelled with node names private to query ``i`` — canonical
    fingerprints, not node-name spelling, must drive the plan's
    interning."""
    a, b, c = cluster_labels(i % VOCABULARY)
    p = Pattern()
    x, y, z = f"x{i}", f"y{i}", f"z{i}"
    p.add_node(x, f"label = {a}")
    p.add_node(y, f"label = {b}")
    p.add_node(z, f"label = {c}")
    p.add_edge(x, y, 2)
    p.add_edge(y, z, 2)
    return p


def plan_updates(graph, num_updates, seed=11):
    """An edge stream spanning all ``VOCABULARY`` leg-vocabulary
    partitions, so every interned index (not just partition 0's) sees
    repair work."""
    per = max(2, num_updates // VOCABULARY)
    ops = []
    for i in range(VOCABULARY):
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


def temporal_pattern(i: int) -> Pattern:
    return bounded_pattern(i % VOCABULARY)


class EmptyStream(ValueError):
    """A scenario's stream came out empty on this graph, so its legs
    would time nothing and its gates would judge nothing."""


def temporal_stream(graph, num_churn):
    """Two disjoint insert-only churn batches in partition 0: the first
    is ingested at t = 0 and expires; the second (drawn against a graph
    already holding the first) is what the window step ingests.  Raises
    :class:`EmptyStream` when the first is empty: nothing would expire."""
    churn = label_partitioned_updates(
        graph, cluster_labels(0),
        num_insertions=num_churn, num_deletions=0, seed=31,
    )
    if not churn:
        raise EmptyStream(
            "the insert-only churn stream of partition 0 is empty (asked "
            f"for {num_churn} insertions, found no absent edge to insert), "
            "so nothing expires"
        )
    warm = graph.copy()
    for u in churn:
        warm.add_edge(*u.edge)
    fresh = label_partitioned_updates(
        warm, cluster_labels(0),
        num_insertions=num_churn, num_deletions=0, seed=37,
    )
    return churn, fresh


def far_graph(tiny: bool) -> DiGraph:
    """The ``bounded-far`` graph: the in-repo YouTube-like stand-in,
    741 nodes at scale 0.05 and 296 at ``--tiny``'s 0.02."""
    return youtube_like(0.02 if tiny else 0.05)


def far_pattern(i: int) -> Pattern:
    """A video of category ``i`` reaches one by uploader ``i`` within
    ``FAR_BOUND`` hops; distinct for every ``i`` below 40."""
    category = YOUTUBE_CATEGORIES[i % len(YOUTUBE_CATEGORIES)]
    uploader = YOUTUBE_UPLOADERS[i % len(YOUTUBE_UPLOADERS)]
    return Pattern.from_spec(
        {"x": f"category = {category}", "y": f"uploader = {uploader}"},
        [("x", "y", FAR_BOUND)],
    )


def far_updates(graph, num_updates):
    """The ``bounded-far`` stream.  Like :func:`partition_updates` it
    moves answers: it deletes every out-edge of query 0's two matched
    sources with the fewest out-edges, so the first loses its match, and
    links the second to a target of query 0 it had no edge to, so it
    matches again.  The rest, if ``num_updates`` leaves room for any, is
    degree-biased churn (:func:`~repro.workloads.updates.mixed_updates`),
    ``FAR_DELETE_SHARE`` of it deletions, none out of the two cut
    nodes."""
    pattern = far_pattern(0)
    first, second = sorted(
        bounded_match(pattern, graph)["x"],
        key=lambda v: (graph.out_degree(v), v),
    )[:2]
    target = min(
        v for v in graph.nodes()
        if v != second and not graph.has_edge(second, v)
        and pattern.predicate("y").satisfied_by(graph.attrs(v))
    )
    stream = [
        delete(v, w) for v in (first, second) for w in graph.children(v)
    ]
    stream.append(insert(second, target))
    n = max(0, num_updates - len(stream))
    quota = {"delete": round(FAR_DELETE_SHARE * n)}
    quota["insert"] = n - quota["delete"]
    for u in mixed_updates(graph, n, n, seed=41):
        if u.source not in (first, second) and quota[u.op]:
            quota[u.op] -= 1
            stream.append(u)
    return stream


# ----------------------------------------------------------------------
# Timed legs: pools and the naive loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Leg:
    """One timed leg: ``build(graph, stream, n)`` makes its state outside
    the timed region, ``run(state, stream)`` is the timed work.
    ``counts`` are read off the state's pool before and after ``run`` and
    recorded as the change; ``gauges`` are read after it."""

    key: str
    build: Callable[[DiGraph, Any, int], Any]
    run: Callable[[Any, Any], Any]
    counts: Mapping[str, Callable[[MatcherPool], int]] = field(
        default_factory=dict
    )
    gauges: Mapping[str, Callable[[MatcherPool], int]] = field(
        default_factory=dict
    )


def pool_of(pattern, semantics, window=None, **register):
    """A leg builder: a pool over a copy of the graph holding queries
    ``p0 .. p{n-1}``."""

    def build(graph, stream, n):
        pool = MatcherPool(graph.copy(), window=window)
        for i in range(n):
            pool.register(
                pattern(i), semantics=semantics, name=f"p{i}", **register
            )
        return pool

    return build


def queued(build):
    """``build``, then a ``(node ops, edge ops)`` stream queued for the
    timed flush."""

    def with_stream(graph, stream, n):
        pool = build(graph, stream, n)
        nodes, edges = stream
        for v, attrs in nodes:
            pool.queue_node(v, **attrs)
        pool.queue_updates(edges)
        return pool

    return with_stream


def flush(pool, stream):
    return pool.flush()


def in_flushes(pool, stream):
    """Apply ``stream`` ``FAR_FLUSH`` updates per flush."""
    for i in range(0, len(stream), FAR_FLUSH):
        pool.apply(stream[i:i + FAR_FLUSH])


def publish(index, was_total):
    """What the pool's shared plan does with an interned index's delta on
    every flush that changes it (``SharedPlan.deliver``), for one query:
    pop the raw delta and totalize it, materializing every pair when
    totality flips.  Returns ``((added, removed), now_total)``."""
    added, removed = index.pop_match_delta()
    now_total = index.is_total()
    if now_total != was_total:
        after = set(as_pairs(index.raw_match_sets()))
        if now_total:
            added, removed = after, set()
        else:
            added, removed = set(), (after - added) | removed
    elif not now_total:
        added, removed = set(), set()
    return (frozenset(added), frozenset(removed)), now_total


class NaiveLoop:
    """The naive baseline: one independent incremental index per
    pattern, each fed the whole stream by ``feed`` and then made to
    :func:`publish` its delta."""

    def __init__(self, indexes, feed):
        self.indexes = indexes
        self.feed = feed
        self.total = [index.is_total() for index in indexes]
        self.last_delta = [None] * len(indexes)

    def run(self, stream):
        for i, index in enumerate(self.indexes):
            self.feed(index, stream)
            self.last_delta[i], self.total[i] = publish(index, self.total[i])


def feed_edges(index, updates):
    index.apply_batch(updates)


def feed_mixed(index, stream):
    """Flush order: node ops first, then the coalesced edge batch."""
    nodes, edges = stream
    for v, attrs in nodes:
        index.update_node_attrs(v, **attrs)
    index.apply_batch(edges)


def naive(index_type, pattern, feed=feed_edges, key="naive_ms", **kwargs):
    """The naive leg ``key``: the naive loop over ``n`` private indexes,
    each on its own copy of the graph."""

    def build(graph, stream, n):
        return NaiveLoop(
            [index_type(pattern(i), graph.copy(), **kwargs) for i in range(n)],
            feed,
        )

    return Leg(key, build, NaiveLoop.run)


def batch(pattern, semantics):
    """The oracle of queries ``p{i} = pattern(i)`` under ``semantics``:
    ``oracle(n, pool)`` recomputes each from scratch on ``pool``'s
    graph, totalized as a pool query's answer is."""
    match = bounded_match if semantics == "bounded" else maximum_simulation

    def oracle(n, pool):
        return [totalize(match(pattern(i), pool.graph)) for i in range(n)]

    return oracle


def retire_one_by_one(pool, stream):
    """The per-edge leg: the deletions bulk expiry retires, one flush
    each."""
    churn, _ = stream
    for u in churn:
        pool.queue(delete(*u.edge))
        pool.flush()


def expired(n, pool):
    """The ``temporal`` oracle: the windowed pool's temporal invariants,
    then batch recomputation on its truncated graph."""
    pool.check_temporal_invariants()
    return batch(temporal_pattern, "bounded")(n, pool)


# Counters read off the pool's public stats; a row records each one's
# change across the leg's timed run.
ROUTING = {
    "routed": lambda pool: pool.stats.routed_pairs,
    "skipped": lambda pool: pool.stats.skipped_pairs,
    "upkeep": lambda pool: pool.substrate.stats.structure_batches,
}
DISTANCE_WORK = {
    "distance_checks": lambda pool: pool.stats.distance_checks,
    "leg_nodes": lambda pool: pool.substrate.stats.leg_nodes,
}
# The pool's one leased landmark index: its column repairs (a count) and
# its stored entries after the run (a gauge).
LANDMARK_WORK = {
    "columns_visited": (
        lambda pool: pool.substrate.landmark_index().columns_visited
    ),
}
LANDMARK_SIZE = {
    "lm_entries": lambda pool: pool.substrate.landmark_index().size_entries(),
}
ATOM_WORK = {
    "atom_evals": lambda pool: pool.eligibility.stats.atom_evals,
    "routed": ROUTING["routed"],
}


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Flat:
    """``key`` is one non-zero count at every N >= ``start``, judged on
    two or more such sizes."""

    name: str
    key: str
    start: int = 1

    def verdict(self, rows) -> bool:
        counts = [r[self.key] for r in rows if r["n"] >= self.start]
        return len(counts) >= 2 and counts[0] > 0 and len(set(counts)) == 1


@dataclass(frozen=True)
class Race:
    """The ratio ``key`` (``baseline`` leg over its rival) exceeds 1 on
    every row with N >= ``start`` whose ``baseline`` clears ``floor_ms``;
    ungated (``None``) when no row does."""

    name: str
    key: str
    baseline: str
    start: int = 1
    floor_ms: float = RACE_GATE_FLOOR_MS

    def judges(self, n: int, baseline_ms: float) -> bool:
        return n >= self.start and baseline_ms >= self.floor_ms

    def verdict(self, rows) -> Optional[bool]:
        gated = [
            r[self.key] for r in rows
            if self.judges(r["n"], r[self.baseline])
        ]
        return all(ratio > 1.0 for ratio in gated) if gated else None


@dataclass(frozen=True)
class Every:
    """On every row, the count ``key`` is non-zero and the count
    ``zero`` is zero."""

    name: str
    key: str
    zero: str

    def verdict(self, rows) -> bool:
        return bool(rows) and all(
            r[self.key] and not r[self.zero] for r in rows
        )


Gate = Union[Flat, Race, Every]


@dataclass(frozen=True)
class Scenario:
    """One registry entry.  ``stream(graph, num_updates)`` is built once;
    ``ratio`` is ``(row key, numerator leg, denominator leg)``.
    ``oracle(n, pool)`` gives the expected answer of each query ``p{i}``
    on the final graph of the first ``checked`` leg's pool (the first
    leg's by default); every checked pool and every naive leg's index
    ``i`` must hold that graph and give that answer (see :func:`check`),
    and each ``expect``ed count must equal its value on the stream.
    ``graph(tiny)``, when given, builds the scenario's own graph in place
    of the run's partitioned one.  ``info`` is copied into the
    scenario's JSON document."""

    title: str
    stream: Callable[[DiGraph, int], Any]
    legs: Tuple[Leg, ...]
    gates: Tuple[Gate, ...]
    oracle: Callable[[int, MatcherPool], List[Any]]
    ratio: Tuple[str, str, str] = ("speedup", "naive_ms", "pool_ms")
    sizes: Callable[[List[int]], List[int]] = list
    checked: Tuple[str, ...] = ()
    expect: Mapping[str, Callable[[Any], int]] = field(default_factory=dict)
    info: Mapping[str, Any] = field(default_factory=dict)
    graph: Optional[Callable[[bool], DiGraph]] = None


def up_to_16(sizes):
    """The naive loop's private indexes (and the per-edge leg's flushes)
    get expensive fast; a sweep capped at 16 already spans every gate."""
    return [n for n in sizes if n <= 16]


def up_to_8(sizes):
    """``bounded-far``'s bfs leg takes seconds a run at N = 8 on the full
    graph; its race is judged from N = 2, so three sizes are gated."""
    return [n for n in sizes if n <= 8]


def bounded(mode, sizes=list, gates=()):
    """The ``bounded`` scenario in distance mode ``mode``; in ``landmark``
    mode its pool leg also reads the leased landmark index."""
    landmark = mode == "landmark"
    return Scenario(
        title=f"distance_mode={mode}",
        stream=partition_updates,
        legs=(
            Leg(
                "pool_ms",
                pool_of(bounded_pattern, "bounded", distance_mode=mode),
                MatcherPool.apply,
                counts={
                    **ROUTING, **DISTANCE_WORK,
                    **(LANDMARK_WORK if landmark else {}),
                },
                gauges=LANDMARK_SIZE if landmark else {},
            ),
            naive(BoundedSimulationIndex, bounded_pattern, distance_mode=mode),
        ),
        gates=(Flat("distance_checks_flat", "distance_checks"), *gates),
        oracle=batch(bounded_pattern, "bounded"),
        sizes=sizes,
        info={"distance_mode": mode},
    )


def temporal(mode):
    """The ``temporal`` scenario in distance mode ``mode``: landmark mode
    leases one structure that every expiry flush must sync; in bfs mode
    nothing is leased and both counter gates fail."""
    windowed = pool_of(
        temporal_pattern, "bounded", window=TEMPORAL_WINDOW,
        distance_mode=mode,
    )
    unwindowed = pool_of(temporal_pattern, "bounded", distance_mode=mode)

    def expiring(graph, stream, n):
        """A windowed pool that ingested the churn at t = 0, its clock
        past the window."""
        pool = windowed(graph, stream, n)
        pool.apply(stream[0])
        pool.advance(TEMPORAL_WINDOW + 1)
        return pool

    def stepping(graph, stream, n):
        pool = expiring(graph, stream, n)
        pool.queue_updates(stream[1])
        return pool

    def twin(graph, stream, n):
        pool = unwindowed(graph, stream, n)
        pool.apply(stream[0])
        return pool

    return Scenario(
        title="sliding-window bulk expiry vs per-edge deletion flushes; "
        f"{mode} mode",
        stream=temporal_stream,
        legs=(
            Leg(
                "expiry_bulk_ms", expiring, flush,
                counts={
                    "expired": lambda pool: pool.stats.expired_edges,
                    "structure_batches": ROUTING["upkeep"],
                    "rebuild_delta": (
                        lambda pool: pool.rebuild_counters()["total"]
                    ),
                },
            ),
            Leg("expiry_per_edge_ms", twin, retire_one_by_one),
            Leg("windowed_ms", stepping, flush),
        ),
        gates=(
            Race("bulk_expiry_wins", "per_edge_over_bulk",
                 "expiry_per_edge_ms"),
            Flat("upkeep_flat", "structure_batches", start=VOCABULARY),
            Every("zero_expiry_rebuilds", "structure_batches",
                  zero="rebuild_delta"),
        ),
        ratio=("per_edge_over_bulk", "expiry_per_edge_ms", "expiry_bulk_ms"),
        oracle=expired,
        checked=("expiry_bulk_ms", "expiry_per_edge_ms"),
        expect={"expired": lambda stream: len(stream[0])},
        sizes=up_to_16,
        info={
            "distance_mode": mode,
            "window": TEMPORAL_WINDOW,
            "pattern_vocabulary": VOCABULARY,
        },
    )


# Every scenario, in the order ``--scenario all`` runs them.
SCENARIOS: Dict[str, Scenario] = {
    "simulation": Scenario(
        title="eq-key routed",
        stream=partition_updates,
        legs=(
            Leg(
                "pool_ms", pool_of(sim_pattern, "simulation"),
                MatcherPool.apply, counts=ROUTING,
            ),
            naive(SimulationIndex, sim_pattern),
        ),
        gates=(Flat("routed_flat", "routed"),),
        oracle=batch(sim_pattern, "simulation"),
    ),
    "bounded": bounded("bfs"),
    "bounded-shared": bounded(
        "landmark", sizes=up_to_16, gates=(Flat("upkeep_flat", "upkeep"),)
    ),
    "overlap": Scenario(
        title=f"N simulation queries over {VOCABULARY} distinct predicate "
        "sets; pool vs naive loop",
        stream=overlap_stream,
        legs=(
            Leg(
                "pool_ms", queued(pool_of(overlap_pattern, "simulation")),
                flush, counts=ATOM_WORK,
            ),
            naive(SimulationIndex, overlap_pattern, feed=feed_mixed),
        ),
        gates=(
            Flat("atom_evals_flat", "atom_evals", start=VOCABULARY),
            Flat("routed_flat", "routed", start=VOCABULARY),
        ),
        oracle=batch(overlap_pattern, "simulation"),
        info={"flat_from": VOCABULARY},
    ),
    "overlap-atoms": Scenario(
        title="N conjunction queries over a fixed 6-atom vocabulary; pool "
        "vs naive loop",
        stream=overlap_atoms_stream,
        legs=(
            Leg(
                "pool_ms",
                queued(pool_of(overlap_atoms_pattern, "simulation")),
                flush, counts=ATOM_WORK,
            ),
            naive(SimulationIndex, overlap_atoms_pattern, feed=feed_mixed),
        ),
        gates=(Flat("atom_evals_flat", "atom_evals", start=3),),
        oracle=batch(overlap_atoms_pattern, "simulation"),
        sizes=lambda sizes: sorted({max(3, n) for n in sizes}),
        info={"flat_from": 3},
    ),
    "shared-plan": Scenario(
        title=f"N bound-2 patterns over {VOCABULARY} leg vocabularies, "
        "shared plan vs naive loop",
        stream=plan_updates,
        legs=(
            Leg(
                "plan_shared_ms", pool_of(plan_pattern, "bounded"),
                MatcherPool.apply,
                counts={"join_repairs": lambda pool: pool.stats.join_repairs},
                gauges={"plan_joins": lambda pool: pool.plan.num_joins()},
            ),
            naive(BoundedSimulationIndex, plan_pattern, key="plan_naive_ms"),
        ),
        gates=(
            Flat("join_repairs_flat", "join_repairs", start=VOCABULARY),
            Race("shared_wins", "naive_over_shared", "plan_naive_ms",
                 start=PLAN_GATE_MIN_N),
        ),
        ratio=("naive_over_shared", "plan_naive_ms", "plan_shared_ms"),
        oracle=batch(plan_pattern, "bounded"),
        sizes=up_to_16,
        info={"leg_vocabularies": VOCABULARY},
    ),
    "temporal": temporal("landmark"),
    "bounded-far": Scenario(
        title=f"N bound-{FAR_BOUND} queries, flushes of {FAR_FLUSH}; bfs "
        "pool vs landmark pool",
        graph=far_graph,
        stream=far_updates,
        legs=(
            Leg(
                "bfs_ms",
                pool_of(far_pattern, "bounded", distance_mode="bfs"),
                in_flushes,
                counts={
                    "probe_nodes": (
                        lambda pool: pool.substrate.stats.probe_nodes
                    ),
                },
            ),
            Leg(
                "landmark_ms",
                pool_of(far_pattern, "bounded", distance_mode="landmark"),
                in_flushes,
                counts={"upkeep": ROUTING["upkeep"], **LANDMARK_WORK},
                gauges=LANDMARK_SIZE,
            ),
        ),
        gates=(
            Race("landmark_wins", "bfs_over_landmark", "bfs_ms",
                 start=FAR_GATE_MIN_N, floor_ms=FAR_RACE_FLOOR_MS),
        ),
        ratio=("bfs_over_landmark", "bfs_ms", "landmark_ms"),
        oracle=batch(far_pattern, "bounded"),
        checked=("bfs_ms", "landmark_ms"),
        sizes=up_to_8,
        info={
            "distance_modes": ["bfs", "landmark"],
            "bound": FAR_BOUND,
            "flush_size": FAR_FLUSH,
        },
    ),
}


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _cell(value) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def check(name, stream, n, states, row) -> bool:
    """Scenario ``name``'s correctness check at size ``n``, on the last
    run's leg states by key: every checked pool, and every naive index,
    holds the first checked pool's final graph and answers each query as
    batch recomputation on it does, and every expected count holds."""
    scenario = SCENARIOS[name]
    failures = [
        f"{key} = {row[key]}, expected {want(stream)}"
        for key, want in scenario.expect.items()
        if row[key] != want(stream)
    ]
    checked = scenario.checked or (scenario.legs[0].key,)
    graph = states[checked[0]].graph
    expected = [as_pairs(m) for m in scenario.oracle(n, states[checked[0]])]
    answers = {
        f"{key} pool": [states[key].query(f"p{i}") for i in range(n)]
        for key in checked
    }
    answers.update(
        (f"{key} naive", state.indexes)
        for key, state in states.items()
        if isinstance(state, NaiveLoop)
    )
    for who, queries in answers.items():
        failures += [
            f"{who}, pattern {i}: graph differs"
            for i, q in enumerate(queries)
            if q.graph != graph
        ]
        failures += [
            f"{who}, pattern {i}"
            for i, q in enumerate(queries)
            if as_pairs(q.matches()) != expected[i]
        ]
    for failure in failures:
        print(f"MISMATCH {name} N={n}: {failure}", file=sys.stderr)
    return not failures


def judge(name, rows) -> Tuple[bool, Dict[str, Optional[bool]]]:
    """Every gate of scenario ``name`` on ``rows``: ``(ok, verdicts)``,
    ok unless some verdict is False (an ungated race reads ``None``)."""
    gates = SCENARIOS[name].gates
    verdicts = {gate.name: gate.verdict(rows) for gate in gates}
    print("gates: " + " ".join(f"{k}={v}" for k, v in verdicts.items()))
    for gate in gates:
        if verdicts[gate.name] is False:
            by_n = {r["n"]: r[gate.key] for r in rows}
            print(
                f"GATE FAILED {name}: {gate!r}; {gate.key} by N: {by_n}",
                file=sys.stderr,
            )
    return all(v is not False for v in verdicts.values()), verdicts


def run(
    name, graph, sizes, num_updates, reps, tiny=False
) -> Tuple[bool, dict]:
    """Measure scenario ``name`` at each of its sizes: ``(ok, doc)``.
    ``graph`` is the run's partitioned graph; ``tiny`` picks the size of
    a scenario's own graph."""
    scenario = SCENARIOS[name]
    print(f"\n== scenario: {name} ({scenario.title}) ==")
    own = {}
    if scenario.graph is not None:
        graph = scenario.graph(tiny)
        own["graph"] = {"nodes": graph.num_nodes(), "edges": graph.num_edges()}
        print(f"graph: |V|={graph.num_nodes()} |E|={graph.num_edges()}")
    try:
        stream = scenario.stream(graph, num_updates)
    except EmptyStream as exc:
        print(f"EMPTY STREAM {name}: {exc}", file=sys.stderr)
        return False, {"empty_stream": str(exc)}
    sizes = scenario.sizes(sizes)
    races = [gate for gate in scenario.gates if isinstance(gate, Race)]
    ratio, num, den = scenario.ratio
    columns = ["n", "reps", *(leg.key for leg in scenario.legs), ratio]
    for leg in scenario.legs:
        columns += [*leg.counts, *leg.gauges]
    widths = {c: max(len(c), 7) for c in columns}
    print(" ".join(f"{c:>{widths[c]}}" for c in columns))
    ok = True
    rows = []
    for n in sizes:
        times = {leg.key: [] for leg in scenario.legs}
        done, row_reps = 0, reps
        while done < row_reps:
            states, counts = {}, {}
            for leg in scenario.legs:
                state = states[leg.key] = leg.build(graph, stream, n)
                before = {k: read(state) for k, read in leg.counts.items()}
                gc.collect()
                start = time.perf_counter()
                leg.run(state, stream)
                times[leg.key].append(time.perf_counter() - start)
                for key, read in leg.counts.items():
                    counts[key] = read(state) - before[key]
                for key, read in leg.gauges.items():
                    counts[key] = read(state)
            done += 1
            # A row some race judges on its first medians is topped up.
            if done == reps and any(
                race.judges(n, statistics.median(times[race.baseline]) * 1e3)
                for race in races
            ):
                row_reps = max(reps, RACE_REPS)
        median = {key: statistics.median(ts) for key, ts in times.items()}
        row = {"n": n, "reps": row_reps}
        row.update((key, round(t * 1e3, 3)) for key, t in median.items())
        row[ratio] = (
            round(median[num] / median[den], 2) if median[den] > 0
            else float("inf")
        )
        row.update(counts)
        ok = check(name, stream, n, states, row) and ok
        print(" ".join(f"{_cell(row[c]):>{widths[c]}}" for c in columns))
        rows.append(row)
    gates_ok, verdicts = judge(name, rows)
    doc = {"sizes": sizes, **own, **scenario.info, "results": rows}
    doc.update(verdicts)
    return ok and gates_ok, doc


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
        choices=[*SCENARIOS, "all"],
        default="all",
        help="which workload to run",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write machine-readable results here ('-' to skip); by "
        "default a full run of every scenario writes BENCH_pool.json, "
        "and a --tiny or --scenario run writes nothing",
    )
    args = parser.parse_args(argv)

    if args.tiny:
        sizes = TINY_SIZES
        cluster_size = args.cluster_size or 12
        num_updates = args.updates or 20
        reps = args.reps or 2
    else:
        sizes = FULL_SIZES
        cluster_size = args.cluster_size or 30
        num_updates = args.updates or 120
        reps = args.reps or 3
    if cluster_size < 4:
        parser.error("--cluster-size must be at least 4 (partition_updates)")

    graph = build_graph(max(sizes), cluster_size)
    print(
        f"graph: |V|={graph.num_nodes()} |E|={graph.num_edges()}  "
        f"updates: {num_updates} per scenario stream"
    )
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    ok = True
    doc = {
        "graph": {"nodes": graph.num_nodes(), "edges": graph.num_edges()},
        "updates": num_updates,
        "scenarios": {},
    }
    for name in names:
        s_ok, doc["scenarios"][name] = run(
            name, graph, sizes, num_updates, reps, tiny=args.tiny
        )
        ok = ok and s_ok

    out = args.json
    if out is None and not args.tiny and args.scenario == "all":
        out = "BENCH_pool.json"
    if out not in (None, "-"):
        Path(out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"\nwrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
