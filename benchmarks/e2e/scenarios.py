"""The end-to-end benchmark's four workloads.

Each workload's data graph and standing queries are fixtures, drawn once
from ``FIXTURE_SEED``; the run's ``--seed`` drives the update trace, so
one seed always yields the same inputs and another seed a different
trace over the same fixture.  Letting the seed redraw the graph and the
patterns too made flush cost swing by up to 10x between seeds (a random
pattern matches nothing on one draw and a third of the graph on the
next), which would drown any code change in input noise.  The fixture
patterns use fixed shapes with *categorical* predicates, whose values are
uniform, so every pattern node selects a similar share of the graph.

The trace is an endless, seeded stream of :class:`TraceEvent`\\ s whose
timestamps put exactly ``events_per_flush`` events in each
``floor(ts / FLUSH_EVERY)`` bucket.  Inserts never duplicate a live edge
and deletes only name live edges, so no operation fails.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro import DiGraph, Pattern
from repro.workloads.datasets import (
    YOUTUBE_CATEGORIES,
    YOUTUBE_UPLOADERS,
    youtube_like,
)
from repro.workloads.replay import TraceEvent

# Fixture draws (graph and patterns) never depend on the run's seed.
FIXTURE_SEED = 7
# youtube_like(0.2): ~2.97k nodes, ~11.8k edges; smoke runs shrink it.
YT_SCALE = 0.2
YT_SMOKE_SCALE = 0.02
CHURN_LIFETIME = 2000  # events
FLUSH_EVERY = 1.0
WINDOW = 50.0  # window-landmark's pool window, in trace time units

# Four-node, four-edge bounded shapes over nodes 0..3: (u, u2, bound).
SHAPES: Tuple[Tuple[Tuple[int, int, int], ...], ...] = (
    ((0, 1, 3), (1, 2, 2), (2, 3, 3), (3, 0, 2)),  # cycle
    ((0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3)),  # diamond
    ((0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 3, 3)),  # path plus chord
    ((0, 1, 2), (0, 2, 3), (0, 3, 2), (3, 1, 3)),  # star plus chord
)
# Three-edge normal shapes for simulation queries: (u, u2).
SIM_SHAPES: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    ((0, 1), (1, 2), (2, 0)),  # directed triangle
    ((0, 1), (0, 2), (1, 2)),  # transitive triple
    ((0, 1), (1, 2), (2, 3)),  # path
)


@dataclass(frozen=True)
class Registration:
    """One standing query, registered through ``MatcherPool.register``."""

    name: str
    pattern: Pattern
    semantics: str
    distance_mode: str = "bfs"
    plan_scope: Optional[str] = None


@dataclass
class Inputs:
    """Everything one run feeds the pool: fixtures and a seeded trace."""

    graph: DiGraph
    registrations: List[Registration]
    events: Callable[[], Iterator[TraceEvent]]  # a fresh, identical stream
    events_per_flush: int
    pool_kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], Inputs]  # (seed, smoke) -> inputs
    # Reference-host throughput when the benchmark was written.  It only
    # sizes a run (``--seconds`` at this rate, a fixed event count), so
    # that a run takes a predictable time.
    nominal_events_per_s: float


# ----------------------------------------------------------------------
# Input generators
# ----------------------------------------------------------------------
def _pred(rng: random.Random, conj: float = 0.0) -> str:
    """An equality predicate on categorical attributes (uniform values,
    so every predicate selects about the same share of the graph); with
    probability ``conj`` a two-atom conjunction."""
    category = f"category = {rng.choice(YOUTUBE_CATEGORIES)}"
    uploader = f"uploader = {rng.choice(YOUTUBE_UPLOADERS)}"
    if rng.random() < conj:
        return f"{category} & {uploader}"
    return category if rng.random() < 0.5 else uploader


def bounded_pattern(rng: random.Random, shape, conj: float = 0.0) -> Pattern:
    return Pattern.from_spec(
        {u: _pred(rng, conj) for u in range(4)},
        [(u, u2, b) for u, u2, b in shape],
    )


def simulation_pattern(rng: random.Random, shape) -> Pattern:
    nodes = sorted({u for edge in shape for u in edge})
    return Pattern.from_spec(
        {u: _pred(rng) for u in nodes},
        [(u, u2, 1) for u, u2 in shape],
    )


def distinct_patterns(rng, count, make) -> List[Pattern]:
    """``count`` patterns that differ after canonicalisation, so the
    shared plan cannot collapse two of them into one join."""
    out: List[Pattern] = []
    seen = set()
    while len(out) < count:
        p = make(rng, len(out))
        key = p.fingerprint()
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def yt_attr_update(rng: random.Random, attrs: Tuple[str, ...]) -> Dict[str, Any]:
    name = rng.choice(attrs)
    if name == "category":
        return {"category": rng.choice(YOUTUBE_CATEGORIES)}
    if name == "uploader":
        return {"uploader": rng.choice(YOUTUBE_UPLOADERS)}
    return {"rate": round(rng.uniform(1.0, 5.0), 1)}


def op_kinds(
    rng: random.Random, p_insert: float, p_delete: float, events_per_flush: int
) -> Iterator[str]:
    """Endless ``insert``/``delete``/``node`` kinds in shuffled blocks with
    exact shares, each block the fewest whole flushes that hold them.

    Drawing each kind independently moved the number of deletes, most of
    the replay's cost on the YouTube-style workloads, by about 3% between
    seeds in a run; and flushes holding 0 to 6 deletes made the flush
    latency multimodal, so its median jumped between modes from seed to
    seed.  With a block per flush every flush holds the same mix."""
    block = events_per_flush
    while not all(abs(p * block - round(p * block)) < 1e-9 for p in (p_insert, p_delete)):
        block += events_per_flush
    inserts, deletes = round(p_insert * block), round(p_delete * block)
    kinds = ["insert"] * inserts + ["delete"] * deletes
    kinds += ["node"] * (block - len(kinds))
    while True:
        rng.shuffle(kinds)
        yield from kinds


def yt_events(
    graph: DiGraph,
    seed: int,
    events_per_flush: int,
    p_insert: float,
    p_delete: float,
    attrs: Tuple[str, ...],
) -> Iterator[TraceEvent]:
    """Endless edge and attribute churn around ``graph`` (not mutated).

    Every edge the trace inserts is deleted again, and every graph edge it
    deletes is inserted again, ``CHURN_LIFETIME`` events later (a due edge
    takes the next event of its kind).  The live graph so stays within a
    few hundred edges of ``graph`` and a long run measures one steady
    state; uniform churn instead rewired the whole graph within a run and
    let each seed drift to a different match set.  New edges get a
    uniform source and an in-degree-proportional target, keeping the
    degree skew; deleted graph edges are uniform.
    """
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    present = list(graph.edges())  # the graph's own edges still live
    original = set(present)
    live = set(present)
    inserted: Deque[Tuple[int, Tuple[Any, Any]]] = deque()  # (due, edge)
    deleted: Deque[Tuple[int, Tuple[Any, Any]]] = deque()
    for i, kind in enumerate(op_kinds(rng, p_insert, p_delete, events_per_flush)):
        ts = i / events_per_flush
        if kind == "insert":
            if deleted and deleted[0][0] <= i:
                edge = deleted.popleft()[1]
                present.append(edge)
            else:
                while True:
                    edge = (rng.choice(nodes), present[rng.randrange(len(present))][1])
                    if edge[0] != edge[1] and edge not in live and edge not in original:
                        break
                inserted.append((i + CHURN_LIFETIME, edge))
            live.add(edge)
            yield TraceEvent(ts, "insert", edge[0], w=edge[1])
        elif kind == "delete":
            if inserted and inserted[0][0] <= i:
                edge = inserted.popleft()[1]
            else:
                j = rng.randrange(len(present))
                edge = present[j]
                present[j] = present[-1]
                present.pop()
                deleted.append((i + CHURN_LIFETIME, edge))
            live.discard(edge)
            yield TraceEvent(ts, "delete", edge[0], w=edge[1])
        else:
            yield TraceEvent(
                ts, "node", rng.choice(nodes), attrs=yt_attr_update(rng, attrs)
            )


def community_graph(partitions: int, size: int, seed: int) -> DiGraph:
    """``partitions`` disjoint communities of ``size`` nodes labelled
    A{i}/B{i}/C{i} in rotation, each with ``3 * size`` random edges."""
    rng = random.Random(seed)
    g = DiGraph()
    for i in range(partitions):
        labels = community_labels(i)
        members = [f"c{i}n{j}" for j in range(size)]
        for j, node in enumerate(members):
            g.add_node(node, label=labels[j % 3])
        added = 0
        while added < 3 * size:
            v, w = rng.choice(members), rng.choice(members)
            if v != w and not g.has_edge(v, w):
                g.add_edge(v, w)
                added += 1
    return g


def community_labels(i: int) -> Tuple[str, str, str]:
    return (f"A{i}", f"B{i}", f"C{i}")


def window_events(
    graph: DiGraph,
    partitions: int,
    size: int,
    seed: int,
    events_per_flush: int,
    p_insert: float,
) -> Iterator[TraceEvent]:
    """In-partition inserts and label flips.  Inserts skip the base
    graph's (unstamped, permanent) edges: re-inserting one would stamp it
    and let the window expire the base graph over a long run."""
    rng = random.Random(seed)
    base = set(graph.edges())
    for i, kind in enumerate(op_kinds(rng, p_insert, 0.0, events_per_flush)):
        ts = i / events_per_flush
        part = rng.randrange(partitions)
        if kind == "insert":
            while True:
                v = f"c{part}n{rng.randrange(size)}"
                w = f"c{part}n{rng.randrange(size)}"
                if v != w and (v, w) not in base:
                    break
            yield TraceEvent(ts, "insert", v, w=w)
        else:
            node = f"c{part}n{rng.randrange(size)}"
            label = rng.choice(community_labels(part))
            yield TraceEvent(ts, "node", node, attrs={"label": label})


def fixture_graph(smoke: bool) -> DiGraph:
    return youtube_like(YT_SMOKE_SCALE if smoke else YT_SCALE, seed=FIXTURE_SEED)


def trace_seed(seed: int, workload: str) -> int:
    return random.Random(f"{workload}-{seed}").randrange(1 << 30)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def build_unit_single(seed: int, smoke: bool) -> Inputs:
    graph = fixture_graph(smoke)
    cats = random.Random(FIXTURE_SEED).sample(YOUTUBE_CATEGORIES, 4)
    pattern = Pattern.from_spec(
        {u: f"category = {c}" for u, c in enumerate(cats)},
        [(u, u2, b) for u, u2, b in SHAPES[0]],
    )
    tseed = trace_seed(seed, "unit-single")
    return Inputs(
        graph=graph,
        registrations=[Registration("q0", pattern, "bounded")],
        events=lambda: yt_events(graph, tseed, 1, 0.45, 0.45, ("category", "rate")),
        events_per_flush=1,
    )


def build_multi_bounded(seed: int, smoke: bool) -> Inputs:
    graph = fixture_graph(smoke)
    patterns = distinct_patterns(
        random.Random(FIXTURE_SEED),
        8 if smoke else 32,
        # Half the predicates are conjunctions: cheaper repair, more flushes.
        lambda r, i: bounded_pattern(r, SHAPES[i % len(SHAPES)], conj=0.5),
    )
    tseed = trace_seed(seed, "multi-bounded")
    return Inputs(
        graph=graph,
        registrations=[
            Registration(f"b{i}", p, "bounded") for i, p in enumerate(patterns)
        ],
        events=lambda: yt_events(
            graph, tseed, 5, 0.40, 0.40, ("category", "uploader", "rate")
        ),
        events_per_flush=5,
    )


def build_attr_sim(seed: int, smoke: bool) -> Inputs:
    graph = fixture_graph(smoke)
    patterns = distinct_patterns(
        random.Random(FIXTURE_SEED),
        8 if smoke else 32,
        lambda r, i: simulation_pattern(r, SIM_SHAPES[i % len(SIM_SHAPES)]),
    )
    regs: List[Registration] = []
    for i, p in enumerate(patterns):
        regs.append(Registration(f"s{i}", p, "simulation"))
        regs.append(Registration(f"s{i}p", p, "simulation", plan_scope="shared"))
    tseed = trace_seed(seed, "attr-sim")
    return Inputs(
        graph=graph,
        registrations=regs,
        events=lambda: yt_events(graph, tseed, 4, 0.25, 0.25, ("category", "uploader")),
        events_per_flush=4,
    )


def build_window_landmark(seed: int, smoke: bool) -> Inputs:
    partitions, size = (4, 30) if smoke else (16, 30)
    graph = community_graph(partitions, size, FIXTURE_SEED)
    regs: List[Registration] = []
    for i in range(partitions):
        a, _, c = community_labels(i)
        for k in (2, 3):
            regs.append(
                Registration(
                    f"w{i}k{k}",
                    Pattern.from_spec(
                        {"x": f"label = {a}", "z": f"label = {c}"}, [("x", "z", k)]
                    ),
                    "bounded",
                    distance_mode="landmark",
                )
            )
    tseed = trace_seed(seed, "window-landmark")
    return Inputs(
        graph=graph,
        registrations=regs,
        events=lambda: window_events(graph, partitions, size, tseed, 2, 0.95),
        events_per_flush=2,
        pool_kwargs={"window": WINDOW},
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("unit-single", build_unit_single, nominal_events_per_s=2500.0),
        Workload("multi-bounded", build_multi_bounded, nominal_events_per_s=250.0),
        Workload("attr-sim", build_attr_sim, nominal_events_per_s=390.0),
        Workload("window-landmark", build_window_landmark, nominal_events_per_s=105.0),
    )
}
