"""Metamorphic suite: window expiry ≡ explicit deletions in one flush.

The metamorphic relation the temporal pool must satisfy: letting a
sliding window expire a set of edges is *observationally identical* to
issuing those same edges as explicit deletions in the same flush of a
window-less twin — same final graph, same per-query match sets, same
published change feeds, and the same live shared structures.  Any
divergence means expiry took a different code path than user deletions
(e.g. skipping a repair phase), which is exactly the bug class the
relation exists to catch.

Each sequence drives a windowed pool and a window-less twin through one
seeded op stream.  The twin mirrors expiry by reading the windowed
pool's ``live_edge_stamps()`` before each flush and queueing an explicit
delete for every stamp past the advanced clock — queued *before* the
user ops, matching the windowed flush's prepend ordering so a same-flush
re-insert of an expired edge coalesces identically on both sides.
Dead-on-arrival stamps (user inserts backdated past the window) are
mirrored as deletes *after* the user ops, again matching the windowed
ordering.

After every flush the suite asserts graph equality, match equality
against a from-scratch batch recomputation, change-feed equality
(per-query added/removed deltas), shared-structure invariants on both
pools, and the temporal invariants on the windowed side.
Pure-expiry flushes (clock advance, no user ops) additionally assert a
**zero rebuild delta** via ``rebuild_counters()`` — bulk expiry must
ride the decremental repair paths of every substrate, never a
full-structure rebuild.

The sweep covers all three distance modes, seeded from a pinned base so
failures name the exact replay seed.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match
from repro.matching.relation import as_pairs, totalize
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Atom, Predicate

MODES = ["bfs", "landmark"]
SEQUENCES = int(os.environ.get("WINDOW_METAMORPHIC_SEQUENCES", "25"))
BASE_SEED = 0x71E0
FLUSHES = 5
WINDOW = 4.0
LABELS = ["A", "B", "C"]


def _random_graph(rng: random.Random) -> DiGraph:
    n = rng.randint(3, 6)
    g = DiGraph()
    for v in range(n):
        g.add_node(v, label=rng.choice(LABELS))
    for _ in range(rng.randint(1, 2 * n)):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


def _random_pattern(rng: random.Random) -> Pattern:
    n = rng.randint(1, 3)
    p = Pattern()
    for u in range(n):
        if rng.random() < 0.3:
            p.add_node(u, Predicate.true())
        else:
            p.add_node(u, Predicate([Atom("label", "=", rng.choice(LABELS))]))
    for u in range(n):
        for w in range(n):
            if u != w and rng.random() < 0.4:
                p.add_edge(u, w, rng.choice([1, 2, 3, None]))
    return p


def _delta_key(delta) -> tuple:
    return (
        frozenset(delta.added),
        frozenset(delta.removed),
        frozenset(map(frozenset, (e.items() for e in delta.added_embeddings)))
        if delta.added_embeddings else frozenset(),
    )


class _MetamorphicHarness:
    """One windowed pool + one explicit-deletion twin, one op stream."""

    def __init__(self, seed: int, mode: str) -> None:
        self.rng = random.Random(seed)
        self.mode = mode
        base = _random_graph(self.rng)
        self.windowed = MatcherPool(base.copy(), window=WINDOW)
        self.twin = MatcherPool(base.copy())
        self.t = 0.0
        self.patterns = {}
        for i in range(self.rng.randint(1, 2)):
            name = f"q{i}"
            pattern = _random_pattern(self.rng)
            for pool in (self.windowed, self.twin):
                pool.register(
                    pattern, semantics="bounded", name=name,
                    distance_mode=mode,
                )
            self.patterns[name] = pattern

    def _advance(self) -> None:
        self.t += self.rng.uniform(0.5, 4.0)
        self.windowed.advance(self.t)

    def _mirror_expiry(self) -> int:
        """Queue the twin's explicit deletes for everything the windowed
        pool will expire at the coming flush (prepend ordering)."""
        doomed = [
            e for e, (_birth, expire_at)
            in self.windowed.live_edge_stamps().items()
            if expire_at <= self.t
        ]
        for e in doomed:
            self.twin.queue(delete(*e))
        return len(doomed)

    def step(self, pure_expiry: bool = False) -> None:
        rng = self.rng
        self._advance()
        expected_expired = self._mirror_expiry()
        doa: list = []
        if not pure_expiry:
            nodes = sorted(self.windowed.graph.nodes(), key=repr)
            edges = sorted(self.windowed.graph.edges(), key=repr)
            pending: dict = {}
            for _ in range(rng.randint(0, 5)):
                roll = rng.random()
                if roll < 0.25 and edges:
                    e = rng.choice(edges)
                    self.windowed.queue(delete(*e))
                    self.twin.queue(delete(*e))
                elif roll < 0.70 and nodes:
                    v, w = rng.choice(nodes), rng.choice(nodes)
                    if rng.random() < 0.2:
                        # Backdated birth; sometimes dead on arrival.
                        ts = self.t - rng.uniform(0.0, 1.5 * WINDOW)
                        self.windowed.queue(insert(v, w), ts=ts)
                        pending[(v, w)] = ts
                    else:
                        self.windowed.queue(insert(v, w))
                        pending[(v, w)] = self.t
                    self.twin.queue(insert(v, w))
                elif roll < 0.85 and nodes:
                    v = rng.choice(nodes)
                    attrs = {"label": rng.choice(LABELS)}
                    self.windowed.queue_node(v, **attrs)
                    self.twin.queue_node(v, **attrs)
                else:
                    # Deliberate expire→re-insert collision: the pair must
                    # net to zero graph work on both sides.
                    stamps = self.windowed.live_edge_stamps()
                    doomed = [
                        e for e, (_b, x) in stamps.items() if x <= self.t
                    ]
                    if doomed:
                        v, w = rng.choice(sorted(doomed, key=repr))
                        self.windowed.queue(insert(v, w), ts=self.t)
                        pending[(v, w)] = self.t
                        self.twin.queue(insert(v, w))
            # Mirror dead-on-arrival stamps: the windowed flush appends
            # their deletes after the user ops (last write wins).
            doa = [
                e for e, ts in pending.items() if ts + WINDOW <= self.t
            ]
            for e in doa:
                self.twin.queue(delete(*e))
        before = self.windowed.rebuild_counters()["total"]
        report_w = self.windowed.flush()
        report_t = self.twin.flush()
        if pure_expiry:
            assert self.windowed.rebuild_counters()["total"] == before, (
                "bulk expiry triggered a full-structure rebuild"
            )
            assert report_w.expired == expected_expired
        self._check(report_w, report_t)

    def _check(self, report_w, report_t) -> None:
        assert self.windowed.graph == self.twin.graph, (
            "graph divergence: expiry != explicit deletions"
        )
        deltas_w = {
            name: _delta_key(d) for name, d in report_w.deltas.items()
            if d.added or d.removed or d.added_embeddings
            or d.removed_embeddings
        }
        deltas_t = {
            name: _delta_key(d) for name, d in report_t.deltas.items()
            if d.added or d.removed or d.added_embeddings
            or d.removed_embeddings
        }
        assert deltas_w == deltas_t, "change-feed divergence"
        for name, pattern in sorted(self.patterns.items()):
            truth = as_pairs(
                totalize(bounded_match(pattern, self.windowed.graph))
            )
            for pool, tag in ((self.windowed, "windowed"),
                              (self.twin, "twin")):
                got = as_pairs(pool.query(name).matches())
                assert got == truth, (
                    f"{tag} match mismatch for {name}: "
                    f"extra={got - truth} missing={truth - got}"
                )
        for pool in (self.windowed, self.twin):
            pool.eligibility.check_invariants()
        self.windowed.check_temporal_invariants()


def _run_sequence(seed: int, mode: str) -> None:
    harness = _MetamorphicHarness(seed, mode)
    for step in range(FLUSHES):
        # Every third flush is pure expiry: clock advance only, so the
        # zero-rebuild assertion isolates the expiry path.
        harness.step(pure_expiry=(step % 3 == 2))


@pytest.mark.parametrize("mode", MODES)
def test_window_metamorphic(mode):
    for i in range(SEQUENCES):
        seed = BASE_SEED * 1_000 + i
        try:
            _run_sequence(seed, mode)
        except AssertionError as exc:
            raise AssertionError(
                f"window metamorphic failure: mode={mode!r} "
                f"seed={seed} — replay with _run_sequence({seed}, {mode!r})"
            ) from exc
