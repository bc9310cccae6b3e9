#!/usr/bin/env python3
"""End-to-end trace-replay benchmark of :class:`repro.MatcherPool`.

One caller replays a seeded, timestamped trace through a pool with a
change feed subscribed to every query, in a closed loop: events are
bucketed by ``floor(ts / FLUSH_EVERY)`` (``Replayer``'s rule), each bucket
is queued, flushed, and every feed drained, and only then is the next
bucket queued.  ``Replayer.run`` itself is not used because it hashes the
whole pool after every flush, which would dominate the timing.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload unit-single --seed 1
    python3 benchmarks/e2e/run.py --seed 1                # every workload
    python3 benchmarks/e2e/run.py --workload attr-sim --seed 1 --trace 1 \\
        --spans spans.jsonl                                # per-layer run

Each workload runs in its own single-threaded child process with a fixed
``PYTHONHASHSEED`` (so counters repeat exactly) and with
``REPRO_GRAPH_BACKEND``/``REPRO_KERNELS`` unset (so the defaults are
measured).  Every run replays a fixed number of events, ``--seconds`` at
the workload's nominal rate.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` replays 40% of that count twice, untraced and
then traced, and reports the per-layer metrics.  Results are checked
against from-scratch recomputation at three checkpoints outside the
timed region; any mismatch, or a flush that raises, makes the exit code
1.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import (  # noqa: E402
    MatcherPool,
    bounded_match,
    delete,
    insert,
    maximum_simulation,
    totalize,
)
from repro.graphs.kernels import kernel_mode  # noqa: E402
from repro.matching.relation import as_pairs  # noqa: E402
from scenarios import FLUSH_EVERY, WORKLOADS  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# name -> unit; BENCHMARK.json lists the same names (a test pins it).
E2E_METRICS = {
    "events_per_s": "events/s",
    "flush_p50_ms": "ms",
    "flush_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_BUILDS = 3
CHECKPOINTS = 3


def layer_metric_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.calls"] = "count"
    units.update(
        {
            "pool.intake_ms": "ms",
            "coalesce.net_ratio": "fraction",
            "router.routed_pairs": "count",
            "router.skipped_pairs": "count",
            "router.skip_ratio": "fraction",
            "eligibility.atom_evals": "count",
            "distances.structure_batches": "count",
            "distances.rebuilds": "count",
            "repair.yield": "fraction",
            "plan.view_repairs": "count",
            "plan.join_repairs": "count",
            "feeds.deltas": "count",
            "trace.overhead": "fraction",
        }
    )
    return units


# ----------------------------------------------------------------------
# Pool construction and the replay loop
# ----------------------------------------------------------------------
def build_pool(inputs, host: Optional[HostSpeed] = None):
    """A fresh pool with every query registered and one feed per query.
    Returns ``(pool, feeds, wall seconds, reference-host seconds)``.  The
    construction and each registration are timed on their own, and with
    a ``host`` each is converted by the host factor measured around it;
    the graph copy is untimed."""
    graph = inputs.graph.copy()
    wall = ref = 0.0

    def timed(fn, *args):
        nonlocal wall, ref
        start = time.perf_counter()
        out = fn(*args)
        took = time.perf_counter() - start
        wall += took
        ref += took * (host.factor() if host is not None else 1.0)
        return out

    def register(r):
        q = pool.register(
            r.pattern,
            semantics=r.semantics,
            name=r.name,
            distance_mode=r.distance_mode,
            plan_scope=r.plan_scope,
        )
        return r.name, q.subscribe()

    if host is not None:
        host.factor()
    pool = timed(lambda: MatcherPool(graph, **inputs.pool_kwargs))
    feeds = [timed(register, r) for r in inputs.registrations]
    return pool, feeds, wall, ref


def pool_counters(pool) -> Dict[str, int]:
    """Cumulative work counters from the pool's public stats objects."""
    s = pool.stats
    return {
        "flushes": s.flushes,
        "edge_updates_queued": s.edge_updates_queued,
        "net_edge_updates": s.net_edge_updates,
        "routed_pairs": s.routed_pairs,
        "skipped_pairs": s.skipped_pairs,
        "view_repairs": s.view_repairs,
        "join_repairs": s.join_repairs,
        "expired_edges": s.expired_edges,
        "atom_evals": pool.eligibility.stats.atom_evals,
        "flips": pool.eligibility.stats.flips,
        "structure_batches": pool.substrate.stats.structure_batches,
        "rebuilds": pool.rebuild_counters()["total"],
    }


class HostSpeed:
    """Converts wall time on a shared host into reference-host time.

    Other tenants change a shared host's speed by tens of percent for
    seconds to minutes at a time, and no statistic taken inside one run
    removes a slowdown that lasts the whole run.  So a fixed kernel that
    allocates and drops small dicts, tuples, strings and sets is timed
    between short replay windows, and each window's wall time is scaled
    by ``REF_NS / kernel time`` (the mean of the kernels at its two
    ends).  The kernel runs no engine code and runs with the garbage
    collector off, so the objects the engine leaves on the heap cannot
    make it collect (tests check that it starts no collection and that
    its time holds when the heap grows).  Given one directory of runs,
    ``compare.py`` fits log wall throughput against log host factor;
    ``results/`` holds the runs behind the README's figures.
    """

    # Kernel time on the 2-vCPU Xeon VM of results/ near its best speed.
    REF_NS = 520_000
    ROUNDS = 100

    def __init__(self) -> None:
        self._last = self.kernel_ns()

    def kernel_ns(self) -> int:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            keep = []
            for i in range(self.ROUNDS):
                d = {j: (j, str(j)) for j in range(i % 20, i % 20 + 20)}
                keep.append((d, frozenset(x for x in set(d) if x & 1)))
                if len(keep) > 50:
                    keep.clear()
            return time.perf_counter_ns() - start
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Reference time per wall time since the previous call."""
        now = self.kernel_ns()
        factor = 2 * self.REF_NS / (self._last + now)
        self._last = now
        return factor


class Replay:
    """Closed-loop replay of one event stream through one pool.

    Only the intake, ``flush()`` and feed drains of each bucket are timed;
    drawing the next bucket from the generator and folding the drained
    deltas onto the caller's copy of each query's matches happen between
    timed regions.  Every ``WINDOW_NS`` of timed replay, the window's times
    are converted to reference-host time (:class:`HostSpeed`); the raw
    wall times are kept too.
    """

    WINDOW_NS = 10_000_000

    def __init__(self, pool, feeds, events, host, tracer=None) -> None:
        self.pool = pool
        self.feeds = feeds
        self.host = host
        self.tracer = tracer
        self.folded = {q.name: set(as_pairs(q.matches())) for q in pool.queries()}
        self._events = iter(events)
        self._next = next(self._events)
        self.digest = hashlib.sha256()
        self.events = 0
        self.flushes = 0
        self.busy_ns = 0  # wall
        self.ref_ns = 0.0  # reference-host
        self.latencies_ns: List[int] = []
        self.ref_latencies_ns: List[float] = []
        self._window_ns = 0
        self._window_start = 0
        self.deltas = 0
        self.nonempty_deltas = 0
        self.failed_events = 0
        self.error: Optional[str] = None

    def _bucket(self, ts: float) -> int:
        return int(ts // FLUSH_EVERY)

    def step(self) -> bool:
        """Replay one bucket; False once a flush has raised."""
        if self.error is not None:
            return False
        bucket = self._bucket(self._next.ts)
        batch = []
        while self._bucket(self._next.ts) == bucket:
            batch.append(self._next)
            self._next = next(self._events)
        for ev in batch:
            self.digest.update(repr(tuple(ev)).encode())
        if self.tracer is not None:
            self.tracer.flush_seq = self.flushes
        pool = self.pool
        clock = time.perf_counter_ns
        start = clock()
        try:
            for ev in batch:
                if ev.ts > pool.now:
                    pool.advance(ev.ts)
                if ev.op == "insert":
                    pool.queue(insert(ev.v, ev.w), ts=ev.ts)
                elif ev.op == "delete":
                    pool.queue(delete(ev.v, ev.w))
                else:
                    pool.queue_node(ev.v, **ev.attrs)
            flushed = clock()
            report = pool.flush()
            drained = [(name, feed.drain()) for name, feed in self.feeds]
        except Exception:  # a failing flush is a measured outcome
            self.error = traceback.format_exc()
            self.failed_events += len(batch)
            return False
        end = clock()
        self.busy_ns += end - start
        self._window_ns += end - start
        self.latencies_ns.append(end - flushed)
        if self._window_ns >= self.WINDOW_NS:
            self.close_window()
        self.events += len(batch)
        self.flushes += 1
        self.deltas += len(report.deltas)
        self.nonempty_deltas += sum(1 for d in report.deltas.values() if d)
        for name, deltas in drained:
            pairs = self.folded[name]
            for d in deltas:
                pairs -= d.removed
                pairs |= d.added
        return True

    def close_window(self) -> None:
        """Convert the open window's times to reference-host time."""
        if self._window_start == len(self.latencies_ns):
            return
        factor = self.host.factor()
        self.ref_ns += self._window_ns * factor
        self.ref_latencies_ns.extend(
            ns * factor for ns in self.latencies_ns[self._window_start:]
        )
        self._window_ns = 0
        self._window_start = len(self.latencies_ns)


def check(pool, folded) -> Tuple[int, List[str]]:
    """Compare every user query with from-scratch recomputation on a copy
    of the graph, and with the caller's fold of its drained deltas.
    Returns ``(checks made, mismatch descriptions)``."""
    graph = pool.graph.copy()
    problems: List[str] = []
    checks = 0
    for q in pool.queries():
        checks += 1
        if q.semantics == "bounded":
            want = as_pairs(totalize(bounded_match(q.pattern, graph)))
        else:
            want = as_pairs(totalize(maximum_simulation(q.pattern, graph)))
        got = as_pairs(q.matches())
        if got != want:
            problems.append(f"{q.name}: {len(got ^ want)} pairs differ from recompute")
        elif folded[q.name] != got:
            problems.append(f"{q.name}: folded deltas differ by {len(folded[q.name] ^ got)} pairs")
    if pool.temporal:
        checks += 1
        try:
            pool.check_temporal_invariants()
        except AssertionError as exc:
            problems.append(f"temporal invariants: {exc}")
    return checks, problems


class Outcome:
    """Correctness bookkeeping for one run: attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def replayed(self, replay: Replay) -> None:
        self.attempted += replay.events + replay.failed_events
        self.failed += replay.failed_events
        if replay.error is not None:
            self.problems.append(f"flush raised:\n{replay.error}")

    def checked(self, replay: Replay) -> None:
        checks, problems = check(replay.pool, replay.folded)
        self.attempted += checks
        self.failed += len(problems)
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def replay_checked(
    replay: Replay, outcome: Outcome, total: int, checkpoints=CHECKPOINTS, tracer=None
) -> None:
    """Replay ``total`` events, checking the results at ``checkpoints``
    evenly spaced points; stop at a flush that raises.  The tracer (if
    any) is active only while buckets replay, so the checks run on the
    unwrapped engine."""
    for k in range(1, checkpoints + 1):
        target = total * k / checkpoints
        with tracer if tracer is not None else contextlib.nullcontext():
            while replay.events < target and replay.step():
                pass
        if replay.error is not None:
            break
        replay.close_window()
        outcome.checked(replay)
    outcome.replayed(replay)


def completed(replay: Replay) -> bool:
    """True when no flush raised and there are latencies to summarize."""
    return replay.error is None and len(replay.latencies_ns) >= 2


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_events(workload, inputs, seconds: float, share: float = 1.0) -> int:
    """A run's fixed event count: ``share`` of ``seconds`` at the
    workload's nominal rate, in whole buckets, at least 20 flushes.  A
    count rather than a duration, so that two commits replay the same
    events and a faster commit does not grow its heap further."""
    epf = inputs.events_per_flush
    flushes = max(20, int(workload.nominal_events_per_s * seconds * share) // epf)
    return flushes * epf


def replay_info(replay: Replay) -> Dict[str, object]:
    return {
        "events": replay.events,
        "flushes": replay.flushes,
        "trace_digest": replay.digest.hexdigest(),
        "backend": replay.pool.graph_backend,
    }


def run_untraced(workload, inputs, seconds: float):
    host = HostSpeed()
    setups, ref_setups = [], []
    pool = feeds = None
    for _ in range(SETUP_BUILDS):
        pool = feeds = None
        gc.collect()
        pool, feeds, wall, ref = build_pool(inputs, host)
        setups.append(wall)
        ref_setups.append(ref)
    replay = Replay(pool, feeds, inputs.events(), host)
    gc.collect()
    outcome = Outcome()
    replay_checked(replay, outcome, run_events(workload, inputs, seconds))
    info = replay_info(replay)
    if not completed(replay):
        return {}, E2E_METRICS, outcome, info, None
    lat_ms = [ns / 1e6 for ns in replay.ref_latencies_ns]
    raw_ms = [ns / 1e6 for ns in replay.latencies_ns]
    p95 = quantile(lat_ms, 95)
    metrics = {
        "events_per_s": replay.events / (replay.ref_ns / 1e9),
        "flush_p50_ms": statistics.median(lat_ms),
        "flush_p95_ms": p95,
        "setup_s": statistics.median(ref_setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    info.update(
        {
            "flushes_beyond_p95": sum(1 for x in lat_ms if x > p95),
            "replay_wall_s": replay.busy_ns / 1e9,
            "host_factor": replay.ref_ns / replay.busy_ns,
            "wall": {
                "events_per_s": replay.events / (replay.busy_ns / 1e9),
                "flush_p50_ms": statistics.median(raw_ms),
                "flush_p95_ms": quantile(raw_ms, 95),
                "setup_s": statistics.median(setups),
            },
            "counters": pool_counters(pool),
        }
    )
    return metrics, E2E_METRICS, outcome, info, None


def run_traced(workload, inputs, seconds: float):
    # About 40% of the untraced count: the run replays it twice.
    events = run_events(workload, inputs, seconds, share=0.4)
    outcome = Outcome()
    host = HostSpeed()
    pool, feeds, _, _ = build_pool(inputs)
    twin = Replay(pool, feeds, inputs.events(), host)
    gc.collect()
    # The twin replays the same stream as the traced run, which is
    # checked at every checkpoint; its own final state is checked once.
    replay_checked(twin, outcome, events, checkpoints=1)
    if not completed(twin):
        return {}, layer_metric_units(), outcome, replay_info(twin), None
    untraced_eps = twin.events / (twin.ref_ns / 1e9)
    twin = pool = feeds = None
    gc.collect()

    pool, feeds, _, _ = build_pool(inputs)
    before = pool_counters(pool)
    tracer = Tracer()
    replay = Replay(pool, feeds, inputs.events(), host, tracer)
    gc.collect()
    replay_checked(replay, outcome, events, tracer=tracer)
    if not completed(replay):
        return {}, layer_metric_units(), outcome, replay_info(replay), tracer
    after = pool_counters(pool)
    delta = {k: after[k] - before[k] for k in after}

    wall_ns = replay.busy_ns
    totals = tracer.layer_totals()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        self_ns, calls = totals.get(layer, (0, 0))
        metrics[f"{layer}.self_ms"] = self_ns / 1e6
        metrics[f"{layer}.share"] = self_ns / wall_ns
        metrics[f"{layer}.calls"] = calls
    routed, skipped = delta["routed_pairs"], delta["skipped_pairs"]
    metrics.update(
        {
            "pool.intake_ms": totals.get("intake", (0, 0))[0] / 1e6,
            "coalesce.net_ratio": delta["net_edge_updates"]
            / max(1, delta["edge_updates_queued"]),
            "router.routed_pairs": routed,
            "router.skipped_pairs": skipped,
            "router.skip_ratio": skipped / max(1, routed + skipped),
            "eligibility.atom_evals": delta["atom_evals"],
            "distances.structure_batches": delta["structure_batches"],
            "distances.rebuilds": delta["rebuilds"],
            "repair.yield": replay.nonempty_deltas / max(1, replay.deltas),
            "plan.view_repairs": delta["view_repairs"],
            "plan.join_repairs": delta["join_repairs"],
            "feeds.deltas": replay.deltas,
            "trace.overhead": 1.0
            - (replay.events / (replay.ref_ns / 1e9)) / untraced_eps,
        }
    )
    info = replay_info(replay)
    info.update(
        {
            "events_per_flush": replay.events / max(1, replay.flushes),
            "expired_edges": delta["expired_edges"],
            "eligibility_flips": delta["flips"],
            "nonempty_deltas": replay.nonempty_deltas,
            "untraced_events_per_s": untraced_eps,
            "traced_events_per_s": replay.events / (replay.ref_ns / 1e9),
            "spans": len(tracer.spans),
            "counters": delta,
        }
    )
    return metrics, layer_metric_units(), outcome, info, tracer


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="sizes the fixed event count of a run: this many "
                         "seconds at the workload's nominal rate")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer run (spans around each layer)")
    ap.add_argument("--json", default=None,
                    help="also write the full run document to this file")
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, write every span as JSONL here")
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for tests")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def source_digest() -> str:
    """A digest of the engine sources, standing in for a commit id."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_main(args) -> int:
    """Run one workload in this process; return the exit code."""
    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.smoke)
    run = run_traced if args.trace else run_untraced
    metrics, units, outcome, info, tracer = run(workload, inputs, args.seconds)
    # A run whose flush raised reports no metrics, only the failure.
    units = {name: unit for name, unit in units.items() if name in metrics}
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    info.update(
        {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "error_rate": outcome.failed / max(1, outcome.attempted),
            "kernels": kernel_mode(),
            "python": platform.python_version(),
            "source": source_digest(),
        }
    )
    for problem in outcome.problems:
        print(f"MISMATCH {workload.name}: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    if args.json:
        Path(args.json).write_text(
            json.dumps({"info": info, "result": result}, indent=1) + "\n"
        )
    for name, unit in units.items():
        print(f"{workload.name:>16} {name:<28} {metrics[name]:>14.4f} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_GRAPH_BACKEND", "REPRO_KERNELS"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def main(argv=None) -> int:
    """Run each selected workload in its own child process, one at a time."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child_main(args)
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        for flag, path in (("--json", args.json), ("--spans", args.spans)):
            if path:
                if len(names) > 1:
                    p = Path(path)
                    path = str(p.with_name(f"{p.stem}.{name}{p.suffix}"))
                cmd += [flag, path]
        try:
            proc = subprocess.run(
                cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                timeout=120 + 2 * args.seconds,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out", file=sys.stderr)
            return 1
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
