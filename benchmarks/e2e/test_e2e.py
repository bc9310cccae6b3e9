"""Tests of the end-to-end benchmark: metric names, determinism, the
replay loop's agreement with ``Replayer``, and a correctness gate that
can fail."""

from __future__ import annotations

import gc
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from repro import MatcherPool  # noqa: E402
from repro.engine.feeds import ChangeFeed  # noqa: E402
from repro.engine.query import ContinuousQuery  # noqa: E402
from repro.workloads.replay import Replayer, Trace, pool_fingerprint  # noqa: E402
from scenarios import FLUSH_EVERY, WORKLOADS  # noqa: E402

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


def bench(*args):
    """Run the benchmark CLI; return (exit code, last-line result, info)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
    return proc.returncode, json.loads(lines[-1]), info


def test_benchmark_json_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.layer_metric_units()
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_smoke_run_reports_every_metric_and_is_correct(workload):
    code, result, info = bench("--workload", workload, "--seed", "1", "--seconds", "0.3")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert info["error_rate"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_smoke_runs_repeat_their_counters(workload):
    args = ("--workload", workload, "--seconds", "0.5", "--trace", "1")
    code, first, info1 = bench(*args, "--seed", "1")
    assert code == 0 and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    _, second, info2 = bench(*args, "--seed", "1")
    assert info1["counters"] == info2["counters"]
    assert info1["trace_digest"] == info2["trace_digest"]
    counts = [n for n, u in run.layer_metric_units().items() if u == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    _, _, other = bench(*args, "--seed", "2")
    assert other["trace_digest"] != info1["trace_digest"]


@pytest.mark.parametrize("workload", NAMES)
def test_replay_loop_ends_where_replayer_does(workload):
    inputs = WORKLOADS[workload].build(3, True)
    pool, feeds, _, _ = run.build_pool(inputs)
    replay = run.Replay(pool, feeds, inputs.events(), run.HostSpeed())
    while replay.flushes < 30:
        assert replay.step()
    stream = inputs.events()
    events = [next(stream) for _ in range(replay.events)]
    replayer = Replayer(
        Trace(events), lambda: run.build_pool(inputs)[0], FLUSH_EVERY
    )
    assert pool_fingerprint(replayer.run()) == pool_fingerprint(pool)
    assert replayer.checkpoints[-1].seq == pool.stats.flushes


def run_in_process(capsys):
    # A traced smoke run of unit-single replays a fixed 500 events, one
    # per flush, and checks the untraced twin after its last flush.
    code = run.main(
        ["--child", "--workload", "unit-single", "--seed", "1", "--seconds", "0.5",
         "--trace", "1", "--smoke"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
    return code, json.loads(lines[-1]), info


def test_gate_passes_unpatched(capsys):
    code, result, info = run_in_process(capsys)
    assert code == 0 and result["correct"] and info["error_rate"] == 0


def test_gate_catches_a_dropped_delta(capsys, monkeypatch):
    publish = ChangeFeed.publish
    dropped = []

    def drop_one_late_change(self, delta):
        # Late, so no later event can flip the same pairs back before
        # the check and hide the loss.
        if delta and delta.seq >= 450 and not dropped:
            dropped.append(delta)
            return
        publish(self, delta)

    monkeypatch.setattr(ChangeFeed, "publish", drop_one_late_change)
    code, result, info = run_in_process(capsys)
    assert dropped
    assert code != 0 and not result["correct"]
    assert result["failed"] > 0 and info["error_rate"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_raising_flush_is_reported_not_crashed_on(capsys, monkeypatch, tmp_path, trace):
    def broken(self):
        raise RuntimeError("flush broke")

    monkeypatch.setattr(MatcherPool, "flush", broken)
    doc = tmp_path / "run.json"
    code = run.main(
        ["--child", "--workload", "unit-single", "--seed", "1", "--seconds", "0.5",
         "--trace", trace, "--smoke", "--json", str(doc)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert json.loads(doc.read_text())["info"]["error_rate"] == 1.0


def test_host_kernel_never_collects_garbage():
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    host = run.HostSpeed()
    threshold = gc.get_threshold()
    # At threshold 1 every allocation the kernel makes would start a
    # collection, as it may when the engine leaves young objects behind.
    gc.set_threshold(1)
    gc.callbacks.append(count)
    try:
        for _ in range(5):
            host.kernel_ns()
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert collections == [] and gc.isenabled()


def test_host_factor_holds_when_the_engine_heap_grows():
    host = run.HostSpeed()

    def best():
        return min(host.kernel_ns() for _ in range(15))

    small = best()
    heap = [{"i": i, "s": (i, str(i))} for i in range(100_000)]
    big = best()
    del heap
    # Minimum of 15 timings on each side, so a shared host's noise stays
    # well inside the tolerance.
    assert 0.85 < big / small < 1.15


def test_gate_catches_a_corrupted_result(capsys, monkeypatch):
    matches = ContinuousQuery.matches

    def corrupted(self):
        relation = {u: set(vs) for u, vs in matches(self).items()}
        if self.name == "q0":
            relation[next(iter(relation))].add("no-such-node")
        return relation

    monkeypatch.setattr(ContinuousQuery, "matches", corrupted)
    code, result, info = run_in_process(capsys)
    assert code != 0 and not result["correct"]
    assert result["failed"] > 0 and info["error_rate"] > 0
