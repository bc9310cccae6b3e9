"""Smoke tests: every figure driver runs at tiny scale and yields the
columns its paper figure plots; ``benchmarks/bench_pool.py`` runs, and
each of its gates can fail."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.figures import FIGURES

ROOT = Path(__file__).resolve().parents[2]


def _bench_pool():
    """A fresh import of ``benchmarks/bench_pool.py``."""
    spec = importlib.util.spec_from_file_location(
        "bench_pool", ROOT / "benchmarks" / "bench_pool.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


TINY = 0.008

EXPECTED_COLUMNS = {
    "fig16b": {"pattern", "vf2_s", "match_k1_s", "match_k3_s"},
    "fig16c": {"pattern", "vf2_matches", "match_k1_matches", "match_k3_matches"},
    "fig17a": {"pattern", "matrix_s", "twohop_s", "bfs_s"},
    "fig17b": {"pattern", "matrix_s", "twohop_s", "bfs_s"},
    "fig17c": {"pattern_size", "k", "bfs_match_s"},
    "fig17d": {"num_nodes", "p1_s", "p2_s"},
    "fig18a": {
        "update_fraction",
        "num_updates",
        "batch_s",
        "incmatch_s",
        "incmatch_naive_s",
        "hornsat_s",
    },
    "fig19a": {
        "update_fraction",
        "num_updates",
        "batch_bs_s",
        "incbmatch_s",
        "incbmatch_m_s",
    },
    "fig20a": {
        "alpha",
        "original_updates",
        "reduced_updates",
        "reduction_pct",
    },
    "fig20b": {
        "inserted_edges",
        "inslm_entries",
        "inslm_landmarks",
        "batchlm_entries",
        "batchlm_landmarks",
    },
    "fig20c": {
        "num_updates",
        "inslm_s",
        "batchlm_plus_s",
        "dellm_s",
        "batchlm_minus_s",
    },
    "fig20d": {"num_updates", "inclm_s", "batchlm_s"},
    "fig20e": {"k", "inclm_s"},
    "fig20f": {"num_updates", "inclm_s", "ins_del_lm_s"},
}


def test_all_twenty_figures_registered():
    assert len(FIGURES) == 20
    for fig in ("16b", "16c", "17a", "17b", "17c", "17d",
                "18a", "18b", "18c", "18d",
                "19a", "19b", "19c", "19d",
                "20a", "20b", "20c", "20d", "20e", "20f"):
        assert f"fig{fig}" in FIGURES


@pytest.mark.parametrize("name", sorted(EXPECTED_COLUMNS))
def test_driver_produces_expected_columns(name):
    rows = FIGURES[name](TINY)
    assert rows, f"{name} returned no rows"
    assert set(rows[0]) == EXPECTED_COLUMNS[name]


@pytest.mark.parametrize(
    "name", ["fig18b", "fig18c", "fig18d", "fig19b", "fig19c", "fig19d"]
)
def test_sibling_figures_share_columns(name):
    rows = FIGURES[name](TINY)
    assert rows
    base = "fig18a" if name.startswith("fig18") else "fig19a"
    assert set(rows[0]) == EXPECTED_COLUMNS[base]


def test_fig20a_reduction_is_real():
    rows = FIGURES["fig20a"](TINY)
    assert all(r["reduced_updates"] <= r["original_updates"] for r in rows)


def test_fig16c_bounded_finds_at_least_simulation():
    rows = FIGURES["fig16c"](TINY)
    assert all(r["match_k3_matches"] >= 0 for r in rows)


def test_cli_list_and_single_figure(capsys):
    from repro.bench.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig18a" in out
    assert main(["--figure", "fig20a", "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out
    assert main(["--figure", "nope"]) == 2


def test_bench_pool_tiny_emits_machine_readable_json(tmp_path):
    """CI uploads BENCH_pool.json; pin its shape and the routing headline
    (non-owning bounded queries decline the partitioned stream, so the
    routed count must not grow with pool size)."""
    import subprocess
    import sys

    script = ROOT / "benchmarks" / "bench_pool.py"
    out = tmp_path / "BENCH_pool.json"
    proc = subprocess.run(
        [
            sys.executable, str(script), "--tiny",
            "--updates", "8", "--cluster-size", "6", "--reps", "1",
            "--json", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc["scenarios"]) == {
        "simulation", "bounded", "bounded-shared", "overlap",
        "overlap-atoms", "shared-plan", "temporal", "bounded-far",
    }
    for name in ("simulation", "bounded"):
        scenario = doc["scenarios"][name]
        assert scenario["results"]
        for row in scenario["results"]:
            assert {"n", "pool_ms", "naive_ms", "routed", "skipped"} <= set(row)
        routed = [r["routed"] for r in scenario["results"]]
        assert len(set(routed)) == 1, (name, routed)
    assert doc["scenarios"]["simulation"]["routed_flat"] is True
    # Distance routing evaluates only the pattern edges whose source
    # predicate an edge's backward leg meets: flat and non-zero in N.
    for name, mode in (("bounded", "bfs"), ("bounded-shared", "landmark")):
        scenario = doc["scenarios"][name]
        assert scenario["distance_mode"] == mode
        assert scenario["distance_checks_flat"] is True
        for row in scenario["results"]:
            assert {"distance_checks", "leg_nodes"} <= set(row)
        checks = [r["distance_checks"] for r in scenario["results"]]
        assert len(set(checks)) == 1 and checks[0] > 0, (name, checks)
    # The distance substrate's headline: one landmark index serves every
    # query, so structure-level upkeep per flush is flat in N.
    shared = doc["scenarios"]["bounded-shared"]
    assert shared["results"]
    for row in shared["results"]:
        assert {"n", "pool_ms", "naive_ms", "upkeep"} <= set(row)
    upkeep = [r["upkeep"] for r in shared["results"]]
    assert len(set(upkeep)) == 1 and upkeep[0] > 0, upkeep
    assert shared["upkeep_flat"] is True
    # The eligibility substrate's headline: per-flush atom evaluations
    # are non-zero and EXACTLY flat in N once the predicate vocabulary is
    # interned (hard-gated by both scenarios — exit code 0 above — so
    # here we pin the JSON shape and the verdict).  In ``overlap`` the
    # copies of a pattern read one interned index, so routed pairs are
    # gated the same way.
    for name, gates in (
        ("overlap", ("atom_evals", "routed")),
        ("overlap-atoms", ("atom_evals",)),
    ):
        overlap = doc["scenarios"][name]
        assert overlap["results"]
        for row in overlap["results"]:
            assert {
                "n", "pool_ms", "naive_ms", "atom_evals", "routed",
            } <= set(row)
        for key in gates:
            assert overlap[f"{key}_flat"] is True
            gated = [
                r[key] for r in overlap["results"]
                if r["n"] >= overlap["flat_from"]
            ]
            assert len(set(gated)) == 1 and gated[0] > 0, (name, gated)
    assert "routed_flat" not in doc["scenarios"]["overlap-atoms"]
    # The multi-query plan's headline: per-flush join repairs are
    # non-zero and EXACTLY flat in query count once every pattern shape
    # is interned (hard-gated by the scenario — exit code 0 above); the
    # N=16 race against the naive loop only fires at full scale, so at
    # tiny scale it must be reported ungated (None), never a
    # fired-and-failed False.
    plan = doc["scenarios"]["shared-plan"]
    assert plan["results"]
    for row in plan["results"]:
        assert {
            "n", "plan_shared_ms", "plan_naive_ms",
            "join_repairs", "plan_joins",
        } <= set(row)
    assert plan["join_repairs_flat"] is True
    assert plan["shared_wins"] is not False
    k = plan["leg_vocabularies"]
    plan_repairs = [
        r["join_repairs"] for r in plan["results"] if r["n"] >= k
    ]
    assert len(set(plan_repairs)) == 1 and plan_repairs[0] > 0, plan_repairs
    # The temporal pool's headline: retiring a whole window of expired
    # edges in one coalesced deletion batch beats deleting them one
    # flush at a time, windowed steady-state upkeep is EXACTLY flat in
    # standing-query count over the fixed pattern vocabulary, and bulk
    # expiry triggers ZERO full-structure rebuilds (the latter two are
    # deterministic counter gates, hard even at tiny scale; the timing
    # race is floor-gated, so tiny scale may report it ungated — None —
    # but never a fired-and-failed False).
    temporal = doc["scenarios"]["temporal"]
    assert temporal["results"]
    for row in temporal["results"]:
        assert {
            "n", "expiry_bulk_ms", "expiry_per_edge_ms", "windowed_ms",
            "expired", "structure_batches", "rebuild_delta",
            "per_edge_over_bulk",
        } <= set(row)
        assert row["rebuild_delta"] == 0
    assert temporal["bulk_expiry_wins"] is not False
    assert temporal["upkeep_flat"] is True
    assert temporal["zero_expiry_rebuilds"] is True
    batches = [
        r["structure_batches"] for r in temporal["results"] if r["n"] >= 4
    ]
    assert len(set(batches)) == 1 and batches[0] > 0, batches
    # The distance modes' race on the YouTube-like graph: both pools
    # answered as batch recomputation (exit code 0 above), the bfs pool
    # probed and the landmark pool synced its one index.  The race is
    # judged only on rows above its floor, which the tiny graph's never
    # reach, so it reads ungated (None), never a fired-and-failed False.
    far = doc["scenarios"]["bounded-far"]
    assert far["distance_modes"] == ["bfs", "landmark"]
    assert far["graph"] == {"nodes": 296, "edges": 1178}  # scale 0.02
    assert [r["n"] for r in far["results"]] == [1, 2, 4, 8]
    for row in far["results"]:
        assert {
            "n", "bfs_ms", "landmark_ms", "bfs_over_landmark",
            "probe_nodes", "upkeep",
        } <= set(row)
        assert row["probe_nodes"] > 0 and row["upkeep"] > 0
    assert far["landmark_wins"] is not False


def _unshared(monkeypatch):
    """Give every registration its own intern key, so nothing is shared."""
    import itertools

    from repro.engine import plan as plan_module

    canonical = plan_module.canonical_pattern
    fresh = itertools.count()

    def unshared(pattern):
        canon = canonical(pattern)
        canon.key = (canon.key, next(fresh))
        return canon

    monkeypatch.setattr(plan_module, "canonical_pattern", unshared)


def test_bench_pool_partial_runs_leave_the_record_alone(tmp_path, monkeypatch):
    """Only a full run of every scenario writes ``BENCH_pool.json`` by
    default: a ``--tiny`` or ``--scenario`` run writes a file only where
    ``--json`` points."""
    bench = _bench_pool()
    monkeypatch.chdir(tmp_path)
    small = ["--updates", "8", "--cluster-size", "6", "--reps", "1"]
    for argv in (["--tiny", "--scenario", "simulation", *small],
                 ["--scenario", "simulation", *small]):
        assert bench.main(argv) == 0
        assert not (tmp_path / "BENCH_pool.json").exists(), argv
    assert bench.main([*argv, "--json", "out.json"]) == 0
    assert (tmp_path / "out.json").exists()


@pytest.mark.parametrize("interned", [True, False])
def test_shared_plan_gate_fails_only_when_nothing_is_interned(
    interned, monkeypatch
):
    """The shared-plan flatness gate can fail: when every registration
    gets its own intern key, join repairs grow with N and the scenario
    reports not-ok; with interning it passes on the same inputs."""
    bench = _bench_pool()
    if not interned:
        _unshared(monkeypatch)
    graph = bench.build_graph(num_clusters=4, cluster_size=6)
    ok, doc = bench.run("shared-plan", graph, [4, 8], num_updates=8, reps=1)
    assert ok is interned
    assert doc["join_repairs_flat"] is interned
    joins = {r["n"]: r["plan_joins"] for r in doc["results"]}
    assert joins == ({4: 4, 8: 4} if interned else {4: 4, 8: 8})


@pytest.mark.parametrize("interned", [True, False])
def test_overlap_routing_gate_fails_only_when_nothing_is_interned(
    interned, monkeypatch
):
    """The overlap scenario's routed-pairs gate can fail: when every
    registration gets its own intern key, each copy of a pattern is
    routed on its own, routed pairs grow with N and the scenario reports
    not-ok; with interning it passes on the same inputs.  The atom gate
    passes either way (predicates are shared by the eligibility
    substrate, not by the plan)."""
    bench = _bench_pool()
    if not interned:
        _unshared(monkeypatch)
    graph = bench.build_graph(num_clusters=4, cluster_size=6)
    ok, doc = bench.run("overlap", graph, [4, 8], num_updates=40, reps=1)
    assert ok is interned
    assert doc["routed_flat"] is interned
    assert doc["atom_evals_flat"] is True
    routed = {r["n"]: r["routed"] for r in doc["results"]}
    assert routed[4] > 0
    assert routed[8] == (routed[4] if interned else 2 * routed[4])


@pytest.mark.parametrize("selective", [True, False])
def test_bounded_distance_check_gate_fails_when_every_edge_is_evaluated(
    selective, monkeypatch
):
    """The bounded scenario's rule-evaluation gate can fail: a router
    that evaluates every registered pattern edge on every update, not
    only those whose source predicate the backward leg meets, makes the
    count grow with N and the scenario report not-ok; the real router
    passes on the same inputs.  Routing itself is the same either way."""
    from repro.engine import router as router_module

    bench = _bench_pool()
    if not selective:
        route_by_legs = router_module._route_by_legs

        def evaluate_everything(legs, groups, selected):
            route_by_legs(legs, groups, selected)
            return sum(len(group.edges) for group in groups.values())

        monkeypatch.setattr(
            router_module, "_route_by_legs", evaluate_everything
        )
    graph = bench.build_graph(num_clusters=8, cluster_size=6)
    ok, doc = bench.run("bounded", graph, [4, 8], num_updates=8, reps=1)
    assert ok is selective
    assert doc["distance_checks_flat"] is selective
    checks = {r["n"]: r["distance_checks"] for r in doc["results"]}
    routed = {r["n"]: r["routed"] for r in doc["results"]}
    assert checks[4] > 0 and routed[4] == routed[8] > 0
    assert checks[8] == (checks[4] if selective else 2 * checks[4])


@pytest.mark.parametrize("distance_mode", ["landmark", "bfs"])
def test_temporal_gates_fail_when_no_structure_is_synced(
    distance_mode, monkeypatch
):
    """The temporal counter gates can fail: in ``bfs`` mode no distance
    structure is leased, every expiry flush syncs 0 structures, and the
    scenario reports not-ok; in landmark mode it passes on the same
    inputs."""
    bench = _bench_pool()
    monkeypatch.setitem(
        bench.SCENARIOS, "temporal", bench.temporal(distance_mode)
    )
    graph = bench.build_graph(num_clusters=4, cluster_size=6)
    ok, doc = bench.run("temporal", graph, [4, 8], num_updates=8, reps=1)
    synced = distance_mode == "landmark"
    assert ok is synced
    assert doc["upkeep_flat"] is synced
    assert doc["zero_expiry_rebuilds"] is synced
    batches = [r["structure_batches"] for r in doc["results"]]
    assert batches == ([1, 1] if synced else [0, 0])


def test_runner_check_fails_when_a_query_disagrees_with_its_oracle():
    """The runner's correctness check can fail: a naive loop that has
    not run yet holds another graph than the pool that applied the
    stream, and answers otherwise than batch recomputation on the pool's
    graph; once it has run, both agree."""
    bench = _bench_pool()
    scenario = bench.SCENARIOS["simulation"]
    graph = bench.build_graph(num_clusters=2, cluster_size=30)
    stream = scenario.stream(graph, 120)
    states = {leg.key: leg.build(graph, stream, 2) for leg in scenario.legs}
    pool_leg, naive_leg = scenario.legs
    pool_leg.run(states[pool_leg.key], stream)
    assert bench.check("simulation", stream, 2, states, {}) is False
    naive_leg.run(states[naive_leg.key], stream)
    assert bench.check("simulation", stream, 2, states, {}) is True


def test_tiny_run_fails_when_the_naive_loop_is_fed_half_its_stream(
    monkeypatch, capsys
):
    """``--tiny`` catches a naive loop that skips half its stream: in
    every scenario with a naive leg, its indexes hold another graph than
    the pool's.  (Their answers can still equal batch recomputation on
    the pool's graph, which is why the graphs are compared too.)"""
    bench = _bench_pool()
    init = bench.NaiveLoop.__init__

    def half_fed(loop, indexes, feed):
        def feed_half(index, stream):
            if isinstance(stream, tuple):  # (node ops, edge ops)
                stream = tuple(ops[: len(ops) // 2] for ops in stream)
            else:
                stream = stream[: len(stream) // 2]
            feed(index, stream)

        init(loop, indexes, feed_half)

    monkeypatch.setattr(bench.NaiveLoop, "__init__", half_fed)
    assert bench.main(["--tiny", "--json", "-"]) == 1
    failed = {}
    for line in capsys.readouterr().err.splitlines():
        if line.startswith("MISMATCH "):
            name, failure = line.split()[1], line.split(": ", 1)[1]
            failed.setdefault(name, []).append(failure)
    assert set(failed) == set(bench.SCENARIOS) - {"temporal", "bounded-far"}
    for name, failures in failed.items():
        assert all(" naive, pattern " in f for f in failures), name
        assert any(f.endswith("graph differs") for f in failures), name


@pytest.mark.parametrize("direction", ["inserted", "deleted"])
@pytest.mark.parametrize(
    "name", ["simulation", "bounded", "bounded-shared", "bounded-far"]
)
def test_tiny_run_fails_when_a_repair_does_nothing(
    name, direction, monkeypatch, capsys
):
    """``--tiny`` catches indexes whose insertion or deletion repair does
    nothing: the stream cuts a matched source off and links another one
    back, so the pool's queries and the naive indexes, which hold the
    right graph, answer otherwise than batch recomputation.
    ``bounded-far`` runs no naive loop, and both its pools fail."""
    from repro.incremental.incbsim import BoundedSimulationIndex
    from repro.incremental.incsim import SimulationIndex

    bench = _bench_pool()
    for index_type in (SimulationIndex, BoundedSimulationIndex):
        monkeypatch.setattr(
            index_type, f"repair_{direction}_edges", lambda self, edges: None
        )
    assert bench.main(["--tiny", "--scenario", name, "--json", "-"]) == 1
    failures = [
        line.split(": ", 1)[1]
        for line in capsys.readouterr().err.splitlines()
        if line.startswith(f"MISMATCH {name} ")
    ]
    assert not any(f.endswith("graph differs") for f in failures), failures
    if name == "bounded-far":
        failed = {f.split(" pool, pattern ")[0] for f in failures}
        assert failed == {"bfs_ms", "landmark_ms"}, failures
    else:
        assert any(" pool, pattern " in f for f in failures), failures
        assert any(" naive, pattern " in f for f in failures), failures


@pytest.mark.parametrize("name", ["bounded-far", "temporal"])
def test_tiny_run_tops_up_only_the_rows_a_race_judges(name, tmp_path):
    """``--reps 1`` runs a row once unless the scenario's race judges it,
    and a judged row ``RACE_REPS`` times; each row records its reps.  At
    ``--tiny`` no ``bounded-far`` row clears its race's floor, while
    ``temporal``'s race judges its rows."""
    bench = _bench_pool()
    out = tmp_path / "BENCH_pool.json"
    assert bench.main([
        "--tiny", "--reps", "1", "--scenario", name, "--json", str(out),
    ]) == 0
    race = next(
        g for g in bench.SCENARIOS[name].gates if isinstance(g, bench.Race)
    )
    rows = json.loads(out.read_text())["scenarios"][name]["results"]
    reps = [r["reps"] for r in rows]
    assert reps == [
        bench.RACE_REPS if race.judges(r["n"], r[race.baseline]) else 1
        for r in rows
    ], rows
    if name == "bounded-far":
        assert reps == [1] * len(rows)
    else:
        assert bench.RACE_REPS in reps


def test_temporal_names_an_empty_churn_stream(capsys):
    """A 4-node partition already holds all 12 possible edges, so the
    temporal scenario's insert-only churn is empty and nothing would
    expire: the run fails on the empty stream, before any gate is
    judged, and names it."""
    bench = _bench_pool()
    assert bench.main([
        "--tiny", "--cluster-size", "4", "--updates", "4", "--reps", "1",
        "--scenario", "temporal", "--json", "-",
    ]) == 1
    captured = capsys.readouterr()
    assert "EMPTY STREAM temporal: the insert-only churn stream" in (
        captured.err
    )
    assert "GATE FAILED" not in captured.err
    assert "gates:" not in captured.out


def _gate_mutations():
    """Every gate the registry declares, with each way its quantity can
    be rewritten to fail it."""
    bench = _bench_pool()
    kinds = {
        bench.Flat: ("grown", "zero", "one-size"),
        bench.Race: ("lost",),
        bench.Every: ("zero",),
    }
    return [
        pytest.param(name, gate.name, how, id=f"{name}-{gate.name}-{how}")
        for name, scenario in bench.SCENARIOS.items()
        for gate in scenario.gates
        for how in kinds[type(gate)]
    ]


@pytest.mark.parametrize("name, gate_name, how", _gate_mutations())
def test_every_declared_gate_can_fail(name, gate_name, how):
    """Rows that pass every gate (the committed full run's) fail the one
    gate whose quantity is rewritten: a count grown with N, zero at every
    N, or judged on one size; a race lost above the noise floor."""
    bench = _bench_pool()
    gate = next(g for g in bench.SCENARIOS[name].gates if g.name == gate_name)
    record = json.loads((ROOT / "BENCH_pool.json").read_text())
    rows = [dict(r) for r in record["scenarios"][name]["results"]]
    ok, verdicts = bench.judge(name, rows)
    assert ok and verdicts[gate_name] is True, verdicts
    gated = [r for r in rows if r["n"] >= getattr(gate, "start", 1)]
    if how == "grown":
        for r in gated:
            r[gate.key] = r["n"]
    elif how == "zero":
        for r in rows:
            r[gate.key] = 0
    elif how == "one-size":
        rows = [r for r in rows if r not in gated[1:]]
    else:
        for r in gated:
            r[gate.baseline] = 2 * gate.floor_ms
            r[gate.key] = 0.5
    ok, verdicts = bench.judge(name, rows)
    assert verdicts[gate_name] is False
    assert not ok


def test_compare_bench_trend_accumulates_over_history(tmp_path):
    """compare_bench --trend: each run appends a snapshot, seeding from
    the previous build's trend artifact, capped at --trend-cap."""
    spec = importlib.util.spec_from_file_location(
        "compare_bench", ROOT / "benchmarks" / "compare_bench.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    curr = tmp_path / "curr.json"
    curr.write_text(json.dumps({
        "scenarios": {
            "overlap": {"results": [
                {"n": 4, "pool_ms": 1.0, "naive_ms": 2.0},
            ]},
        },
    }))
    trend = tmp_path / "trend.json"
    prev_trend = tmp_path / "prev_trend.json"

    # First build: no previous pool artifact, no previous trend — still
    # writes a one-snapshot history and exits 0 (fail-soft compare).
    assert mod.main([
        str(tmp_path / "missing.json"), str(curr), "--trend", str(trend),
    ]) == 0
    history = json.loads(trend.read_text())
    assert len(history) == 1
    # Only flush-cost keys are tracked; the naive baseline is not.
    assert history[0]["costs"] == {"overlap/n=4/pool_ms": 1.0}

    # Later build seeds from the downloaded previous trend.
    prev_trend.write_text(trend.read_text())
    trend.unlink()
    assert mod.main([
        str(curr), str(curr),
        "--trend", str(trend), "--trend-previous", str(prev_trend),
    ]) == 0
    assert len(json.loads(trend.read_text())) == 2

    # The cap bounds the history.
    for _ in range(5):
        assert mod.main([
            str(curr), str(curr), "--trend", str(trend), "--trend-cap", "3",
        ]) == 0
    assert len(json.loads(trend.read_text())) == 3
