"""Smoke tests: every figure driver runs at tiny scale and yields the
columns EXPERIMENTS.md documents."""

import pytest

from repro.bench.figures import FIGURES

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
    import json
    import subprocess
    import sys
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_pool.py"
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
        "overlap-atoms", "shared-plan", "reach-oracle", "kernels",
        "temporal",
    }
    for name in ("simulation", "bounded"):
        scenario = doc["scenarios"][name]
        assert scenario["results"]
        for row in scenario["results"]:
            assert {"n", "pool_ms", "naive_ms", "routed", "skipped"} <= set(row)
        routed = [r["routed"] for r in scenario["results"]]
        assert len(set(routed)) == 1, (name, routed)
    # The distance substrate's headline: one landmark index serves every
    # query, so structure-level upkeep per flush is flat in N.
    shared = doc["scenarios"]["bounded-shared"]
    assert shared["results"]
    for row in shared["results"]:
        assert {"n", "pool_ms", "naive_ms", "upkeep"} <= set(row)
    upkeep = [r["upkeep"] for r in shared["results"]]
    assert len(set(upkeep)) == 1 and upkeep[0] > 0, upkeep
    # The eligibility substrate's headline: per-flush atom evaluations
    # are non-zero and EXACTLY flat in N once the predicate vocabulary is
    # interned (hard-gated by both scenarios — exit code 0 above — so
    # here we pin the JSON shape and the verdict).
    for name in ("overlap", "overlap-atoms"):
        overlap = doc["scenarios"][name]
        assert overlap["results"]
        for row in overlap["results"]:
            assert {"n", "pool_ms", "naive_ms", "atom_evals"} <= set(row)
        assert overlap["atom_evals_flat"] is True
        gated = [
            r["atom_evals"] for r in overlap["results"]
            if r["n"] >= overlap["flat_from"]
        ]
        assert len(set(gated)) == 1 and gated[0] > 0, (name, gated)
    # The multi-query plan's headline: per-flush join repairs are
    # non-zero and EXACTLY flat in query count once every pattern shape
    # is interned (hard-gated by the scenario — exit code 0 above); the
    # N=16 outright-win race only fires at full scale, so at tiny scale
    # it must be reported ungated (None), never a fired-and-failed False.
    plan = doc["scenarios"]["shared-plan"]
    assert plan["results"]
    for row in plan["results"]:
        assert {
            "n", "plan_shared_ms", "plan_per_query_ms",
            "join_repairs", "plan_joins",
        } <= set(row)
    assert plan["join_repairs_flat"] is True
    assert plan["shared_wins"] is not False
    k = plan["leg_vocabularies"]
    plan_repairs = [
        r["join_repairs"] for r in plan["results"] if r["n"] >= k
    ]
    assert len(set(plan_repairs)) == 1 and plan_repairs[0] > 0, plan_repairs
    # The interval oracle's headline: the columnar backend wins the
    # flush race (hard-gated by the scenario — exit code 0 above — so
    # here we pin the JSON shape and the gate verdict); oracle consults
    # are reported ungated.
    reach = doc["scenarios"]["reach-oracle"]
    assert reach["results"]
    for row in reach["results"]:
        assert {
            "n", "dict_ms", "columnar_ms", "dict_over_columnar",
            "landmark_ms", "consults", "rebuilds", "eligible_members",
            "consults_per_flush",
        } <= set(row)
    # At this tiny scale every dict flush is sub-millisecond, so the
    # backend race is reported ungated (None); the full run hard-gates
    # a True verdict.  False would mean the gate fired and failed.
    assert reach["columnar_wins"] is not False
    assert "consults_sublinear" not in reach
    # The kernel layer's headline: numpy beats the pure-Python twins on
    # the bulk sweep and interval rebuild (hard-gated at full scale; at
    # tiny scale the race is reported ungated, and without numpy the
    # scenario documents itself as skipped).
    kern = doc["scenarios"]["kernels"]
    if "skipped" not in kern:
        assert kern["results"]
        for row in kern["results"]:
            assert {
                "n", "edges", "bulk_numpy_ms", "bulk_python_ms",
                "interval_numpy_ms", "interval_python_ms",
            } <= set(row)
        assert kern["numpy_wins_bulk"] is not False
        assert kern["numpy_wins_interval"] is not False
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
    assert len(set(batches)) == 1, batches


@pytest.mark.parametrize("interned", [True, False])
def test_shared_plan_gate_fails_only_when_nothing_is_interned(
    interned, monkeypatch
):
    """The shared-plan flatness gate can fail: when every registration
    gets its own intern key, join repairs grow with N and the scenario
    reports not-ok; with interning it passes on the same inputs."""
    import importlib.util
    import itertools
    from pathlib import Path

    from repro.engine import plan as plan_module

    spec = importlib.util.spec_from_file_location(
        "bench_pool",
        Path(__file__).resolve().parents[2] / "benchmarks" / "bench_pool.py",
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    if not interned:
        canonical = plan_module.canonical_pattern
        fresh = itertools.count()

        def unshared(pattern):
            canon = canonical(pattern)
            canon.key = (canon.key, next(fresh))
            return canon

        monkeypatch.setattr(plan_module, "canonical_pattern", unshared)
    graph = bench.build_graph(num_clusters=4, cluster_size=6)
    ok, doc = bench.run_shared_plan_scenario(
        [4, 8], graph, num_updates=8, reps=1
    )
    assert ok is interned
    assert doc["join_repairs_flat"] is interned
    joins = {r["n"]: r["plan_joins"] for r in doc["results"]}
    assert joins == ({4: 4, 8: 4} if interned else {4: 4, 8: 8})


def test_compare_bench_trend_accumulates_over_history(tmp_path):
    """compare_bench --trend: each run appends a snapshot, seeding from
    the previous build's trend artifact, capped at --trend-cap."""
    import importlib.util
    import json
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "compare_bench",
        Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py",
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
