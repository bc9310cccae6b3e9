"""The committed ``BENCH_pool.json`` must describe the current code.

The file is the output of one full ``benchmarks/bench_pool.py`` run.  A
change that adds or drops a scenario, or moves a routing count, leaves
it stale unless the file is regenerated; this test catches that without
timing anything.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _bench_pool():
    spec = importlib.util.spec_from_file_location(
        "bench_pool", ROOT / "benchmarks" / "bench_pool.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_committed_bench_record_matches_the_code():
    """A full run's sizes (a ``--tiny`` record runs fewer), the scenario
    set, each scenario's distance mode, graph, stream, and
    the routed/skipped counts of the ``simulation`` and ``bounded`` rows
    at the smallest and largest N (deterministic under every hash seed)
    recomputed through each scenario's declared pool leg from what the
    file says it ran."""
    bench = _bench_pool()
    doc = json.loads((ROOT / "BENCH_pool.json").read_text())
    sizes = doc["scenarios"]["simulation"]["sizes"]
    assert sizes == bench.FULL_SIZES, f"not a full run: N = {sizes}"
    assert set(doc["scenarios"]) == set(bench.SCENARIOS)
    for name, scenario in bench.SCENARIOS.items():
        recorded = doc["scenarios"][name].get("distance_mode")
        assert recorded == scenario.info.get("distance_mode"), name
    max_n = max(sizes)
    graph = bench.build_graph(max_n, doc["graph"]["nodes"] // max_n)
    assert graph.num_nodes() == doc["graph"]["nodes"]
    assert graph.num_edges() == doc["graph"]["edges"]
    updates = bench.partition_updates(graph, doc["updates"])
    assert len(updates) == doc["updates"]
    for scenario in ("simulation", "bounded"):
        leg = bench.SCENARIOS[scenario].legs[0]
        rows = {r["n"]: r for r in doc["scenarios"][scenario]["results"]}
        for n in (min(rows), max(rows)):
            pool = leg.build(graph, updates, n)
            leg.run(pool, updates)
            recorded = (rows[n]["routed"], rows[n]["skipped"])
            counted = (pool.stats.routed_pairs, pool.stats.skipped_pairs)
            assert counted == recorded, (scenario, n)
