"""Tests of compare.py's verdicts on synthetic run documents."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("e2e_compare", HERE / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

SPEC = {
    "end_to_end": [
        {"name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.1},
        {"name": "flush_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]
}


def write_runs(directory: Path, workload, eps, p50, failed=0):
    directory.mkdir(parents=True, exist_ok=True)
    for i, (e, p) in enumerate(zip(eps, p50)):
        doc = {
            "info": {"workload": workload, "seed": i},
            "result": {
                "correct": failed == 0,
                "attempted": 1000,
                "failed": failed,
                "metrics": {
                    "events_per_s": {"value": e, "unit": "events/s"},
                    "flush_p50_ms": {"value": p, "unit": "ms"},
                },
            },
        }
        (directory / f"{workload}-{i:02d}.json").write_text(json.dumps(doc))


def verdicts(parent, change, capsys):
    code = compare.compare(compare.load_runs(parent), compare.load_runs(change), SPEC)
    rows = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        parts = line.split()
        rows[parts[1]] = line.split("  ")[-1].strip()
    return code, rows


STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_verdict_improved_within_and_regressed(tmp_path, capsys):
    write_runs(tmp_path / "p", "w", STEADY, STEADY)
    # events/s up 20% in every pair; p50 up (worse) 5%: within bound.
    write_runs(tmp_path / "c", "w", [v * 1.2 for v in STEADY], [v * 1.05 for v in STEADY])
    code, rows = verdicts(tmp_path / "p", tmp_path / "c", capsys)
    assert rows == {"events_per_s": "improved", "flush_p50_ms": "within bound", "error_rate": "within bound"}
    assert code == 0

    write_runs(tmp_path / "r", "w", [v * 0.8 for v in STEADY], STEADY)
    code, rows = verdicts(tmp_path / "p", tmp_path / "r", capsys)
    assert rows["events_per_s"] == "regressed"
    assert code == 1


def test_verdict_unresolved_when_parent_spread_exceeds_bound(tmp_path, capsys):
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    write_runs(tmp_path / "p", "w", noisy, STEADY)
    write_runs(tmp_path / "c", "w", [v * 0.85 for v in noisy], STEADY)
    _, rows = verdicts(tmp_path / "p", tmp_path / "c", capsys)
    assert rows["events_per_s"] == "unresolved"


def test_error_rate_regression_fails(tmp_path, capsys):
    write_runs(tmp_path / "p", "w", STEADY, STEADY)
    write_runs(tmp_path / "c", "w", STEADY, STEADY, failed=1)
    code, rows = verdicts(tmp_path / "p", tmp_path / "c", capsys)
    assert rows["error_rate"] == "regressed"
    assert code == 1


def test_single_directory_summary(tmp_path, capsys):
    write_runs(tmp_path / "p", "w", STEADY, STEADY)
    assert compare.main([str(tmp_path / "p")]) == 0
    out = capsys.readouterr().out
    assert "events_per_s" in out and "error_rate" in out


def test_host_fit_recovers_the_slope():
    docs = [
        {"info": {"host_factor": f, "wall": {"events_per_s": 100 * f**0.9}}}
        for f in (0.5, 0.6, 0.8, 1.0)
    ]
    slope, corr = compare.host_fit(docs)
    assert abs(slope - 0.9) < 1e-9 and abs(corr - 1.0) < 1e-9
    assert compare.host_fit(docs[:2]) is None
