"""Smoke tests for the ablation drivers."""

import pytest

from repro.bench.experiments import ABLATIONS

TINY = 0.01


def test_registry():
    assert set(ABLATIONS) == {
        "abl-oracle",
        "abl-mindelta",
        "abl-scc",
        "abl-lm",
        "abl-distributed",
        "abl-localized-iso",
    }


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablation_runs(name):
    rows = ABLATIONS[name](TINY)
    assert rows
    assert all(isinstance(r, dict) and r for r in rows)


def test_mindelta_reduction_visible():
    rows = ABLATIONS["abl-mindelta"](TINY)
    for r in rows:
        # The churned batch triples the net updates; cancellation must bite.
        assert r["after_mindelta"] < r["num_updates"]


def test_oracle_counts_rechecked_pairs():
    # CI tables this column parent -> change; an all-zero count would
    # hide any change to IncBMatch-'s suspect rechecks.
    rows = ABLATIONS["abl-oracle"](TINY)
    assert all(r["pairs_rechecked"] > 0 for r in rows)


def test_lm_columns_follow_reach():
    rows = {r["graph"]: r for r in ABLATIONS["abl-lm"](TINY)}
    share = {g: r["columns_visited"] / r["columns"] for g, r in rows.items()}
    # Disjoint communities: each node reaches few landmarks, so a batch
    # can change few columns; the connected graph gates most of them.
    assert 0 < share["communities"] < 0.5 < share["youtube"] <= 1


def test_distributed_single_fragment_no_messages():
    rows = ABLATIONS["abl-distributed"](TINY)
    assert rows[0]["fragments"] == 1
    assert rows[0]["messages"] == 0


def test_cli_accepts_ablation_ids(capsys):
    from repro.bench.__main__ import main

    assert main(["--figure", "abl-scc", "--scale", str(TINY)]) == 0
    out = capsys.readouterr().out
    assert "pattern_kind" in out
