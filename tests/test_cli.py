"""End-to-end tests for the ``python -m repro match`` CLI."""

import json

import pytest

from repro.cli import load_updates, main
from repro.engine import POOL_DISTANCE_MODES
from repro.matching.bounded import bounded_match
from repro.matching.relation import as_pairs, totalize
from repro.graphs.io import load_json, save_json
from repro.patterns.io import save_pattern
from repro.patterns.pattern import Pattern


@pytest.fixture
def files(tmp_path, friendfeed_graph, friendfeed_pattern):
    graph_path = tmp_path / "g.json"
    pattern_path = tmp_path / "p.json"
    updates_path = tmp_path / "u.json"
    save_json(friendfeed_graph, graph_path)
    save_pattern(friendfeed_pattern, pattern_path)
    updates_path.write_text(
        json.dumps([
            ["insert", "Don", "Pat"],
            ["insert", "Pat", "Don"],
            ["insert", "Don", "Tom"],
        ])
    )
    return str(graph_path), str(pattern_path), str(updates_path)


class TestCli:
    def test_bounded_match(self, files, capsys):
        graph, pattern, _ = files
        assert main(["match", "--graph", graph, "--pattern", pattern]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["initial"]["matches"]["CTO"] == ["Ann"]

    def test_updates_applied_incrementally(self, files, capsys):
        graph, pattern, updates = files
        assert (
            main([
                "match", "--graph", graph, "--pattern", pattern,
                "--updates", updates,
            ])
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert "Don" in out["after_updates"]["matches"]["CTO"]
        assert "Don" not in out["initial"]["matches"]["CTO"]

    def test_result_graph_printed(self, files, capsys):
        graph, pattern, _ = files
        main([
            "match", "--graph", graph, "--pattern", pattern,
            "--show-result-graph",
        ])
        out = json.loads(capsys.readouterr().out)
        assert "Ann" in out["result_graph"]["nodes"]

    def test_isomorphism_semantics(self, tmp_path, friendfeed_graph, capsys):
        graph_path = tmp_path / "g.json"
        pattern_path = tmp_path / "p.json"
        save_json(friendfeed_graph, graph_path)
        p = Pattern.normal_from_labels(
            {"c": "CTO", "d": "DB"}, [("c", "d")], attribute="job"
        )
        save_pattern(p, pattern_path)
        main([
            "match", "--graph", str(graph_path), "--pattern", str(pattern_path),
            "--semantics", "isomorphism",
        ])
        out = json.loads(capsys.readouterr().out)
        assert out["initial"]["embeddings"]

    def test_simulation_semantics(self, tmp_path, friendfeed_graph, capsys):
        graph_path = tmp_path / "g.json"
        pattern_path = tmp_path / "p.json"
        save_json(friendfeed_graph, graph_path)
        p = Pattern.normal_from_labels(
            {"c": "CTO", "d": "DB"}, [("c", "d")], attribute="job"
        )
        save_pattern(p, pattern_path)
        main([
            "match", "--graph", str(graph_path), "--pattern", str(pattern_path),
            "--semantics", "simulation",
        ])
        out = json.loads(capsys.readouterr().out)
        assert out["initial"]["matches"]["c"] == ["Ann"]


class TestPoolCli:
    @pytest.fixture
    def pool_files(self, tmp_path, friendfeed_graph):
        graph_path = tmp_path / "g.json"
        save_json(friendfeed_graph, graph_path)
        hiring = tmp_path / "hiring.json"
        save_pattern(
            Pattern.normal_from_labels(
                {"c": "CTO", "d": "DB"}, [("c", "d")], attribute="job"
            ),
            hiring,
        )
        medics = tmp_path / "medics.json"
        save_pattern(
            Pattern.normal_from_labels({"m": "Med"}, [], attribute="job"),
            medics,
        )
        updates_path = tmp_path / "u.json"
        updates_path.write_text(json.dumps([["insert", "Don", "Pat"]]))
        return str(graph_path), str(hiring), str(medics), str(updates_path)

    def test_initial_results_per_query(self, pool_files, capsys):
        graph, hiring, medics, _ = pool_files
        assert main(["pool", "--graph", graph, "--patterns", hiring, medics]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["queries"]["hiring"]["matches"]["c"] == ["Ann"]
        assert out["queries"]["medics"]["matches"]["m"] == ["Ross"]

    def test_duplicate_pattern_stems_get_suffixed(
        self, pool_files, tmp_path, capsys
    ):
        graph, hiring, _, _ = pool_files
        sub = tmp_path / "sub"
        sub.mkdir()
        other = sub / "hiring.json"
        save_pattern(
            Pattern.normal_from_labels({"m": "Med"}, [], attribute="job"),
            other,
        )
        assert (
            main(["pool", "--graph", graph, "--patterns", hiring, str(other)])
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert set(out["queries"]) == {"hiring", "hiring2"}
        assert out["queries"]["hiring2"]["matches"]["m"] == ["Ross"]

    def test_distance_mode_per_pattern(
        self, pool_files, tmp_path, capsys, friendfeed_pattern
    ):
        graph, hiring, _, updates = pool_files
        bounded = tmp_path / "bounded.json"
        save_pattern(friendfeed_pattern, bounded)
        assert (
            main([
                "pool", "--graph", graph,
                "--patterns", hiring, str(bounded),
                "--semantics", "bounded",
                "--distance-mode", "bfs", "landmark",
                "--updates", updates,
            ])
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        # Bound-1 patterns stay endpoint-routed; the b-pattern with
        # bounds > 1 is distance-routed through its oracle.
        assert out["queries"]["hiring"]["routing"] == "endpoint"
        assert out["queries"]["bounded"]["routing"] == "distance"
        assert "Don" in out["after_updates"]["hiring"]["matches"]["c"]

    def test_distance_mode_count_mismatch_is_an_error(
        self, pool_files, capsys
    ):
        graph, hiring, medics, _ = pool_files
        assert (
            main([
                "pool", "--graph", graph, "--patterns", hiring, medics,
                "--distance-mode", "bfs", "landmark", "bfs",
            ])
            == 2
        )

    @pytest.mark.parametrize("mode", POOL_DISTANCE_MODES)
    def test_each_distance_mode_matches_batch(
        self, pool_files, tmp_path, capsys, friendfeed_pattern, mode
    ):
        """Every distance mode routes the bounded pattern by distance and
        reports the batch match after the flush; the structure the mode
        leases is the only one alive."""
        graph, _, _, updates = pool_files
        bounded = tmp_path / "bounded.json"
        save_pattern(friendfeed_pattern, bounded)
        assert (
            main([
                "pool", "--graph", graph,
                "--patterns", str(bounded),
                "--semantics", "bounded",
                "--distance-mode", mode,
                "--updates", updates,
            ])
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["queries"]["bounded"]["routing"] == "distance"
        after = load_json(graph)
        for op, x, y in load_updates(updates):
            assert op == "insert"
            after.add_edge(x, y)
        truth = as_pairs(totalize(bounded_match(friendfeed_pattern, after)))
        got = {
            (u, v)
            for u, vs in out["after_updates"]["bounded"]["matches"].items()
            for v in vs
        }
        assert got == truth
        structures = out["shared_structures"]
        assert "matrix" not in structures
        assert structures["landmark"] == int(mode == "landmark")

    @pytest.mark.parametrize("mode", ["interval", "matrix"])
    def test_interval_distance_mode_is_rejected(
        self, pool_files, capsys, mode
    ):
        graph, hiring, _, _ = pool_files
        with pytest.raises(SystemExit) as exc:
            main([
                "pool", "--graph", graph, "--patterns", hiring,
                "--distance-mode", mode,
            ])
        assert exc.value.code == 2
        assert f"invalid choice: '{mode}'" in capsys.readouterr().err

    def test_plan_scope_flag_is_gone(self, pool_files, capsys):
        graph, hiring, _, _ = pool_files
        with pytest.raises(SystemExit) as exc:
            main([
                "pool", "--graph", graph, "--patterns", hiring,
                "--plan-scope", "shared",
            ])
        assert exc.value.code == 2
        assert "--plan-scope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "semantics, joins", [("bounded", 1), ("isomorphism", 0)]
    )
    def test_same_shape_queries_share_one_join(
        self, pool_files, tmp_path, capsys, semantics, joins
    ):
        """Two spellings of one bound-1 shape read one interned index
        (isomorphism queries own theirs), and each query reports the
        routing class of the index it reads."""
        graph, hiring, _, updates = pool_files
        respelled = tmp_path / "respelled.json"
        save_pattern(
            Pattern.normal_from_labels(
                {"boss": "CTO", "dev": "DB"}, [("boss", "dev")],
                attribute="job",
            ),
            respelled,
        )
        assert (
            main([
                "pool", "--graph", graph,
                "--patterns", hiring, str(respelled),
                "--semantics", semantics, "--updates", updates,
            ])
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert "plan_scope" not in out
        assert out["shared_structures"]["plan_joins"] == joins
        assert out["shared_structures"]["plan_leases"] == 2 * joins
        for name in ("hiring", "respelled"):
            assert out["queries"][name]["routing"] == "endpoint"
        assert ["boss", "Don"] in out["flush"]["deltas"]["respelled"]["added"]

    def test_routed_flush_reports_deltas(self, pool_files, capsys):
        graph, hiring, medics, updates = pool_files
        assert (
            main([
                "pool", "--graph", graph, "--patterns", hiring, medics,
                "--updates", updates,
            ])
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        # The CTO/DB update routes to the hiring query only.
        assert "hiring" in out["flush"]["deltas"]
        assert "medics" not in out["flush"]["deltas"]
        assert ["c", "Don"] in out["flush"]["deltas"]["hiring"]["added"]
        assert out["flush"]["skipped"] >= 1
        assert "Don" in out["after_updates"]["hiring"]["matches"]["c"]
        assert out["after_updates"]["medics"]["matches"]["m"] == ["Ross"]


class TestLoadUpdates:
    def test_valid(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text('[["insert", "a", "b"], ["delete", "a", "b"]]')
        ups = load_updates(str(path))
        assert len(ups) == 2
        assert ups[0].op == "insert"

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text('{"op": "insert"}')
        with pytest.raises(ValueError):
            load_updates(str(path))

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text('[["insert", "a"]]')
        with pytest.raises(ValueError):
            load_updates(str(path))

    def test_bad_op(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text('[["mutate", "a", "b"]]')
        with pytest.raises(ValueError):
            load_updates(str(path))
