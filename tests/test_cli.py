"""End-to-end tests for the ``python -m repro match`` CLI."""

import json

import pytest

from repro.cli import load_updates, main
from repro.graphs.io import save_json
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
                "--distance-mode", "bfs", "landmark", "matrix",
            ])
            == 2
        )

    def test_graph_backend_flag(
        self, pool_files, tmp_path, capsys, friendfeed_pattern
    ):
        """`--graph-backend columnar` must change nothing but the backend:
        same queries, same matches, same flush deltas as the dict run."""
        graph, hiring, _, updates = pool_files
        bounded = tmp_path / "bounded.json"
        save_pattern(friendfeed_pattern, bounded)
        outs = {}
        for backend in ("dict", "columnar"):
            assert (
                main([
                    "pool", "--graph", graph,
                    "--patterns", hiring, str(bounded),
                    "--semantics", "bounded",
                    "--graph-backend", backend,
                    "--updates", updates,
                ])
                == 0
            )
            out = json.loads(capsys.readouterr().out)
            assert out["graph_backend"] == backend
            del out["graph_backend"]
            outs[backend] = out
        assert outs["dict"] == outs["columnar"]

    def test_interval_distance_mode(
        self, pool_files, tmp_path, capsys, friendfeed_pattern
    ):
        graph, _, _, updates = pool_files
        bounded = tmp_path / "bounded.json"
        save_pattern(friendfeed_pattern, bounded)
        ref = None
        for mode in ("bfs", "interval"):
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
            matches = out["after_updates"]["bounded"]["matches"]
            if ref is None:
                ref = matches
            else:
                assert matches == ref
        assert out["shared_structures"]["reach"] == 1
        assert out["shared_structures"]["closures"] >= 1

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
