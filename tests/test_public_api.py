"""Public-API surface tests: imports, __all__, version."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module",
    [
        "repro.graphs",
        "repro.patterns",
        "repro.matching",
        "repro.shortestpaths",
        "repro.landmarks",
        "repro.incremental",
        "repro.extensions",
        "repro.core",
        "repro.workloads",
        "repro.bench",
    ],
)
def test_subpackage_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_readme_quickstart_runs():
    from repro import DiGraph, Matcher, Pattern

    g = DiGraph()
    g.add_node("Ann", job="CTO")
    g.add_node("Pat", job="DB")
    g.add_node("Bill", job="Bio")
    g.add_edge("Ann", "Pat")
    g.add_edge("Pat", "Bill")
    p = Pattern.from_spec(
        {"CTO": "job = CTO", "DB": "job = DB", "Bio": "job = Bio"},
        [("CTO", "DB", 2), ("DB", "Bio", 1), ("CTO", "Bio", "*")],
    )
    m = Matcher(p, g, semantics="bounded")
    assert m.matches() == {"CTO": {"Ann"}, "DB": {"Pat"}, "Bio": {"Bill"}}
    m.insert_edge("Ann", "Bill")
    m.delete_edge("Pat", "Bill")
    m.update_node_attrs("Pat", job="Sabbatical")
    assert "Pat" not in m.matches().get("DB", set())


def test_module_docstrings_present():
    """Every public module documents itself."""
    for module in [
        "repro",
        "repro.graphs.digraph",
        "repro.graphs.traversal",
        "repro.graphs.scc",
        "repro.graphs.distance",
        "repro.graphs.twohop",
        "repro.graphs.generators",
        "repro.graphs.io",
        "repro.patterns.predicate",
        "repro.patterns.pattern",
        "repro.patterns.generator",
        "repro.patterns.io",
        "repro.patterns.minimize",
        "repro.matching.simulation",
        "repro.matching.bounded",
        "repro.matching.isomorphism",
        "repro.matching.oracles",
        "repro.matching.result_graph",
        "repro.matching.relation",
        "repro.shortestpaths.dynamic_sssp",
        "repro.landmarks.selection",
        "repro.landmarks.vector",
        "repro.incremental.types",
        "repro.incremental.edge_class",
        "repro.incremental.incsim",
        "repro.incremental.incbsim",
        "repro.incremental.hornsat",
        "repro.incremental.inciso",
        "repro.incremental.affected",
        "repro.extensions.colored",
        "repro.extensions.dual",
        "repro.extensions.weighted",
        "repro.extensions.distributed",
        "repro.cli",
        "repro.core.engine",
        "repro.workloads.datasets",
        "repro.workloads.updates",
        "repro.bench.figures",
        "repro.bench.summary",
    ]:
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module


# Runs in a fresh interpreter: a finder placed first on sys.meta_path
# sees every import that is not already satisfied from sys.modules,
# whether or not the module is installed.
_NUMPY_PROBE = """
import sys

assert "numpy" not in sys.modules, "numpy preloaded before the probe"
attempts = []


class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            attempts.append(name)
        return None


sys.meta_path.insert(0, Recorder())

import repro
import repro.engine
import repro.graphs.kernels
from repro import DiGraph, MatcherPool, Pattern, insert

g = DiGraph([("a", "b")], {"a": {"job": "CTO"}, "b": {"job": "DB"}})
g.add_node("c", job="DB")
pool = MatcherPool(g)
q = pool.register(
    Pattern.from_spec({"x": "job = CTO", "y": "job = DB"}, [("x", "y", 2)]),
    semantics="bounded",
)
pool.queue(insert("b", "c"))
pool.flush()
assert q.matches()["y"] == {"b", "c"}, q.matches()
print(attempts)
"""


def test_engine_never_imports_numpy():
    """Importing the package and running a bounded query through a pool
    never asks for numpy, installed or not."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout
