"""Start-up contract: `import treeconvex` loads nothing, the CLI caps
OpenBLAS's threads before NumPy loads, and each command imports only what it
runs.  Each of these runs in a fresh interpreter, since this one has long
loaded everything."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treeconvex
from treeconvex import TruncatedTree
from treeconvex.cli import write_solution_csv

SRC = str(Path(treeconvex.__file__).resolve().parent.parent)

PUBLIC = [
    "BoundaryDatum", "ConvergenceSeries", "ConvexityCheck", "ENVELOPE_VARIANTS",
    "LAPLACIAN_VARIANTS", "ObstacleResult", "SolveConfig", "SolveReport", "TreeFunction",
    "TruncatedTree", "Vertex", "convergence_study", "is_binary_convex", "is_convex_operator",
    "is_convex_segment", "leaf_psi_values", "load_datum_csv", "op_binary", "op_convex",
    "parse_datum", "psi", "residual", "sample_leaves", "solve_dirichlet", "solve_obstacle",
]


def fresh(code: str, *args: str, cwd=None, **env: str):
    """Run `code` in a new interpreter that imports this package, without an
    inherited OpenBLAS setting, and return the JSON of its last output line."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    environ.update(env)
    done = subprocess.run([sys.executable, "-c", code, *args], env=environ, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestLazyPackage:
    def test_import_loads_nothing(self):
        loaded = fresh("import json, sys, treeconvex\n"
                       "print(json.dumps([m for m in sys.modules "
                       "if m == 'numpy' or m.startswith('treeconvex.')]))")
        assert loaded == []

    def test_star_import_yields_public_names(self):
        names = fresh("import json\nfrom treeconvex import *\n"
                      "print(json.dumps(sorted(k for k in dir() if not k.startswith('_') "
                      "and k != 'json')))")
        assert names == PUBLIC

    def test_submodule_after_bare_import(self):
        name = fresh("import json, treeconvex\n"
                     "print(json.dumps(treeconvex.solver.SolveConfig.__module__))")
        assert name == "treeconvex.solver"

    def test_table_entries_live_in_their_modules(self):
        for home, names in treeconvex._EXPORTS.items():
            module = importlib.import_module(f"treeconvex.{home}")
            for name in names:
                assert name in vars(module), f"treeconvex.{home} has no {name}"
                assert getattr(treeconvex, name) is getattr(module, name)
        assert sorted(treeconvex.__all__) == PUBLIC
        assert set(PUBLIC) <= set(dir(treeconvex))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            treeconvex.no_such_name


DEFERRED = ("treeconvex.boundary", "treeconvex.convexity", "treeconvex.solver", "fractions",
            "decimal")
LOADED = ("import json, sys\nfrom treeconvex import cli\ncode = cli.main(sys.argv[1:])\n"
          "print(json.dumps([code, 'numpy' in sys.modules, "
          f"[m for m in {DEFERRED!r} if m in sys.modules]]))")


class TestCliStartup:
    def test_thread_cap(self):
        threads = ("import json, os, sys, treeconvex.cli\n"
                   "tasks = len(os.listdir('/proc/self/task')) "
                   "if sys.platform.startswith('linux') else None\n"
                   "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], "
                   "'numpy' in sys.modules, tasks]))")
        setting, numpy_loaded, tasks = fresh(threads)
        assert setting == "1" and numpy_loaded
        if tasks is None:
            pytest.skip("thread count read from /proc on Linux only")
        assert tasks == 1

    def test_user_setting_kept(self):
        setting = fresh("import json, os, treeconvex.cli\n"
                        "print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))",
                        OPENBLAS_NUM_THREADS="2")
        assert setting == "2"

    @pytest.mark.parametrize("command", ["solve", "obstacle", "converge", "check"])
    def test_command_imports(self, command, tmp_path):
        tree = TruncatedTree(2, 3)
        write_solution_csv(str(tmp_path / "u.csv"), tree, np.linspace(1.0, 0.0, tree.vertex_count))
        argv = {
            "solve": ["--depth", "3", "--datum", "power:2"],
            "obstacle": ["--depth", "3", "--obstacle", "u.csv"],
            "converge": ["--datum", "absdev:0.5", "--depths", "2,3"],
            "check": ["--depth", "3", "--function", "u.csv", "--out-json", "c.json"],
        }[command]
        code, numpy_loaded, loaded = fresh(LOADED, command, "--m", "2", *argv, cwd=tmp_path)
        assert code == 0 and numpy_loaded
        # of DEFERRED, a command loads the layers it runs and nothing else
        assert loaded == {
            "solve": ["treeconvex.boundary", "treeconvex.solver"],
            "obstacle": ["treeconvex.solver"],
            "converge": ["treeconvex.boundary", "treeconvex.solver"],
            "check": ["treeconvex.convexity"],
        }[command]
