"""End-to-end CLI tests: exit codes, artifacts, determinism, round trips."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from treeconvex import (
    SolveConfig,
    TreeFunction,
    TruncatedTree,
    Vertex,
    reference_binary_indicator,
    reference_convex_indicator,
    solve_dirichlet,
)
from treeconvex.cli import main, read_function_csv, write_solution_csv


def run(*argv):
    return main(list(argv))


def write_function(path, tree, values):
    write_solution_csv(str(path), tree, np.asarray(values, dtype=np.float64))


class TestSolve:
    def test_constant_datum(self, tmp_path):
        out_csv = tmp_path / "u.csv"
        out_json = tmp_path / "r.json"
        code = run("solve", "--m", "3", "--depth", "3", "--datum", "constant:2.5",
                   "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "vertex,level,index,psi,value"
        values = {line.split(",")[0]: line.split(",")[4] for line in lines[1:]}
        assert set(values.values()) == {"2.5"}
        report = json.loads(out_json.read_text())
        assert report["iterations"] == 1
        assert report["converged"] is True and report["monotone"] is True

    def test_reference_indicator_golden(self, tmp_path):
        # piecewise datum whose point samples at depth 4 equal the closed-form
        # reference leaf values on [1/3, 2/3]: flat `c` inside, 0 outside, with
        # one-leaf-wide ramps that hit the sampling grid only at knots
        m, depth = 3, 4
        tree = TruncatedTree(m, depth)
        x0 = Vertex(3, (1,))
        ref = reference_convex_indicator(tree, x0)
        c = float(1 - Fraction(1, m ** (depth - x0.level + 1)))
        n = m**depth
        knots = [(0.0, 0.0), (26 / n, 0.0), (27 / n, c), (53 / n, c), (54 / n, 0.0), (1.0, 0.0)]
        datum_file = tmp_path / "g.csv"
        datum_file.write_text("t,g\n" + "\n".join(f"{repr(t)},{repr(g)}" for t, g in knots) + "\n")

        out_csv = tmp_path / "u.csv"
        code = run("solve", "--m", "3", "--depth", "4", "--variant", "convex",
                   "--datum", str(datum_file), "--out-csv", str(out_csv))
        assert code == 0
        u = read_function_csv(str(out_csv), tree)
        np.testing.assert_allclose(u.values, ref.values, atol=1e-12)

    def test_malformed_datum_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,g\n0,0\n0.7,1\n0.4,1\n1,0\n")
        code = run("solve", "--m", "2", "--depth", "2", "--datum", str(bad))
        assert code == 2
        assert "row 4" in capsys.readouterr().err

    def test_non_convergence_exit_code_and_artifacts(self, tmp_path, capsys):
        out_csv = tmp_path / "u.csv"
        out_json = tmp_path / "r.json"
        code = run("solve", "--m", "2", "--depth", "5", "--datum", "power:2", "--sweep", "jacobi",
                   "--max-iter", "1", "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert code == 3
        assert out_csv.exists()
        assert json.loads(out_json.read_text())["converged"] is False
        err = capsys.readouterr().err
        assert "did not converge after 1 iterations" in err
        assert " at vertex " in err and "last change" in err

    def test_data_in_the_thousands_converge(self, tmp_path):
        # the rounding of the direct engine's evaluation grows with the data;
        # at these sizes it alone would stop above the default tol of 1e-12
        datum = tmp_path / "g.csv"
        datum.write_text("t,g\n0,3000\n0.3,0\n0.5,7000\n1,1000\n")
        out_json = tmp_path / "r.json"
        assert run("solve", "--m", "2", "--depth", "8", "--datum", str(datum),
                   "--out-json", str(out_json)) == 0
        report = json.loads(out_json.read_text())
        assert report["converged"] is True and report["monotone"] is True
        assert report["final_residual"] <= 1e-12
        tree = TruncatedTree(2, 6)
        fn = tmp_path / "f.csv"
        write_function(fn, tree, 4096 * np.random.default_rng(7).standard_normal(tree.vertex_count))
        assert run("obstacle", "--m", "2", "--depth", "6", "--obstacle", str(fn),
                   "--out-json", str(out_json)) == 0
        assert json.loads(out_json.read_text())["converged"] is True

    def test_invalid_config(self):
        assert run("solve", "--m", "1", "--depth", "2", "--datum", "constant:0") == 2
        assert run("solve", "--m", "2", "--depth", "2", "--datum", "constant:0",
                   "--k", "2") == 2
        assert run("solve", "--m", "4", "--depth", "2", "--datum", "constant:0",
                   "--variant", "kconvex") == 2

    def test_kconvex_solve_with_range_note(self, tmp_path):
        out_json = tmp_path / "r.json"
        code = run("solve", "--m", "3", "--depth", "3", "--variant", "kconvex", "--k", "3",
                   "--datum", "affine:1,0", "--out-json", str(out_json))
        assert code == 0
        report = json.loads(out_json.read_text())
        assert "k_range_note" in report

    def test_laplacian_and_dot_output(self, tmp_path):
        out_dot = tmp_path / "t.dot"
        code = run("solve", "--m", "2", "--depth", "3", "--variant", "laplacian-arb",
                   "--datum", "affine:1,0", "--out-dot", str(out_dot))
        assert code == 0
        dot = out_dot.read_text()
        assert dot.startswith("digraph tree {")
        assert '"root" -> "0";' in dot
        assert dot.count("->") == TruncatedTree(2, 3).vertex_count - 1

    def test_inf_sampling_flag(self, tmp_path):
        out_json = tmp_path / "r.json"
        code = run("solve", "--m", "2", "--depth", "4", "--datum", "absdev:0.5",
                   "--sampling", "inf:8", "--out-json", str(out_json))
        assert code == 0
        assert json.loads(out_json.read_text())["sampling"] == "inf:8"


class TestCheck:
    def test_constant_function_all_true(self, tmp_path):
        tree = TruncatedTree(2, 3)
        fn = tmp_path / "f.csv"
        write_function(fn, tree, np.ones(tree.vertex_count))
        out_json = tmp_path / "checks.json"
        code = run("check", "--m", "2", "--depth", "3", "--function", str(fn),
                   "--out-json", str(out_json))
        assert code == 0
        checks = json.loads(out_json.read_text())["checks"]
        for name in ("convex_operator", "binary_operator", "segment", "binary_subtrees"):
            assert checks[name]["ok"] is True, name

    def test_binary_indicator_verdicts(self, tmp_path):
        tree = TruncatedTree(3, 3)
        x0 = Vertex(3, (1,))
        fn = tmp_path / "f.csv"
        write_function(fn, tree, reference_binary_indicator(tree, x0).values)
        out_json = tmp_path / "checks.json"
        assert run("check", "--m", "3", "--depth", "3", "--function", str(fn),
                   "--out-json", str(out_json)) == 0
        checks = json.loads(out_json.read_text())["checks"]
        assert checks["binary_operator"]["ok"] is True
        assert checks["binary_subtrees"]["ok"] is True
        assert checks["convex_operator"]["ok"] is False
        assert "1" in checks["convex_operator"]["violations"]
        assert checks["segment"]["ok"] is False

    def test_noise_function_fails_with_violations(self, tmp_path):
        rng = np.random.default_rng(149)
        tree = TruncatedTree(2, 4)
        fn = tmp_path / "f.csv"
        write_function(fn, tree, rng.standard_normal(tree.vertex_count))
        out_json = tmp_path / "checks.json"
        assert run("check", "--m", "2", "--depth", "4", "--function", str(fn),
                   "--out-json", str(out_json)) == 0
        checks = json.loads(out_json.read_text())["checks"]
        assert checks["convex_operator"]["ok"] is False
        assert len(checks["convex_operator"]["violations"]) > 0

    def test_invalid_tol_rejected(self, tmp_path, capsys):
        # nan passed every predicate and a negative tol failed every vertex
        tree = TruncatedTree(2, 2)
        fn = tmp_path / "f.csv"
        write_function(fn, tree, np.ones(tree.vertex_count))
        for tol in ("nan", "inf", "-1"):
            assert run("check", "--m", "2", "--depth", "2", "--function", str(fn),
                       "--tol", tol) == 2
            assert "tol must be finite and non-negative" in capsys.readouterr().err

    def test_budget_skip_marked(self, tmp_path):
        tree = TruncatedTree(3, 4)
        fn = tmp_path / "f.csv"
        write_function(fn, tree, np.zeros(tree.vertex_count))
        out_json = tmp_path / "checks.json"
        assert run("check", "--m", "3", "--depth", "4", "--function", str(fn),
                   "--out-json", str(out_json)) == 0
        checks = json.loads(out_json.read_text())["checks"]
        assert checks["binary_subtrees"]["ok"] is None
        assert "budget" in checks["binary_subtrees"]["skipped"]

    def test_solution_csv_round_trips(self, tmp_path):
        rng = np.random.default_rng(151)
        tree = TruncatedTree(3, 4)
        g = rng.uniform(0, 1, tree.leaf_count)
        u = solve_dirichlet(tree, g, SolveConfig(variant="convex")).solution
        fn = tmp_path / "u.csv"
        write_function(fn, tree, u.values)
        back = read_function_csv(str(fn), tree)
        np.testing.assert_array_equal(back.values, u.values)

    def test_function_csv_validation(self, tmp_path, capsys):
        tree = TruncatedTree(2, 2)
        fn = tmp_path / "f.csv"
        fn.write_text("vertex,value\nroot,1\n0,1\n")  # incomplete
        assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 2
        assert "missing" in capsys.readouterr().err

        fn.write_text("vertex,value\n" + "\n".join(
            f"{v},0" for v in tree.vertices()) + "\nroot,0\n")
        assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 2
        assert "duplicate" in capsys.readouterr().err

        fn.write_text("vertex,value\n" + "\n".join(f"{v},x" for v in tree.vertices()) + "\n")
        assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 2
        assert "bad value" in capsys.readouterr().err

        # a row without its value cell, and non-finite values, name path and row
        rows = [f"{v},0" for v in tree.vertices()]
        for bad_row, message in [("1.0", "missing 'value' cell"),
                                 ("1.0,nan", "non-finite value 'nan'"),
                                 ("1.0,inf", "non-finite value 'inf'")]:
            fn.write_text("vertex,value\n" + "\n".join(rows[:5] + [bad_row] + rows[6:]) + "\n")
            assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 2
            assert f"{fn}: row 7: {message}" in capsys.readouterr().err


class TestObstacle:
    def test_depth_one_hand_example(self, tmp_path):
        tree = TruncatedTree(2, 1)
        fn = tmp_path / "f.csv"
        write_function(fn, tree, [5.0, 1.0, 2.0])
        out_csv = tmp_path / "u.csv"
        out_json = tmp_path / "r.json"
        code = run("obstacle", "--m", "2", "--depth", "1", "--obstacle", str(fn),
                   "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "vertex,level,index,psi,value,coincidence"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["root"][4] == "1.5" and rows["root"][5] == "false"
        assert rows["0"][5] == "true" and rows["1"][5] == "true"
        report = json.loads(out_json.read_text())
        assert report["coincidence_count"] == 2
        assert report["min_values_match"] is True
        assert report["obstacle_minimizers_preserved"] is True

    def test_convex_obstacle_full_coincidence(self, tmp_path):
        tree = TruncatedTree(3, 3)
        fn = tmp_path / "f.csv"
        write_function(fn, tree, reference_convex_indicator(tree, Vertex(3, (0,))).values)
        out_json = tmp_path / "r.json"
        assert run("obstacle", "--m", "3", "--depth", "3", "--obstacle", str(fn),
                   "--out-json", str(out_json)) == 0
        report = json.loads(out_json.read_text())
        assert report["coincidence_count"] == tree.vertex_count


class TestConverge:
    def test_constant_zero_deltas(self, tmp_path):
        out_csv = tmp_path / "series.csv"
        out_json = tmp_path / "series.json"
        code = run("converge", "--m", "2", "--datum", "constant:1", "--depths", "2,3,4",
                   "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "depth,root_value,delta"
        assert lines[1] == "2,1.0,"
        assert lines[2] == "3,1.0,0.0"
        report = json.loads(out_json.read_text())
        assert report["deltas"] == [0.0, 0.0]

    def test_square_datum_flags(self, tmp_path):
        out_json = tmp_path / "series.json"
        code = run("converge", "--m", "2", "--datum", "power:2", "--depths", "4,5,6,7,8",
                   "--out-json", str(out_json))
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["deltas_all_positive"] is True
        assert report["deltas_non_increasing_after_first"] is True

    def test_depth_over_budget(self, capsys):
        assert run("converge", "--m", "2", "--datum", "constant:0", "--depths", "4,30") == 2
        assert "depth 30" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        for sweep in ("direct", "jacobi", "gs"):
            outs = []
            for name in ("a", "b"):
                out = tmp_path / f"{sweep}-{name}.csv"
                assert run("converge", "--m", "2", "--datum", "absdev:0.5", "--sweep", sweep,
                           "--depths", "4,5,6", "--out-csv", str(out)) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], sweep
