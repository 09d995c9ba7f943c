"""End-to-end CLI tests: exit codes, artifacts, determinism, round trips."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from treeconvex import (
    ENVELOPE_VARIANTS,
    LAPLACIAN_VARIANTS,
    SolveConfig,
    TreeFunction,
    TruncatedTree,
    Vertex,
    is_binary_convex,
    is_convex_operator,
    is_convex_segment,
    psi,
    sample_leaves,
    solve_dirichlet,
    solve_obstacle,
)
from treeconvex import _kernels, cli
from treeconvex.boundary import parse_datum
from treeconvex.cli import main, read_function_csv, write_dot, write_solution_csv


def run(*argv):
    return main(list(argv))


def write_function(path, tree, values):
    write_solution_csv(str(path), tree, np.asarray(values, dtype=np.float64))


def oracle_solution_csv(tree, values, coincidence=None):
    """The per-vertex writer: a `Vertex` and an exact `Fraction` psi per row."""
    header = "vertex,level,index,psi,value"
    if coincidence is not None:
        header += ",coincidence"
    lines = [header]
    for flat, v in enumerate(oracles.vertices(tree)):
        row = f"{v},{v.level},{v.index},{float(psi(v))!r},{float(values[flat])!r}"
        if coincidence is not None:
            row += ",true" if coincidence[flat] else ",false"
        lines.append(row)
    return "\n".join(lines) + "\n"


def oracle_dot(tree, values):
    lines = ["digraph tree {"]
    lines += [f'  "{v}" [label="{v}\\n{float(values[flat])!r}"];'
              for flat, v in enumerate(oracles.vertices(tree))]
    lines += [f'  "{v.parent}" -> "{v}";' for v in oracles.vertices(tree) if not v.is_root]
    lines.append("}")
    return "\n".join(lines) + "\n"


def artifact_data(tree, seed):
    """Random values with signed zero, the extremes of the float range and
    integers among them."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(tree.vertex_count) * 10.0 ** rng.integers(-8, 9, tree.vertex_count)
    special = [-0.0, 1e300, 5e-324, 0.0, 3.0, -12.0, 2.0**53, -1e300, 0.1]
    for i, x in enumerate(special):
        values[(i * 7919) % tree.vertex_count] = x
    return values


def reader_corpus():
    """(name, m, depth, file text, read by column?) for the differential
    reader test: canonical files and near misses of every kind."""
    cases = []
    for m, depth in [(2, 6), (3, 4), (5, 3)]:
        tree = TruncatedTree(m, depth)
        cases.append((f"canonical m={m}", m, depth,
                      oracle_solution_csv(tree, artifact_data(tree, m)), True))
    labels = TruncatedTree(3, 2).labels()
    texts = [repr(float(x)) for x in artifact_data(TruncatedTree(3, 2), 7)]
    base = [f"{v},{x}" for v, x in zip(labels, texts)]

    def rows(lines, header="vertex,value", end="\n"):
        return header + end + end.join(lines) + end

    def edit(i, line, insert=False):
        return rows(base[:i] + [line] + base[i + (not insert):])

    at = labels.index
    for name, text, by_column in [
        # layout
        ("reordered rows", rows(base[::-1]), False),
        ("label 00", edit(at("0"), f"00,{texts[at('0')]}"), False),
        ("label space 1", edit(at("1"), f" 1,{texts[at('1')]}"), False),
        ("label 1.02", edit(at("1.2"), f"1.02,{texts[at('1.2')]}"), False),
        # one character wider than the widest digit label, and than "root":
        # the vertex field is one wider than the longest label, so neither
        # cell is cut down to a label
        ("label 2.22", edit(at("2.2"), f"2.22,{texts[at('2.2')]}"), False),
        ("label roots", edit(0, f"roots,{texts[0]}"), False),
        ("extra columns", rows([f"{r},x,7" for r in base], "vertex,value,a,b"), True),
        ("reordered columns", rows([f"{x},7,{v}" for v, x in zip(labels, texts)],
                                   "value,a,vertex"), True),
        ("trailing commas", rows([r + "," for r in base], "vertex,value,"), True),
        ("missing row", rows(base[:-1]), False),
        ("duplicate row", rows(base + base[:1]), False),
        ("short row", edit(3, labels[3]), False),
        ("header only", "vertex,value\n", False),
        ("empty file", "", None),  # refused at the header, before either route
        # line endings
        ("crlf", rows(base, end="\r\n"), True),
        ("bare cr", rows(base, end="\r"), True),
        ("blank lines", edit(4, "", insert=True) + "\n\n", True),
        ("whitespace-only line", edit(4, "   ", insert=True), False),
        ("tab-only line", edit(4, "\t", insert=True), False),
        # quoting
        ("quoted cells", rows([f'"{v}","{x}"' for v, x in zip(labels, texts)]), True),
        ("quoted header", rows(base, '"vertex","value"'), True),
        ("multi-line quoted header", rows([r + ",x" for r in base], 'vertex,value,"a\nb"'),
         True),
        ("multi-line quoted value", edit(5, f'{labels[5]},"{texts[5]}\n"'), True),
        ("multi-line quoted label", edit(5, f'"{labels[5]}\n",{texts[5]}'), False),
        ("mid-field quote in value", edit(6, f'{labels[6]},1"5'), False),
        ("mid-field quote in label", edit(6, f'1"0,{texts[6]}'), False),
        ("quote then text", edit(6, f'"{labels[6]}"0,{texts[6]}'), False),
        # bytes
        ("NUL after value", edit(7, f"{labels[7]},{texts[7]}\x00"), False),
        ("NUL after label", edit(7, f"{labels[7]}\x00,{texts[7]}"), False),
        ("NUL inside value", edit(7, f"{labels[7]},1\x005"), False),
        # values
        ("underscore", edit(8, f"{labels[8]},1_0"), False),
        ("non-ASCII digits", edit(8, f"{labels[8]},\u0661\u0662.\u0665"), False),
        ("no-break spaces", edit(8, f"{labels[8]},\u00a0{texts[8]}\u00a0"), False),
        ("nan", edit(8, f"{labels[8]},nan"), False),
        ("inf", edit(8, f"{labels[8]},-inf"), False),
        ("1e400", edit(8, f"{labels[8]},1e400"), False),
        ("negative zero", edit(8, f"{labels[8]},-0.0"), True),
        ("smallest subnormal", edit(8, f"{labels[8]},5e-324"), True),
        ("bad value", edit(8, f"{labels[8]},0x1p3"), False),
    ]:
        cases.append((name, 3, 2, text, by_column))
    return cases


READER_CORPUS = reader_corpus()


def read_outcome(read, path, tree):
    """The bytes of the values read, or the type and text of the error."""
    try:
        return read(str(path), tree).values.tobytes()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


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
        ref = oracles.reference_convex_indicator(tree, x0)
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

    def test_datum_path_with_colon(self, tmp_path, monkeypatch):
        # "run:1/datum.csv" was read as a family "run" with arguments
        # "1/datum.csv" and refused as malformed; a file that exists is a path
        (tmp_path / "run:1").mkdir()
        (tmp_path / "run:1" / "datum.csv").write_text("t,g\n0,0\n1,1\n")
        (tmp_path / "plain.csv").write_text("t,g\n0,0\n1,1\n")
        monkeypatch.chdir(tmp_path)
        for datum, out in [("plain.csv", "plain-u.csv"), ("run:1/datum.csv", "colon-u.csv")]:
            assert run("solve", "--m", "2", "--depth", "3", "--datum", datum,
                       "--out-csv", out) == 0
        assert (tmp_path / "colon-u.csv").read_bytes() == (tmp_path / "plain-u.csv").read_bytes()

    def test_datum_csv_blank_lines(self, tmp_path, capsys):
        # a blank line inside a datum file or at its end is skipped, as in a
        # function CSV; a refused row is named by its file line
        for name, text in [("plain", "t,g\n0,0\n1,1\n"), ("inside", "t,g\n0,0\n\n1,1\n"),
                           ("end", "t,g\n0,0\n1,1\n\n")]:
            datum = tmp_path / f"{name}.csv"
            datum.write_text(text)
            assert run("solve", "--m", "2", "--depth", "3", "--datum", str(datum),
                       "--out-csv", str(tmp_path / f"{name}-u.csv")) == 0
        assert (tmp_path / "inside-u.csv").read_bytes() == (tmp_path / "plain-u.csv").read_bytes()
        assert (tmp_path / "end-u.csv").read_bytes() == (tmp_path / "plain-u.csv").read_bytes()
        bad = tmp_path / "bad.csv"
        bad.write_text("t,g\n0,0\n\n0.5\n1,1\n")
        assert run("solve", "--m", "2", "--depth", "3", "--datum", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {bad}: row 4: expected 2 columns, got 1\n"

    def test_oversized_depth_names_budget(self, capsys):
        # refused by depth before the vertex count is formed or printed
        assert run("solve", "--m", "2", "--depth", "20000", "--datum", "constant:1") == 2
        err = capsys.readouterr().err
        assert "more than 2^20000 vertices, over the budget of" in err
        assert "integer string conversion" not in err

    def test_non_convergence_exit_code_and_artifacts(self, tmp_path, capsys):
        out_csv = tmp_path / "u.csv"
        out_json = tmp_path / "r.json"
        code = run("solve", "--m", "2", "--depth", "5", "--datum", "power:2",
                   "--max-iter", "1", "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert code == 3
        assert out_csv.exists()
        assert json.loads(out_json.read_text())["converged"] is False
        err = capsys.readouterr().err
        assert "did not converge after 1 iterations" in err
        assert " at vertex " in err and "last change" in err

    @pytest.mark.parametrize("variant,k,line", [
        ("convex", [], "residual nan at vertex root, last change nan"),
        ("binary", [], "residual inf at vertex root, last change 0.0"),
        ("kconvex", ["--k", "2"], "residual inf at vertex root, last change 0.0"),
        ("laplacian-full", [], "residual inf at vertex root, last change 0.0"),
        ("laplacian-arb", [], "residual inf at vertex root, last change 0.0"),
    ], ids=["convex", "binary", "kconvex", "laplacian-full", "laplacian-arb"])
    def test_overflow_reported_without_warnings(self, tmp_path, capsys, variant, k, line):
        # data near the float maximum overflow every operator: the one stderr
        # line is the report of a defect that is not finite, with no NumPy
        # warning before it (the suite turns warnings into errors); JSON (RFC
        # 8259) has no NaN or Infinity, so --out-json writes that defect as null
        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        out_json = tmp_path / "r.json"
        assert run("solve", "--m", "2", "--depth", "3", "--datum", "constant:1e308",
                   "--variant", variant, *k, "--out-json", str(out_json)) == 3
        assert capsys.readouterr().err == f"did not converge after 1 iterations: {line}\n"
        assert json.loads(out_json.read_text(), parse_constant=refuse)["final_residual"] is None
        assert run("converge", "--m", "2", "--depths", "2,3", "--datum", "constant:1e308",
                   "--variant", variant, *k, "--out-json", str(out_json)) == 3
        series = json.loads(out_json.read_text(), parse_constant=refuse)
        assert all(x is None or np.isfinite(x) for x in series["root_values"] + series["deltas"])

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

    def test_invalid_config(self, tmp_path, capsys):
        assert run("solve", "--m", "1", "--depth", "2", "--datum", "constant:0") == 2
        # there is one solve engine, so no flag picks one
        with pytest.raises(SystemExit) as exc:
            run("solve", "--m", "2", "--depth", "2", "--datum", "constant:0", "--sweep", "jacobi")
        assert exc.value.code == 2
        # an infinite tol reported an unsolved convex solve as converged
        fn = tmp_path / "f.csv"
        write_function(fn, TruncatedTree(2, 2), np.zeros(7))
        for tol in ("inf", "nan"):
            for argv in (["solve", "--depth", "2", "--datum", "power:2"],
                         ["obstacle", "--depth", "2", "--obstacle", str(fn)],
                         ["converge", "--depths", "2,3", "--datum", "power:2"]):
                capsys.readouterr()
                assert run(*argv, "--m", "2", "--tol", tol) == 2, (tol, argv[0])
                assert "tol must be finite and positive" in capsys.readouterr().err
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

    def test_inf_sampling_over_budget(self, capsys):
        for argv in (["solve", "--depth", "4"], ["converge", "--depths", "3,4"]):
            assert run(*argv, "--m", "2", "--datum", "absdev:0.5",
                       "--sampling", "inf:65537") == 2
            err = capsys.readouterr().err
            assert "65537 subsamples exceed the budget of 65536 per leaf" in err


SOLVE = ["solve", "--m", "2", "--depth", "3", "--datum", "power:2"]
CONVERGE = ["converge", "--m", "2", "--datum", "power:2", "--depths", "3,4"]
DATUM_FILES = {"empty.csv": "", "wide.csv": "t,g\n0,1,2\n1,0\n",
               "one.csv": "t,g\n0,1\n", "header.csv": "t,g\n",
               "gnan.csv": "t,g\n0,nan\n1,1\n", "ginf.csv": "t,g\n0,0\n0.5,inf\n1,1\n",
               "tnan.csv": "t,g\n0,0\nnan,1\n1,1\n",
               # a cell over the csv module's field limit was an uncaught csv.Error
               "big.csv": f"t,g\n0,{'1' * max(140_000, csv.field_size_limit() + 1)}\n1,2\n"}
KINDS = "expected constant:c, affine:a,b, power:p, absdev:c, indicator:lo,hi, or a CSV file path"


class TestInputErrors:
    """Each refusal exits 2 with its message; a later flag overrides the base
    command's, and DIR stands for the directory of the datum files."""

    @pytest.mark.parametrize("argv,message", [
        (SOLVE + ["--sampling", "inf:x"], "malformed sampling spec 'inf:x'"),
        (SOLVE + ["--sampling", "foo"], "sampling must be 'point' or 'inf:N', got 'foo'"),
        (SOLVE + ["--sampling", "inf"], "sampling must be 'point' or 'inf:N', got 'inf'"),
        (SOLVE + ["--datum", "power:x"], "malformed datum arguments in 'power:x'"),
        (SOLVE + ["--datum", "const:1"], f"unknown datum spec 'const:1'; {KINDS}"),
        (SOLVE + ["--datum", "abs_dev:0.5"], f"unknown datum spec 'abs_dev:0.5'; {KINDS}"),
        (SOLVE + ["--datum", "DIR/empty.csv"], "DIR/empty.csv: empty datum file"),
        (SOLVE + ["--datum", "DIR/wide.csv"], "DIR/wide.csv: row 2: expected 2 columns, got 3"),
        (SOLVE + ["--datum", "DIR/one.csv"],
         "DIR/one.csv: piecewise datum needs at least two knots, got 1"),
        (SOLVE + ["--datum", "DIR/header.csv"],
         "DIR/header.csv: piecewise datum needs at least two knots, got 0"),
        (SOLVE + ["--datum", "DIR/big.csv"],
         f"DIR/big.csv: row 2: field larger than field limit ({csv.field_size_limit()})"),
        (SOLVE + ["--datum", "DIR/gnan.csv"], "DIR/gnan.csv: row 2: g must be finite, got nan"),
        (SOLVE + ["--datum", "DIR/ginf.csv"], "DIR/ginf.csv: row 3: g must be finite, got inf"),
        (SOLVE + ["--datum", "DIR/tnan.csv"], "DIR/tnan.csv: row 3: t must be finite, got nan"),
        # a non-finite parameter is refused when the datum is built, before
        # any leaf is sampled (`affine:inf,0` made NumPy warn of inf * 0)
        (SOLVE + ["--datum", "power:nan"], "power parameter p must be finite, got nan"),
        (SOLVE + ["--datum", "constant:inf"], "constant parameter c must be finite, got inf"),
        (SOLVE + ["--datum", "absdev:nan"], "absdev parameter c must be finite, got nan"),
        (SOLVE + ["--datum", "affine:inf,0"], "affine parameter a must be finite, got inf"),
        (SOLVE + ["--datum", "indicator:nan,1"],
         "indicator parameter lo must be finite, got nan"),
        (CONVERGE + ["--datum", "affine:1,-inf"], "affine parameter b must be finite, got -inf"),
        # finite parameters whose values overflow: the solve refuses the
        # leaves, and NumPy's overflow warning is not printed first
        (SOLVE + ["--datum", "affine:1e308,1e308"], "leaf values must be finite"),
        # a variant is named as the command line spells it
        (SOLVE + ["--m", "3", "--variant", "laplacian-arb", "--k", "2"],
         "k is only meaningful for variant 'kconvex', got variant 'laplacian-arb'"),
        (CONVERGE + ["--variant", "laplacian-full", "--k", "2"],
         "k is only meaningful for variant 'kconvex', got variant 'laplacian-full'"),
        (CONVERGE + ["--depths", "0,3"], "depth must be >= 1, got 0"),
        (CONVERGE + ["--depths", "3,,4"], "malformed depths '3,,4'"),
        (CONVERGE + ["--datum", "DIR/one.csv"],
         "DIR/one.csv: piecewise datum needs at least two knots, got 1"),
        # a spec is a family only when the text before its first ':' names
        # one; any other spec is a path, and a missing one is still refused
        (SOLVE + ["--datum", "constant:"], f"unknown datum spec 'constant:'; {KINDS}"),
        (SOLVE + ["--datum", "power:1,2"], f"unknown datum spec 'power:1,2'; {KINDS}"),
        (SOLVE + ["--datum", "DIR/no:such.csv"], f"unknown datum spec 'DIR/no:such.csv'; {KINDS}"),
        (SOLVE + ["--datum", "DIR/nosuch.csv"],
         "datum 'DIR/nosuch.csv' is neither a builtin family nor an existing file"),
    ], ids=["inf-x", "foo", "inf-alias", "power-x", "const-alias", "abs_dev-alias",
            "empty-datum", "wide-datum", "one-knot", "no-knot", "big-datum-cell", "knot-g-nan",
            "knot-g-inf", "knot-t-nan", "power-nan", "constant-inf", "absdev-nan", "affine-inf",
            "indicator-nan", "converge-affine-inf", "affine-overflow", "laplacian-arb-k",
            "laplacian-full-k", "depth-0",
            "empty-depth", "converge-one-knot", "constant-empty", "power-two",
            "missing-colon-path", "missing-path"])
    def test_refused_with_message(self, tmp_path, capsys, argv, message):
        for name, text in DATUM_FILES.items():
            (tmp_path / name).write_text(text)
        argv = [a.replace("DIR", str(tmp_path)) for a in argv]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {message.replace('DIR', str(tmp_path))}\n"

    def test_vertex_text_is_ascii_digits(self, tmp_path, capsys):
        # `int` read "-0" as 0 and "+1" as 1, so this file passed as m=2 depth 1
        fn = tmp_path / "f.csv"
        fn.write_text("vertex,value\nroot,0\n-0,1\n+1,1\n")
        assert run("check", "--m", "2", "--depth", "1", "--function", str(fn)) == 2
        assert capsys.readouterr().err == f"error: {fn}: row 3: malformed vertex text '-0'\n"

    def test_obstacle_offers_only_envelope_variants(self, tmp_path, capsys):
        fn = tmp_path / "f.csv"
        write_function(fn, TruncatedTree(2, 2), np.zeros(7))
        with pytest.raises(SystemExit) as exc:
            run("obstacle", "--m", "2", "--depth", "2", "--obstacle", str(fn),
                "--variant", "laplacian-full")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'laplacian-full'" in err
        choices = err.split("choose from")[1]
        assert "kconvex" in choices and "laplacian" not in choices


# Every row of the variant table, written out, so that a row that drifts fails.
VARIANT_ROWS = {
    "convex": dict(kernel=_kernels._min_kernel, reads_parent=True, takes_k=False,
                   envelope=True, cli="convex"),
    "binary": dict(kernel=_kernels._min_kernel, reads_parent=False, takes_k=False,
                   envelope=True, cli="binary"),
    "kconvex": dict(kernel=_kernels._k_smallest_mean, reads_parent=False, takes_k=True,
                    envelope=True, cli="kconvex"),
    "laplacian_full": dict(kernel=_kernels._mean_kernel, reads_parent=True, takes_k=False,
                           envelope=False, cli="laplacian-full"),
    "laplacian_arborescence": dict(kernel=_kernels._mean_kernel, reads_parent=False,
                                   takes_k=False, envelope=False, cli="laplacian-arb"),
}


def variant_choices(command):
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices[command]._actions if a.dest == "variant").choices


class TestVariantTable:
    def test_rows(self):
        assert [(v, row._asdict()) for v, row in _kernels._VARIANTS.items()] == \
            list(VARIANT_ROWS.items())
        assert ENVELOPE_VARIANTS + LAPLACIAN_VARIANTS == tuple(VARIANT_ROWS)

    def test_cli_choices(self):
        spellings = [row["cli"] for row in VARIANT_ROWS.values()]
        for command in ("solve", "converge"):
            assert sorted(variant_choices(command)) == sorted(spellings)
        assert sorted(variant_choices("obstacle")) == sorted(
            row["cli"] for row in VARIANT_ROWS.values() if row["envelope"])

    @pytest.mark.parametrize("variant", VARIANT_ROWS)
    def test_cli_round_trip(self, tmp_path, variant):
        # the --variant spelling solves the row's library variant, bitwise
        row = VARIANT_ROWS[variant]
        k = 2 if row["takes_k"] else None
        out_csv = tmp_path / "u.csv"
        assert run("solve", "--m", "3", "--depth", "4", "--datum", "absdev:0.3",
                   "--variant", row["cli"], *(["--k", str(k)] if k else []),
                   "--out-csv", str(out_csv)) == 0
        tree = TruncatedTree(3, 4)
        report = solve_dirichlet(tree, sample_leaves(parse_datum("absdev:0.3"), tree),
                                 SolveConfig(variant=variant, k=k))
        assert report.converged
        got = read_function_csv(str(out_csv), tree).values
        assert got.tobytes() == report.solution.values.tobytes()


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
        write_function(fn, tree, oracles.reference_binary_indicator(tree, x0).values)
        out_json = tmp_path / "checks.json"
        assert run("check", "--m", "3", "--depth", "3", "--function", str(fn),
                   "--out-json", str(out_json)) == 0
        checks = json.loads(out_json.read_text())["checks"]
        assert checks["binary_operator"]["ok"] is True
        assert checks["binary_subtrees"]["ok"] is True
        assert checks["convex_operator"]["ok"] is False
        assert "1" in checks["convex_operator"]["violations"]
        assert checks["segment"]["ok"] is False

    def test_subtree_check_at_the_budget_edge(self, tmp_path):
        # m=2 depth 5 is the largest binary tree the subtree budget admits;
        # its root's 458,329 subtrees are checked block by block
        tree = TruncatedTree(2, 5)
        g = np.random.default_rng(157).uniform(0, 1, tree.leaf_count)
        values = solve_dirichlet(tree, g, SolveConfig(variant="convex")).solution.values.copy()
        raised = Vertex(2, (0, 1))
        values[tree.flat_index(raised)] += 1.0
        fn = tmp_path / "f.csv"
        write_function(fn, tree, values)
        outs = []
        for name in ("a.json", "b.json"):
            assert run("check", "--m", "2", "--depth", "5", "--function", str(fn),
                       "--out-json", str(tmp_path / name)) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
        subtrees = json.loads(outs[0])["checks"]["binary_subtrees"]
        assert subtrees == {"ok": False, "checked": 459_829, "violations": [str(raised)]}

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

    def test_payload_to_stdout_without_out_json(self, tmp_path, capsys):
        tree = TruncatedTree(2, 2)
        fn = tmp_path / "f.csv"
        write_function(fn, tree, np.ones(tree.vertex_count))
        out_json = tmp_path / "checks.json"
        assert run("check", "--m", "2", "--depth", "2", "--function", str(fn),
                   "--out-json", str(out_json)) == 0
        capsys.readouterr()
        assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 0
        assert capsys.readouterr().out == out_json.read_text()

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
            f"{v},0" for v in oracles.vertices(tree)) + "\nroot,0\n")
        assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 2
        assert "duplicate" in capsys.readouterr().err

        fn.write_text("vertex,value\n" + "\n".join(
            f"{v},x" for v in oracles.vertices(tree)) + "\n")
        assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 2
        assert "bad value" in capsys.readouterr().err

        # a row without its value cell, and non-finite values, name path and row
        rows = [f"{v},0" for v in oracles.vertices(tree)]
        for bad_row, message in [("1.0", "missing 'value' cell"),
                                 ("1.0,nan", "non-finite value 'nan'"),
                                 ("1.0,inf", "non-finite value 'inf'")]:
            fn.write_text("vertex,value\n" + "\n".join(rows[:5] + [bad_row] + rows[6:]) + "\n")
            assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 2
            assert f"{fn}: row 7: {message}" in capsys.readouterr().err

        # the row number is the file line, blank lines included
        fn.write_text("vertex,value\nroot,0\n\n\n1,0\n0,x\n")
        assert run("check", "--m", "2", "--depth", "1", "--function", str(fn)) == 2
        assert f"{fn}: row 6: bad value 'x'" in capsys.readouterr().err

        # a repeated column name is refused, not read from its last copy
        for header, column in [("vertex,value,vertex", "vertex"), ("value,vertex,value", "value")]:
            fn.write_text(header + "\n" + "\n".join(
                f"{v},0,x" for v in oracles.vertices(tree)) + "\n")
            assert run("check", "--m", "2", "--depth", "2", "--function", str(fn)) == 2
            assert f"{fn}: duplicate column '{column}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "obstacle"])
    def test_oversized_cell_is_input_error(self, tmp_path, capsys, command):
        # a cell longer than the csv module's field limit was an uncaught
        # csv.Error (a traceback and exit 1); it names its row and exits 2
        tree = TruncatedTree(2, 2)
        limit = csv.field_size_limit()
        long = "0." + "0" * max(140_000, limit) + "1"
        spanning = '"0.5' + "\n" * limit + '"'
        rows = [f"{v},0" for v in oracles.vertices(tree)]
        fn = tmp_path / "f.csv"
        flag = "--function" if command == "check" else "--obstacle"
        for text, row in [
                ("vertex,value\n" + "\n".join(rows[:1] + ["1,x" + long] + rows[1:2]
                                               + rows[3:]) + "\n", 3),
                # the rows out of flat order send a number the row scan
                ("vertex,value\n" + "\n".join(rows[::-1][:4] + [rows[2][:-1] + long]
                                               + rows[::-1][5:]) + "\n", 6),
                (f"vertex,value,{long}\n" + "\n".join(rows) + "\n", 1),
                # in flat order, with a long value that parses as a number
                ("vertex,value\n" + "\n".join(rows[:2] + [rows[2][:-1] + long]
                                               + rows[3:]) + "\n", 4),
                # a quoted value of short lines, longer than the limit in all:
                # "0.5" and the newlines that end lines 4 to limit + 1 pass it
                ("vertex,value\n" + "\n".join(rows[:2] + [rows[2][:-1] + spanning]
                                               + rows[3:]) + "\n", limit + 1)]:
            fn.write_text(text)
            assert run(command, "--m", "2", "--depth", "2", flag, str(fn)) == 2
            err = capsys.readouterr().err
            assert f"{fn}: row {row}: field larger than field limit" in err, err

    def test_violation_lists_match_library(self, tmp_path):
        tree = TruncatedTree(2, 5)
        u = TreeFunction.from_values(tree, np.random.default_rng(3).standard_normal(tree.vertex_count))
        fn = tmp_path / "f.csv"
        write_function(fn, tree, u.values)
        out_json = tmp_path / "checks.json"
        assert run("check", "--m", "2", "--depth", "5", "--function", str(fn),
                   "--out-json", str(out_json)) == 0
        checks = json.loads(out_json.read_text())["checks"]
        library = {"convex_operator": is_convex_operator(u),
                   "binary_operator": is_binary_convex(u, mode="operator"),
                   "segment": is_convex_segment(u),
                   "binary_subtrees": is_binary_convex(u, mode="subtrees")}
        for name, check in library.items():
            assert check.violations, name
            want = [str(tree.vertex_at(i)) for i in check.violations]
            assert checks[name]["violations"] == want, name


class TestArtifactBytes:
    CASES = [(2, 1), (2, 4), (2, 12), (3, 1), (3, 3), (3, 7), (5, 1), (5, 2), (5, 5)]

    @pytest.mark.parametrize("m,depth", CASES)
    def test_writers_match_per_vertex_oracle(self, tmp_path, m, depth):
        tree = TruncatedTree(m, depth)
        values = artifact_data(tree, 1000 * m + depth)
        coincidence = np.random.default_rng(depth).random(tree.vertex_count) < 0.5
        path = tmp_path / "u.csv"
        write_solution_csv(str(path), tree, values)
        assert path.read_bytes() == oracle_solution_csv(tree, values).encode()
        write_solution_csv(str(path), tree, values, coincidence=coincidence)
        assert path.read_bytes() == oracle_solution_csv(tree, values, coincidence).encode()
        dot = tmp_path / "t.dot"
        write_dot(str(dot), tree, values)
        assert dot.read_bytes() == oracle_dot(tree, values).encode()

    @pytest.mark.parametrize("m,depth", [(2, 17), (3, 10), (5, 7), (7, 6)])
    def test_psi_column_at_depth(self, tmp_path, m, depth):
        # the writer formats the leaf level's psi only; every level's column
        # is still each index / m^level, correctly rounded
        tree = TruncatedTree(m, depth)
        path = tmp_path / "u.csv"
        write_solution_csv(str(path), tree, np.zeros(tree.vertex_count))
        column = [line.split(",")[3] for line in path.read_text().splitlines()[1:]]
        expected = []
        for level in range(depth + 1):
            n = m**level
            expected += map(repr, (np.arange(n) / float(n)).tolist())
        assert column == expected

    @pytest.mark.parametrize("m,depth", [(2, 12), (3, 7), (5, 5)])
    def test_read_round_trip_is_bitwise(self, tmp_path, m, depth):
        tree = TruncatedTree(m, depth)
        values = artifact_data(tree, depth)
        path = tmp_path / "u.csv"
        write_solution_csv(str(path), tree, values)
        assert read_function_csv(str(path), tree).values.tobytes() == values.tobytes()

    def test_writers_refuse_wrong_lengths(self, tmp_path):
        """A value or coincidence array that is not one entry per vertex is
        refused, naming the count, before the file is created."""
        tree = TruncatedTree(2, 3)
        n = tree.vertex_count
        path, dot = tmp_path / "u.csv", tmp_path / "t.dot"
        for size in (5, 40):
            with pytest.raises(ValueError, match=f"^expected {n} values, got shape \\({size},\\)$"):
                write_solution_csv(str(path), tree, np.zeros(size))
            with pytest.raises(ValueError, match=f"^expected {n} values, got shape \\({size},\\)$"):
                write_dot(str(dot), tree, np.zeros(size))
        with pytest.raises(ValueError, match=f"^expected {n} coincidence flags, got shape \\(3,\\)$"):
            write_solution_csv(str(path), tree, np.zeros(n), np.zeros(3, dtype=bool))
        assert not path.exists() and not dot.exists()

    def test_non_canonical_labels(self, tmp_path):
        # `Vertex.parse` reads "00" as 0 and "1.02" as 1.2 at m=3, so these
        # rows name the vertices "0", "1" and "1.2"
        tree = TruncatedTree(3, 2)
        texts = {"0": "00", "1": " 1", "1.2": "1.02"}
        rows = [f"{texts.get(str(v), v)},{flat}"
                for flat, v in enumerate(oracles.vertices(tree))]
        path = tmp_path / "f.csv"
        path.write_text("vertex,value\n" + "\n".join(rows) + "\n")
        np.testing.assert_array_equal(read_function_csv(str(path), tree).values,
                                      np.arange(tree.vertex_count))
        for extra in ("0,5", "1.2,5", " 1,5"):
            path.write_text("vertex,value\n" + "\n".join(rows + [extra]) + "\n")
            with pytest.raises(ValueError, match=f"row 15: duplicate vertex '{extra[:-2]}'"):
                read_function_csv(str(path), tree)

    @pytest.mark.parametrize("m,depth", [(2, 6), (3, 4), (5, 3)])
    def test_cli_artifacts_match_per_vertex_oracle(self, tmp_path, m, depth):
        # one command writes CSV and DOT from the same labels and value texts
        tree = TruncatedTree(m, depth)
        cfg = SolveConfig(variant="convex")
        u = solve_dirichlet(tree, sample_leaves(parse_datum("absdev:0.3"), tree), cfg)
        csv_path, dot_path = tmp_path / "u.csv", tmp_path / "u.dot"
        assert run("solve", "--m", str(m), "--depth", str(depth), "--datum", "absdev:0.3",
                   "--out-csv", str(csv_path), "--out-dot", str(dot_path)) == 0
        assert csv_path.read_bytes() == oracle_solution_csv(tree, u.solution.values).encode()
        assert dot_path.read_bytes() == oracle_dot(tree, u.solution.values).encode()

        f = np.random.default_rng(m).uniform(-1.0, 1.0, tree.vertex_count)
        f[::7] = np.round(f[::7])  # signed zeros and integers among the data
        obstacle = tmp_path / "f.csv"
        write_function(obstacle, tree, f)
        result = solve_obstacle(TreeFunction.from_values(tree, f), cfg)
        assert run("obstacle", "--m", str(m), "--depth", str(depth), "--obstacle", str(obstacle),
                   "--out-csv", str(csv_path), "--out-dot", str(dot_path)) == 0
        envelope = result.envelope.values
        assert csv_path.read_bytes() == oracle_solution_csv(
            tree, envelope, result.coincidence_mask).encode()
        assert dot_path.read_bytes() == oracle_dot(tree, envelope).encode()


class TestReader:
    """The reader against the row-by-row reference in `oracles`: equal
    values, bit for bit, or the same error text."""

    @pytest.mark.parametrize("name,m,depth,text,by_column", READER_CORPUS,
                             ids=[case[0] for case in READER_CORPUS])
    def test_matches_row_reference(self, tmp_path, monkeypatch, name, m, depth, text,
                                   by_column):
        tree = TruncatedTree(m, depth)
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode())
        scanned = []
        read_rows = cli._read_rows
        monkeypatch.setattr(cli, "_read_rows", lambda *a: scanned.append(1) or read_rows(*a))
        got = read_outcome(read_function_csv, path, tree)
        assert got == read_outcome(oracles.read_function_csv, path, tree)
        if by_column is not None:
            assert (not scanned) == by_column

    @pytest.mark.skipif(sys.platform != "linux", reason="opens a pipe through /dev/fd")
    @pytest.mark.parametrize("name", ["canonical m=2", "label 00"])
    def test_pipe_reads_like_a_file(self, tmp_path, name):
        # a shell's `<(cat f.csv)` names a pipe, which yields its bytes once:
        # a reader that opened its path again would read nothing the second time
        _, m, depth, text, _ = next(case for case in READER_CORPUS if case[0] == name)
        tree = TruncatedTree(m, depth)
        data = text.encode()
        assert len(data) < 65536  # the pipe holds all of it before anything reads
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            got = read_outcome(read_function_csv, f"/dev/fd/{r}", tree)
        finally:
            os.close(r)
        assert got == read_outcome(read_function_csv, path, tree)

    @given(st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_edited_files_match_row_reference(self, tmp_path_factory, data):
        m, depth = data.draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
        tree = TruncatedTree(m, depth)
        text = oracle_solution_csv(tree, artifact_data(tree, depth))
        if data.draw(st.booleans()):
            text = "vertex,value\n" + "".join(
                f"{line.split(',')[0]},{line.split(',')[4]}\n" for line in text.splitlines()[1:])
        pieces = st.sampled_from(['"', ",", "\r", "\n", " ", "\t", "\x00", "\x0c", "_", "e",
                                  ".", "-", "0", "1", "r", "n", "\u00a0", "\u0661", '""'])
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 1))
            text = text[:at] + data.draw(pieces) + text[at + cut:]
        path = tmp_path_factory.mktemp("edit") / "f.csv"
        path.write_bytes(text.encode())
        assert (read_outcome(read_function_csv, path, tree)
                == read_outcome(oracles.read_function_csv, path, tree))


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
        write_function(fn, tree, oracles.reference_convex_indicator(tree, Vertex(3, (0,))).values)
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

    def test_oversized_depth_names_budget(self, capsys):
        assert run("converge", "--m", "2", "--datum", "constant:0", "--depths", "3,20000") == 2
        err = capsys.readouterr().err
        assert "depth 20000 exceeds the study budget (m^depth > 16777216 leaves)" in err
        assert "integer string conversion" not in err

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        out_csv = tmp_path / "series.csv"
        assert run("converge", "--m", "2", "--datum", "absdev:0.5", "--depths", "3,4",
                   "--max-iter", "1", "--out-csv", str(out_csv)) == 3
        assert capsys.readouterr().err == "did not converge at depths [3, 4]\n"
        assert out_csv.read_text().startswith("depth,root_value,delta\n3,")

    def test_worst_vertices(self, tmp_path):
        # each depth's worst-defect vertex, as the solve at that depth reports it
        out_json = tmp_path / "series.json"
        depths = [3, 4, 5]
        assert run("converge", "--m", "3", "--datum", "absdev:0.4", "--depths", "3,4,5",
                   "--out-json", str(out_json)) == 0
        report = json.loads(out_json.read_text())
        expected = []
        for depth in depths:
            tree = TruncatedTree(3, depth)
            leaves = sample_leaves(parse_datum("absdev:0.4"), tree)
            expected.append(str(solve_dirichlet(tree, leaves, SolveConfig()).worst_vertex))
        assert report["worst_vertices"] == expected
        assert list(report) == [
            "command", "m", "depth", "variant", "k", "tol", "max_iter", "datum", "sampling",
            "depths", "root_values", "deltas", "converged", "worst_vertices",
            "deltas_all_positive", "deltas_non_increasing_after_first"]

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            assert run("converge", "--m", "2", "--datum", "absdev:0.5",
                       "--depths", "4,5,6", "--out-csv", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
