"""Boundary datum, leaf sampling, and convergence-study tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from treeconvex import (
    BoundaryDatum,
    SolveConfig,
    TruncatedTree,
    Vertex,
    convergence_study,
    leaf_psi_values,
    load_datum_csv,
    parse_datum,
    sample_leaves,
)
from treeconvex.boundary import _FAMILIES, SUBSAMPLE_BUDGET

import oracles


def at(g, *ts):
    return g.evaluate(np.array(ts)).tolist()


class TestDatumFamilies:
    def test_evaluations(self):
        assert at(parse_datum("constant:2.5"), 0.3) == [2.5]
        assert at(parse_datum("affine:2,-1"), 0.75) == pytest.approx([0.5])
        assert at(parse_datum("power:2"), 0.5) == [0.25]
        assert at(parse_datum("absdev:0.5"), 0.2) == pytest.approx([0.3])
        assert at(parse_datum("indicator:0.25,0.5"), 0.25, 0.5, 0.6) == [1.0, 1.0, 0.0]
        pw = BoundaryDatum.piecewise_linear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        assert at(pw, 0.25) == pytest.approx([0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryDatum("power", (-1,))
        with pytest.raises(ValueError):
            BoundaryDatum("indicator", (0.5, 0.25))
        with pytest.raises(ValueError, match="first t"):
            BoundaryDatum.piecewise_linear([(0.1, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="last t"):
            BoundaryDatum.piecewise_linear([(0.0, 0.0), (0.9, 1.0)])
        with pytest.raises(ValueError, match="increase strictly"):
            BoundaryDatum.piecewise_linear([(0.0, 0.0), (0.4, 1.0), (0.4, 2.0), (1.0, 0.0)])

    def test_parse_specs(self):
        assert parse_datum("constant:2") == BoundaryDatum("constant", (2.0,))
        assert parse_datum("affine:1,0") == BoundaryDatum("affine", (1.0, 0.0))
        assert parse_datum("power:2") == BoundaryDatum("power", (2.0,))
        assert parse_datum("absdev:0.5") == BoundaryDatum("absdev", (0.5,))
        assert parse_datum("indicator:0.25,0.75") == BoundaryDatum("indicator", (0.25, 0.75))
        with pytest.raises(ValueError, match="unknown datum"):
            parse_datum("sine:1")
        with pytest.raises(ValueError, match="neither"):
            parse_datum("no-such-file.csv")
        # one spelling per family
        for spec in ("const:1", "abs_dev:0.5"):
            with pytest.raises(ValueError, match="unknown datum"):
                parse_datum(spec)

    def test_path_with_colon(self, tmp_path):
        # a path whose text before the first ':' names no family is a path
        (tmp_path / "run:1").mkdir()
        want = BoundaryDatum.piecewise_linear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        for path in (tmp_path / "run:1" / "datum.csv", tmp_path / "g:1.csv"):
            path.write_text("t,g\n0,0\n0.5,1\n1,0\n")
            assert parse_datum(str(path)) == want

    def test_csv_loading_and_row_errors(self, tmp_path):
        good = tmp_path / "g.csv"
        good.write_text("t,g\n0,0\n0.5,1\n1,0\n")
        datum = load_datum_csv(str(good))
        assert at(datum, 0.25) == pytest.approx([0.5])

        bad_header = tmp_path / "h.csv"
        bad_header.write_text("x,y\n0,0\n1,1\n")
        with pytest.raises(ValueError, match="header"):
            load_datum_csv(str(bad_header))

        non_increasing = tmp_path / "n.csv"
        non_increasing.write_text("t,g\n0,0\n0.6,1\n0.4,2\n1,0\n")
        with pytest.raises(ValueError, match="row 4"):
            load_datum_csv(str(non_increasing))

        non_numeric = tmp_path / "z.csv"
        non_numeric.write_text("t,g\n0,0\nmid,1\n1,0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_datum_csv(str(non_numeric))

        # a table too short for `_knot_error` is refused with its path too
        for rows in ([], ["0,1"]):
            short = tmp_path / f"short{len(rows)}.csv"
            short.write_text("t,g\n" + "".join(f"{row}\n" for row in rows))
            with pytest.raises(ValueError) as exc:
                load_datum_csv(str(short))
            assert str(exc.value) == (f"{short}: piecewise datum needs at least two knots, "
                                      f"got {len(rows)}")

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        # as in a function CSV, and a row is still named by its file line
        path = tmp_path / "b.csv"
        for text in ("t,g\n0,0\n\n1,1\n", "t,g\n0,0\n1,1\n\n", "t,g\n\n\n0,0\n\n1,1\n\n\n"):
            path.write_text(text)
            assert load_datum_csv(str(path)).knots == ((0.0, 0.0), (1.0, 1.0))
        for text, message in [
                ("t,g\n0,0\n\n0.5,x\n1,1\n", "row 4: non-numeric entry ['0.5', 'x']"),
                ("t,g\n0,0\n\n0.5,1,2\n1,1\n", "row 4: expected 2 columns, got 3"),
                ("t,g\n0,0\n\n0.6,1\n\n0.4,2\n1,1\n",
                 "row 6: t must increase strictly (0.4 after 0.6)"),
                ("t,g\n0,0\n0.5,1\n\n0.9,1\n\n", "row 5: last t must be 1, got 0.9")]:
            path.write_text(text)
            with pytest.raises(ValueError) as exc:
                load_datum_csv(str(path))
            assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("knots,number,reason", [
        ([(0.1, 0.0), (1.0, 1.0)], 1, "first t must be 0, got 0.1"),
        ([(0.0, 0.0), (0.5, 1.0), (0.9, 0.0)], 3, "last t must be 1, got 0.9"),
        ([(0.0, 0.0), (0.6, 1.0), (0.4, 2.0), (1.0, 0.0)], 3,
         "t must increase strictly (0.4 after 0.6)"),
        # a non-finite knot is named where it is read; a nan t was refused as
        # out of order, and a non-finite g reached the solve
        ([(0.0, float("nan")), (1.0, 1.0)], 1, "g must be finite, got nan"),
        ([(0.0, 0.0), (0.5, float("inf")), (1.0, 0.0)], 2, "g must be finite, got inf"),
        ([(0.0, 0.0), (float("nan"), 1.0), (1.0, 0.0)], 2, "t must be finite, got nan"),
    ], ids=["first", "last", "order", "g-nan", "g-inf", "t-nan"])
    def test_knot_errors_in_table_and_file(self, tmp_path, knots, number, reason):
        # knot n of a table is data row n + 1 of its file (the header is row 1)
        with pytest.raises(ValueError) as table:
            BoundaryDatum.piecewise_linear(knots)
        assert str(table.value) == f"knot {number}: {reason}"
        path = tmp_path / "d.csv"
        path.write_text("t,g\n" + "".join(f"{t},{g}\n" for t, g in knots))
        with pytest.raises(ValueError) as file:
            load_datum_csv(str(path))
        assert str(file.value) == f"{path}: row {number + 1}: {reason}"

    def test_one_knot_check_per_file(self, tmp_path, monkeypatch):
        # the reader leaves the knot check to the datum it builds: one pass
        # over the knots per file
        import treeconvex.boundary as boundary

        calls, real = [], boundary._knot_error
        monkeypatch.setattr(boundary, "_knot_error", lambda pts: calls.append(1) or real(pts))
        path = tmp_path / "d.csv"
        for n in (2, 5, 513):
            t = np.linspace(0, 1, n).tolist()
            path.write_text("t,g\n" + "".join(f"{x!r},{x * x!r}\n" for x in t))
            calls.clear()
            assert load_datum_csv(str(path)).knots[-1] == (1.0, 1.0)
            assert len(calls) == 1, n


# each builtin family: its spec, the parameters that build the same datum
# directly, and g written out apart from the library's table, bit for bit
FAMILY_CASES = {
    "constant": ("constant:2.5", (2.5,), lambda t: np.full(t.shape, 2.5)),
    "affine": ("affine:2,-1", (2.0, -1.0), lambda t: 2.0 * t - 1.0),
    "power": ("power:2", (2.0,), lambda t: t * t),
    "absdev": ("absdev:0.3", (0.3,), lambda t: np.where(t >= 0.3, t - 0.3, 0.3 - t)),
    "indicator": ("indicator:0.25,0.75", (0.25, 0.75),
                  lambda t: np.where((t >= 0.25) & (t <= 0.75), 1.0, 0.0)),
}


class TestFamilyTable:
    def test_cases_cover_the_table(self):
        assert set(FAMILY_CASES) == set(_FAMILIES)

    def test_rows(self):
        # each row's spelling, and the parameters its rule refuses
        assert {name: row[0] for name, row in _FAMILIES.items()} == {
            "constant": "c", "affine": "a,b", "power": "p", "absdev": "c", "indicator": "lo,hi"}
        rules = {name: row[2] for name, row in _FAMILIES.items() if row[2] is not None}
        assert set(rules) == {"power", "indicator"}
        assert [rules["power"](p) for p in (0.0, 2.5, -0.5, -1)] == [
            None, None, "power exponent must be >= 0, got -0.5",
            "power exponent must be >= 0, got -1"]
        assert [rules["indicator"](*p) for p in ((0.5, 0.5), (0.25, 0.75), (0.75, 0.25))] == [
            None, None, "indicator needs lo <= hi, got [0.75, 0.25]"]

    @pytest.mark.parametrize("kind,params,message,spec,spec_message", [
        ("constant", (), "constant datum takes 1 parameters, got 0", "constant:", None),
        ("affine", (1, 2, 3), "affine datum takes 2 parameters, got 3", "affine:1,2,3", None),
        ("indicator", (0.5,), "indicator datum takes 2 parameters, got 1", "indicator:0.5", None),
        ("absdev", (np.inf,), "absdev parameter c must be finite, got inf", "absdev:inf",
         "absdev parameter c must be finite, got inf"),
        ("affine", (np.nan, 0), "affine parameter a must be finite, got nan", "affine:nan,0",
         "affine parameter a must be finite, got nan"),
        ("indicator", (0.0, -np.inf), "indicator parameter hi must be finite, got -inf",
         "indicator:0,-inf", "indicator parameter hi must be finite, got -inf"),
        ("power", (-1,), "power exponent must be >= 0, got -1", "power:-1",
         "power exponent must be >= 0, got -1.0"),
        ("power", (-0.5,), "power exponent must be >= 0, got -0.5", "power:-0.5",
         "power exponent must be >= 0, got -0.5"),
        ("indicator", (1, 0), "indicator needs lo <= hi, got [1, 0]", "indicator:1,0",
         "indicator needs lo <= hi, got [1.0, 0.0]"),
        ("indicator", (0.75, 0.25), "indicator needs lo <= hi, got [0.75, 0.25]",
         "indicator:0.75,0.25", "indicator needs lo <= hi, got [0.75, 0.25]"),
    ], ids=["constant-count", "affine-count", "indicator-count", "absdev-inf", "affine-nan",
            "indicator-inf", "power-int", "power-float", "indicator-int", "indicator-float"])
    def test_bad_parameters_by_both_routes(self, kind, params, message, spec, spec_message):
        # a spec with the wrong count spells no family
        spellings = "constant:c, affine:a,b, power:p, absdev:c, indicator:lo,hi"
        spec_message = spec_message or (
            f"unknown datum spec {spec!r}; expected {spellings}, or a CSV file path")
        for build, want in ((lambda: BoundaryDatum(kind, params), message),
                            (lambda: parse_datum(spec), spec_message)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == want

    @pytest.mark.parametrize("name", sorted(FAMILY_CASES))
    def test_spec_classmethod_and_closed_form(self, name):
        spec, params, closed = FAMILY_CASES[name]
        datum = BoundaryDatum(name, params)
        assert parse_datum(spec) == datum
        assert datum.kind == name
        edges = [0.0, 1.0, 0.25, 0.75, np.nextafter(0.25, 0), np.nextafter(0.75, 1), 0.3]
        t = np.concatenate([edges, np.linspace(0, 1, 4097),
                            np.random.default_rng(7).uniform(0, 1, 4096)])
        got, want = datum.evaluate(t), closed(t)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind,params,knots,message", [
        ("sine", (1.0,), (), "unknown datum kind 'sine'"),
        ("abs_dev", (0.5,), (), "unknown datum kind 'abs_dev'"),
        ("affine", (1.0,), (), "affine datum takes 2 parameters, got 1"),
        ("constant", (), (), "constant datum takes 1 parameters, got 0"),
        ("piecewise_linear", (1.0,), ((0.0, 0.0), (1.0, 1.0)),
         "piecewise_linear datum takes 0 parameters, got 1"),
        ("power", (-1.0,), (), "power exponent must be >= 0, got -1.0"),
        ("indicator", (0.5, 0.25), (), "indicator needs lo <= hi, got [0.5, 0.25]"),
        ("power", (np.nan,), (), "power parameter p must be finite, got nan"),
        ("indicator", (0.0, np.inf), (), "indicator parameter hi must be finite, got inf"),
        ("affine", (1.0, -np.inf), (), "affine parameter b must be finite, got -inf"),
        ("piecewise_linear", (), ((0.0, 0.0), (0.6, 1.0), (0.4, 2.0), (1.0, 0.0)),
         "knot 3: t must increase strictly (0.4 after 0.6)"),
        ("piecewise_linear", (), ((0.0, 0.0),), "piecewise datum needs at least two knots"),
        ("piecewise_linear", (), (), "piecewise datum needs at least two knots"),
    ], ids=["unknown", "old-absdev-kind", "affine-count", "constant-count", "piecewise-params",
            "negative-power", "lo-above-hi", "nan-power", "infinite-hi", "infinite-intercept",
            "unsorted-knots", "one-knot", "no-knots"])
    def test_direct_construction_refuses(self, kind, params, knots, message):
        with pytest.raises(ValueError) as exc:
            BoundaryDatum(kind, params, knots)
        assert str(exc.value) == message

    def test_direct_construction_takes_floats(self):
        params = BoundaryDatum("constant", (1,)).params
        assert params == (1.0,) and type(params[0]) is float
        datum = BoundaryDatum("piecewise_linear", (), [[0, 1], [1, 3]])
        assert datum.knots == ((0.0, 1.0), (1.0, 3.0))
        assert all(type(v) is float for knot in datum.knots for v in knot)
        assert at(datum, 0.5) == [2.0]


class TestSampling:
    def test_affine_point_mode_example(self):
        tree = TruncatedTree(2, 2)
        leaves = sample_leaves(BoundaryDatum("affine", (1.0, 0.0)), tree)
        np.testing.assert_array_equal(leaves, [0.0, 0.25, 0.5, 0.75])

    def test_constant_both_modes(self):
        tree = TruncatedTree(3, 3)
        g = BoundaryDatum("constant", (1.25,))
        np.testing.assert_array_equal(sample_leaves(g, tree), 1.25)
        np.testing.assert_array_equal(sample_leaves(g, tree, 8), 1.25)

    def test_indicator_covers_subtree_leaves(self):
        tree = TruncatedTree(3, 4)
        x0 = Vertex(3, (1,))
        g = BoundaryDatum("indicator", (1 / 3, 2 / 3))
        leaves = sample_leaves(g, tree)
        ref = oracles.reference_binary_indicator(tree, x0)
        below = ref.values[tree.leaf_slice] > 0
        assert np.all(leaves[below] == 1.0)

    def test_monotone_datum_gives_monotone_leaves(self):
        tree = TruncatedTree(2, 6)
        for g in (BoundaryDatum("affine", (3.0, -1.0)), BoundaryDatum("power", (2,))):
            leaves = sample_leaves(g, tree)
            assert np.all(np.diff(leaves) >= 0)

    def test_inf_mode_never_exceeds_point_mode(self):
        rng = np.random.default_rng(139)
        tree = TruncatedTree(2, 5)
        knots = [(0.0, 0.0)] + [(t, float(rng.uniform(-1, 1)))
                                for t in np.linspace(0.2, 0.8, 4)] + [(1.0, 0.0)]
        for g in (BoundaryDatum("absdev", (0.3,)), BoundaryDatum.piecewise_linear(knots)):
            point = sample_leaves(g, tree)
            inf = sample_leaves(g, tree, 16)
            assert np.all(inf <= point + 1e-15)

    def test_psi_values_exact(self):
        tree = TruncatedTree(3, 3)
        psis = leaf_psi_values(tree)
        assert psis[0] == 0.0
        assert psis[13] == pytest.approx(13 / 27, abs=0)

    def test_mode_validation(self):
        tree = TruncatedTree(2, 2)
        g = BoundaryDatum("constant", (0.0,))
        with pytest.raises(ValueError, match="subsamples"):
            sample_leaves(g, tree, 0)

    def test_subsamples_must_be_an_integer(self):
        tree = TruncatedTree(2, 3)
        g = BoundaryDatum("absdev", (0.3,))
        for bad in (2.5, 2.0):
            with pytest.raises(ValueError) as exc:
                sample_leaves(g, tree, bad)
            assert str(exc.value) == f"subsamples must be an integer, got {bad}"
        np.testing.assert_array_equal(sample_leaves(g, tree, np.int64(3)), sample_leaves(g, tree, 3))

    def test_subsample_budget(self):
        tree = TruncatedTree(2, 2)
        g = BoundaryDatum("constant", (0.5,))
        with pytest.raises(ValueError, match=f"{SUBSAMPLE_BUDGET + 1} subsamples exceed "
                                             f"the budget of {SUBSAMPLE_BUDGET} per leaf"):
            sample_leaves(g, tree, SUBSAMPLE_BUDGET + 1)
        leaves = sample_leaves(g, tree, SUBSAMPLE_BUDGET)
        np.testing.assert_array_equal(leaves, 0.5)

    def test_inf_mode_peak_does_not_grow_with_subsamples(self):
        # blocks hold about 2^20 points whatever N is; in one block of all
        # 4096 leaves, N = 4095 took about 400 MB against 25 MB for N = 255
        tree = TruncatedTree(2, 12)
        g = BoundaryDatum("absdev", (0.3,))
        peaks = []
        for n in (255, 4095):
            tracemalloc.start()
            try:
                sample_leaves(g, tree, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestConvergenceStudy:
    def test_constant_has_zero_deltas(self):
        series = convergence_study(BoundaryDatum("constant", (3.0,)), 2, [2, 3, 4],
                                   SolveConfig(variant="convex"))
        assert series.root_values == [3.0, 3.0, 3.0]
        assert series.deltas == [0.0, 0.0]
        assert all(series.converged)

    def test_square_datum_deltas_positive_decreasing(self):
        series = convergence_study(BoundaryDatum("power", (2,)), 2, list(range(4, 10)),
                                   SolveConfig(variant="convex"))
        assert all(d > 0 for d in series.deltas)
        assert all(b <= a for a, b in zip(series.deltas, series.deltas[1:]))

    def test_binary_indicator_recovered_below_x0(self):
        g = BoundaryDatum("indicator", (1 / 3, 2 / 3))
        cfg = SolveConfig(variant="binary")
        x0 = Vertex(3, (1,))
        for depth in (2, 3, 4):
            tree = TruncatedTree(3, depth)
            from treeconvex import solve_dirichlet

            u = solve_dirichlet(tree, sample_leaves(g, tree), cfg).solution
            ref = oracles.reference_binary_indicator(tree, x0)
            inside = ref.values > 0
            np.testing.assert_array_equal(u.values[inside], 1.0)

    def test_root_values_within_datum_range(self):
        for variant in ("convex", "binary", "laplacian_arborescence"):
            series = convergence_study(BoundaryDatum("absdev", (0.4,)), 2, [3, 5, 7],
                                       SolveConfig(variant=variant))
            assert all(0.0 <= r <= 0.6 for r in series.root_values)

    def test_budget_error_names_depth(self):
        with pytest.raises(ValueError, match="depth 30"):
            convergence_study(BoundaryDatum("constant", (0.0,)), 2, [4, 30],
                              SolveConfig(variant="binary"))
        # past the budget's bit length the leaf count is neither formed nor printed
        with pytest.raises(ValueError) as exc:
            convergence_study(BoundaryDatum("constant", (0.0,)), 7, [10**6],
                              SolveConfig(variant="binary"))
        assert str(exc.value) == ("depth 1000000 exceeds the study budget "
                                  "(m^depth > 16777216 leaves)")

    def test_sizes_must_be_integers(self):
        # checked before the budget, which named 1e6 as a depth too large
        datum, cfg = BoundaryDatum("constant", (0.0,)), SolveConfig(variant="binary")
        for m, depths, message in [(2, [3, 1e6], "depth must be an integer, got 1000000.0"),
                                   (2, [3.0, 4], "depth must be an integer, got 3.0"),
                                   (2.0, [3, 4], "m must be an integer, got 2.0")]:
            with pytest.raises(ValueError) as exc:
                convergence_study(datum, m, depths, cfg)
            assert str(exc.value) == message

    def test_depths_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_study(BoundaryDatum("constant", (0.0,)), 2, [4, 4],
                              SolveConfig(variant="binary"))
        with pytest.raises(ValueError, match="non-empty"):
            convergence_study(BoundaryDatum("constant", (0.0,)), 2, [],
                              SolveConfig(variant="binary"))
