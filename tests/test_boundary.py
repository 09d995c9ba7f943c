"""Boundary datum, leaf sampling, and convergence-study tests."""

from __future__ import annotations

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
    reference_binary_indicator,
    sample_leaves,
)


def at(g, *ts):
    return g.evaluate(np.array(ts)).tolist()


class TestDatumFamilies:
    def test_evaluations(self):
        assert at(BoundaryDatum.constant(2.5), 0.3) == [2.5]
        assert at(BoundaryDatum.affine(2.0, -1.0), 0.75) == pytest.approx([0.5])
        assert at(BoundaryDatum.power(2), 0.5) == [0.25]
        assert at(BoundaryDatum.abs_dev(0.5), 0.2) == pytest.approx([0.3])
        assert at(BoundaryDatum.indicator(0.25, 0.5), 0.25, 0.5, 0.6) == [1.0, 1.0, 0.0]
        pw = BoundaryDatum.piecewise_linear([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
        assert at(pw, 0.25) == pytest.approx([0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryDatum.power(-1)
        with pytest.raises(ValueError):
            BoundaryDatum.indicator(0.5, 0.25)
        with pytest.raises(ValueError, match="first t"):
            BoundaryDatum.piecewise_linear([(0.1, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="last t"):
            BoundaryDatum.piecewise_linear([(0.0, 0.0), (0.9, 1.0)])
        with pytest.raises(ValueError, match="increase strictly"):
            BoundaryDatum.piecewise_linear([(0.0, 0.0), (0.4, 1.0), (0.4, 2.0), (1.0, 0.0)])

    def test_parse_specs(self):
        assert parse_datum("constant:2") == BoundaryDatum.constant(2.0)
        assert parse_datum("affine:1,0") == BoundaryDatum.affine(1.0, 0.0)
        assert parse_datum("power:2") == BoundaryDatum.power(2.0)
        assert parse_datum("absdev:0.5") == BoundaryDatum.abs_dev(0.5)
        assert parse_datum("indicator:0.25,0.75") == BoundaryDatum.indicator(0.25, 0.75)
        with pytest.raises(ValueError, match="unknown datum"):
            parse_datum("sine:1")
        with pytest.raises(ValueError, match="neither"):
            parse_datum("no-such-file.csv")

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

    @pytest.mark.parametrize("knots,number,reason", [
        ([(0.1, 0.0), (1.0, 1.0)], 1, "first t must be 0, got 0.1"),
        ([(0.0, 0.0), (0.5, 1.0), (0.9, 0.0)], 3, "last t must be 1, got 0.9"),
        ([(0.0, 0.0), (0.6, 1.0), (0.4, 2.0), (1.0, 0.0)], 3,
         "t must increase strictly (0.4 after 0.6)"),
    ], ids=["first", "last", "order"])
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


class TestSampling:
    def test_affine_point_mode_example(self):
        tree = TruncatedTree(2, 2)
        leaves = sample_leaves(BoundaryDatum.affine(1.0, 0.0), tree)
        np.testing.assert_array_equal(leaves, [0.0, 0.25, 0.5, 0.75])

    def test_constant_both_modes(self):
        tree = TruncatedTree(3, 3)
        g = BoundaryDatum.constant(1.25)
        np.testing.assert_array_equal(sample_leaves(g, tree, "point"), 1.25)
        np.testing.assert_array_equal(sample_leaves(g, tree, "inf_subsample", 8), 1.25)

    def test_indicator_covers_subtree_leaves(self):
        tree = TruncatedTree(3, 4)
        x0 = Vertex(3, (1,))
        g = BoundaryDatum.indicator(1 / 3, 2 / 3)
        leaves = sample_leaves(g, tree)
        ref = reference_binary_indicator(tree, x0)
        below = ref.leaf_values > 0
        assert np.all(leaves[below] == 1.0)

    def test_monotone_datum_gives_monotone_leaves(self):
        tree = TruncatedTree(2, 6)
        for g in (BoundaryDatum.affine(3.0, -1.0), BoundaryDatum.power(2)):
            leaves = sample_leaves(g, tree)
            assert np.all(np.diff(leaves) >= 0)

    def test_inf_mode_never_exceeds_point_mode(self):
        rng = np.random.default_rng(139)
        tree = TruncatedTree(2, 5)
        knots = [(0.0, 0.0)] + [(t, float(rng.uniform(-1, 1)))
                                for t in np.linspace(0.2, 0.8, 4)] + [(1.0, 0.0)]
        for g in (BoundaryDatum.abs_dev(0.3), BoundaryDatum.piecewise_linear(knots)):
            point = sample_leaves(g, tree, "point")
            inf = sample_leaves(g, tree, "inf_subsample", 16)
            assert np.all(inf <= point + 1e-15)

    def test_psi_values_exact(self):
        tree = TruncatedTree(3, 3)
        psis = leaf_psi_values(tree)
        assert psis[0] == 0.0
        assert psis[13] == pytest.approx(13 / 27, abs=0)

    def test_mode_validation(self):
        tree = TruncatedTree(2, 2)
        g = BoundaryDatum.constant(0.0)
        with pytest.raises(ValueError, match="mode"):
            sample_leaves(g, tree, "supremum")
        with pytest.raises(ValueError, match="subsamples"):
            sample_leaves(g, tree, "inf_subsample", 0)


class TestConvergenceStudy:
    def test_constant_has_zero_deltas(self):
        series = convergence_study(BoundaryDatum.constant(3.0), 2, [2, 3, 4],
                                   SolveConfig(variant="convex"))
        assert series.root_values == [3.0, 3.0, 3.0]
        assert series.deltas == [0.0, 0.0]
        assert all(series.converged)

    def test_square_datum_deltas_positive_decreasing(self):
        series = convergence_study(BoundaryDatum.power(2), 2, list(range(4, 10)),
                                   SolveConfig(variant="convex"))
        assert all(d > 0 for d in series.deltas)
        assert all(b <= a for a, b in zip(series.deltas, series.deltas[1:]))

    def test_binary_indicator_recovered_below_x0(self):
        g = BoundaryDatum.indicator(1 / 3, 2 / 3)
        cfg = SolveConfig(variant="binary")
        x0 = Vertex(3, (1,))
        for depth in (2, 3, 4):
            tree = TruncatedTree(3, depth)
            from treeconvex import solve_dirichlet

            u = solve_dirichlet(tree, sample_leaves(g, tree), cfg).solution
            ref = reference_binary_indicator(tree, x0)
            inside = ref.values > 0
            np.testing.assert_array_equal(u.values[inside], 1.0)

    def test_root_values_within_datum_range(self):
        for variant in ("convex", "binary", "laplacian_arborescence"):
            series = convergence_study(BoundaryDatum.abs_dev(0.4), 2, [3, 5, 7],
                                       SolveConfig(variant=variant))
            assert all(0.0 <= r <= 0.6 for r in series.root_values)

    def test_budget_error_names_depth(self):
        with pytest.raises(ValueError, match="depth 30"):
            convergence_study(BoundaryDatum.constant(0.0), 2, [4, 30],
                              SolveConfig(variant="binary"))
        # past the budget's bit length the leaf count is neither formed nor printed
        with pytest.raises(ValueError) as exc:
            convergence_study(BoundaryDatum.constant(0.0), 7, [10**6],
                              SolveConfig(variant="binary"))
        assert str(exc.value) == ("depth 1000000 exceeds the study budget "
                                  "(m^depth > 16777216 leaves)")

    def test_depths_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_study(BoundaryDatum.constant(0.0), 2, [4, 4],
                              SolveConfig(variant="binary"))
        with pytest.raises(ValueError, match="non-empty"):
            convergence_study(BoundaryDatum.constant(0.0), 2, [],
                              SolveConfig(variant="binary"))
