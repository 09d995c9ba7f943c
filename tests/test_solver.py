"""Fixed-point solver, obstacle, and Laplacian tests."""

from __future__ import annotations

import numpy as np
import pytest

from treeconvex import (
    ENVELOPE_VARIANTS,
    LAPLACIAN_VARIANTS,
    SolveConfig,
    TreeFunction,
    TruncatedTree,
    Vertex,
    binary_envelope_exact,
    is_binary_convex,
    is_convex_operator,
    op_convex,
    reference_convex_indicator,
    residual,
    solve_dirichlet,
    solve_obstacle,
)
from treeconvex.solver import (
    PRED,
    SWEEPS,
    TOUCH,
    _ConvexPolicy,
    _eliminate,
    _laplacian_system,
)

GS = "gauss_seidel_level_order"
VARIANTS = ENVELOPE_VARIANTS + LAPLACIAN_VARIANTS


def leaf_average_oracle(tree: TruncatedTree, leaves: np.ndarray) -> np.ndarray:
    """Harmonic closed form for the arborescence Laplacian: the value at any
    vertex is the plain average of the leaf values below it."""
    values = np.empty(tree.vertex_count)
    for level in range(tree.depth + 1):
        below = tree.m ** (tree.depth - level)
        values[tree.level_slice(level)] = leaves.reshape(tree.level_size(level), below).mean(axis=1)
    return values


def solve_problems(tree, g, f, cfg):
    """(report, coincidence mask) of the Dirichlet problem (mask None) and,
    for the envelope variants, of the obstacle problem."""
    out = [(solve_dirichlet(tree, g, cfg), None)]
    if cfg.variant in ENVELOPE_VARIANTS:
        result = solve_obstacle(tree, f, cfg)
        out.append((result.report, result.coincidence_mask))
    return out


class TestDirichlet:
    def test_constant_data_one_iteration(self):
        tree = TruncatedTree(3, 4)
        for sweep in SWEEPS:
            for variant in ("convex", "binary"):
                report = solve_dirichlet(tree, np.full(tree.leaf_count, 2.5),
                                         SolveConfig(variant=variant, sweep=sweep))
                assert report.iterations == 1, (sweep, variant)
                assert report.converged and report.monotone, (sweep, variant)
                assert np.all(report.solution.values == 2.5), (sweep, variant)

    def test_binary_hand_example(self):
        tree = TruncatedTree(2, 2)
        report = solve_dirichlet(tree, [1.0, 3.0, 0.0, 2.0], SolveConfig(variant="binary"))
        u = report.solution
        assert u[Vertex(2, (0,))] == 2.0
        assert u[Vertex(2, (1,))] == 1.0
        assert u[Vertex(2, ())] == 1.5

    def test_convex_solve_recovers_reference(self):
        tree = TruncatedTree(3, 6)
        ref = reference_convex_indicator(tree, Vertex(3, (1,)))
        report = solve_dirichlet(tree, ref.leaf_values, SolveConfig(variant="convex"))
        np.testing.assert_allclose(report.solution.values, ref.values, atol=1e-12)
        assert report.converged

    def test_binary_dp_oracle_agreement(self):
        rng = np.random.default_rng(61)
        cfg = SolveConfig(variant="binary", sweep="jacobi")
        for m, depth in [(2, 5), (3, 4)]:
            tree = TruncatedTree(m, depth)
            for _ in range(10):
                g = rng.uniform(-1, 1, tree.leaf_count)
                via_solver = solve_dirichlet(tree, g, cfg).solution.values
                via_dp = binary_envelope_exact(tree, g).values
                np.testing.assert_allclose(via_solver, via_dp, atol=1e-10)

    def test_monotone_descent_flag(self):
        rng = np.random.default_rng(67)
        for sweep in SWEEPS:
            for variant, k in [("convex", None), ("binary", None), ("kconvex", 3)]:
                tree = TruncatedTree(4 if variant == "kconvex" else 3, 4)
                cfg = SolveConfig(variant=variant, k=k, sweep=sweep)
                for _ in range(5):
                    report = solve_dirichlet(tree, rng.uniform(0, 1, tree.leaf_count), cfg)
                    assert report.monotone and report.converged, (sweep, variant)

    def test_bitwise_determinism_runs(self):
        rng = np.random.default_rng(71)
        tree = TruncatedTree(2, 6)
        g = rng.uniform(0, 1, tree.leaf_count)
        for sweep in SWEEPS:
            cfg = SolveConfig(variant="convex", sweep=sweep)
            base = solve_dirichlet(tree, g, cfg).solution.values
            again = solve_dirichlet(tree, g, cfg).solution.values
            assert np.array_equal(base, again), sweep

    def test_gauss_seidel_same_fixed_point_fewer_sweeps(self):
        rng = np.random.default_rng(73)
        tree = TruncatedTree(3, 5)
        g = rng.uniform(0, 1, tree.leaf_count)
        f = TreeFunction.from_values(tree, rng.uniform(0, 1, tree.vertex_count))
        for variant in VARIANTS:
            k = 3 if variant == "kconvex" else None
            jac, gs = (SolveConfig(variant=variant, k=k, sweep=s) for s in ("jacobi", GS))
            pairs = [(variant, solve_dirichlet(tree, g, jac), solve_dirichlet(tree, g, gs))]
            if variant in ENVELOPE_VARIANTS:
                obs_jac, obs_gs = solve_obstacle(tree, f, jac), solve_obstacle(tree, f, gs)
                assert np.array_equal(obs_jac.coincidence_mask, obs_gs.coincidence_mask), variant
                pairs.append((f"{variant} obstacle", obs_jac.report, obs_gs.report))
            for label, a, b in pairs:
                assert a.converged and b.converged and b.monotone, label
                np.testing.assert_allclose(a.solution.values, b.solution.values,
                                           rtol=0, atol=1e-10, err_msg=label)
                assert b.iterations < a.iterations, label

    def test_comparison_principle(self):
        rng = np.random.default_rng(79)
        tree = TruncatedTree(2, 5)
        for sweep in SWEEPS:
            for variant in ("convex", "binary"):
                cfg = SolveConfig(variant=variant, sweep=sweep)
                for _ in range(10):
                    g1 = rng.uniform(0, 1, tree.leaf_count)
                    g2 = g1 - rng.uniform(0, 0.5, tree.leaf_count)
                    u1 = solve_dirichlet(tree, g1, cfg).solution.values
                    u2 = solve_dirichlet(tree, g2, cfg).solution.values
                    assert np.all(u2 <= u1 + 1e-10), (sweep, variant)

    def test_largest_solution_dominates_subsolutions(self):
        rng = np.random.default_rng(83)
        tree = TruncatedTree(3, 4)
        g = rng.uniform(0, 1, tree.leaf_count)
        floor = g.min()
        for sweep in SWEEPS:
            u = solve_dirichlet(tree, g, SolveConfig(variant="convex", sweep=sweep)).solution.values
            for alpha in (0.0, 0.3, 0.9):
                damped = alpha * u + (1 - alpha) * floor
                assert np.all(damped <= u + 1e-10), sweep
            # scaled indicator subsolutions built independently of u
            for x0 in [Vertex(3, (0,)), Vertex(3, (2, 1))]:
                ref = reference_convex_indicator(tree, x0)
                scale = float(g[np.nonzero(ref.leaf_values > 0)[0]].min())
                v = scale * ref.values
                assert np.all(v <= u + 1e-10), sweep

    def test_envelope_ordering_binary_above_convex(self):
        rng = np.random.default_rng(89)
        tree = TruncatedTree(3, 4)
        g = rng.uniform(0, 1, tree.leaf_count)
        u_convex = solve_dirichlet(tree, g, SolveConfig(variant="convex")).solution.values
        u_binary = solve_dirichlet(tree, g, SolveConfig(variant="binary")).solution.values
        assert np.all(u_binary >= u_convex - 1e-12)

    def test_solutions_pass_their_predicates(self):
        rng = np.random.default_rng(97)
        tree = TruncatedTree(2, 5)
        g = rng.uniform(0, 1, tree.leaf_count)
        u = solve_dirichlet(tree, g, SolveConfig(variant="convex")).solution
        assert is_convex_operator(u).ok
        b = solve_dirichlet(tree, g, SolveConfig(variant="binary")).solution
        assert is_binary_convex(b, mode="operator").ok

    def test_non_convergence_reported(self):
        tree = TruncatedTree(2, 5)
        g = np.linspace(0, 1, tree.leaf_count)
        report = solve_dirichlet(tree, g, SolveConfig(variant="convex", max_iter=1,
                                                      sweep="jacobi"))
        assert not report.converged
        assert report.iterations == 1
        assert report.final_residual > 1e-12
        assert np.isfinite(report.solution.values).all()
        # the report names a vertex where the defect peaks, and the last change
        u, x = report.solution, report.worst_vertex
        assert tree.is_interior(x)
        assert abs(u[x] - op_convex(u, x)) == report.final_residual
        assert report.last_change > 0

    def test_input_validation(self):
        tree = TruncatedTree(2, 3)
        with pytest.raises(ValueError, match="leaf values"):
            solve_dirichlet(tree, np.zeros(5), SolveConfig(variant="convex"))
        with pytest.raises(ValueError, match="finite"):
            solve_dirichlet(tree, np.full(8, np.nan), SolveConfig(variant="convex"))
        with pytest.raises(ValueError, match="k must be"):
            solve_dirichlet(tree, np.zeros(8), SolveConfig(variant="kconvex", k=3))


class TestDirect:
    def test_matches_jacobi_oracle(self):
        """The direct engine against the Jacobi reference for every variant
        and k, Dirichlet and obstacle problems: same solution within 1e-10,
        same coincidence set, defect within tol, monotone, and bitwise
        reruns.  Successor-only variants take one exact pass."""
        rng = np.random.default_rng(137)
        for m, depth in [(2, 6), (3, 4), (4, 3), (5, 3)]:
            tree = TruncatedTree(m, depth)
            g = rng.uniform(-1, 1, tree.leaf_count)
            f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
            for variant in VARIANTS:
                for k in range(2, m + 1) if variant == "kconvex" else [None]:
                    direct, jacobi = (SolveConfig(variant=variant, k=k, sweep=s)
                                      for s in ("direct", "jacobi"))
                    runs = [solve_problems(tree, g, f, cfg) for cfg in (direct, jacobi, direct)]
                    for problem, ((a, mask_a), (b, mask_b), (again, _)) in enumerate(zip(*runs)):
                        label = f"m={m} {variant} k={k} obstacle={bool(problem)}"
                        assert a.converged and a.monotone, label
                        assert a.final_residual <= direct.tol, label
                        np.testing.assert_allclose(a.solution.values, b.solution.values,
                                                   rtol=0, atol=1e-10, err_msg=label)
                        assert np.array_equal(mask_a, mask_b), label
                        if variant not in ("convex", "laplacian_full"):
                            assert a.iterations == 1, label
                        assert np.array_equal(a.solution.values, again.solution.values), label

    def test_primitive_hand_examples(self):
        """m = 2, depth 2 (flat order root, 0, 1, 0.0, 0.1, 1.0, 1.1)."""
        tree = TruncatedTree(2, 2)
        alpha = np.empty(tree.interior_count)
        # full Laplacian, leaves 0, 2, 4, 6: u(root) = (u(0) + u(1)) / 2 and
        # u(i) = 2/9 u(root) + 7/9 (leaf average); the root is the leaf mean 3
        values = np.array([np.nan] * 3 + [0.0, 2.0, 4.0, 6.0])
        _eliminate(tree, values, alpha, _laplacian_system(tree))
        np.testing.assert_allclose(values[:3], [3.0, 13 / 9, 41 / 9], rtol=1e-15)

        # convex policy with the predecessor branch at vertex 0, leaves 0, 6, 6, 6:
        # u(0) = (u(root) + 2 * 0) / 3, u(1) = (6 + 6) / 2, u(root) = 18/5
        leaves = [0.0, 6.0, 6.0, 6.0]
        policy = _ConvexPolicy(tree, None)
        policy.first[:], policy.second[:] = [0, 0, 0], [1, PRED, 1]
        values = np.array([np.nan] * 3 + leaves)
        _eliminate(tree, values, alpha, policy.system)
        np.testing.assert_allclose(values[:3], [18 / 5, 6 / 5, 6.0], rtol=1e-15)
        # the envelope takes the branch at both vertices: u(0) = u(root) / 3,
        # u(1) = (u(root) + 12) / 3, u(root) = 3
        report = solve_dirichlet(tree, leaves, SolveConfig())
        np.testing.assert_allclose(report.solution.values, [3.0, 1.0, 5.0] + leaves,
                                   rtol=1e-15)

        # touching the obstacle at vertex 0 (f = 1/2 there, 10 at root and 1):
        # u(1) = (u(root) + 12) / 3, u(root) = (1/2 + u(1)) / 2 = 27/10
        f = TreeFunction.from_values(tree, [10.0, 0.5, 10.0] + leaves)
        policy = _ConvexPolicy(tree, f.values)
        policy.first[:], policy.second[:] = [0, TOUCH, 0], [1, TOUCH, PRED]
        values = f.values.copy()
        _eliminate(tree, values, alpha, policy.system)
        expected = [27 / 10, 1 / 2, 49 / 10] + leaves
        np.testing.assert_allclose(values, expected, rtol=1e-15)
        result = solve_obstacle(tree, f, SolveConfig())
        np.testing.assert_allclose(result.envelope.values, expected, rtol=1e-15)
        assert list(result.coincidence_mask) == [False, True, False, True, True, True, True]

    def test_rise_beyond_rounding_clears_monotone(self, monkeypatch):
        """Rounding can lift an evaluation a few ulps above the previous
        iterate: the iterate keeps the smaller value, and a rise within tol
        or within rounding of the data counts as monotone; a larger rise
        clears the flag."""
        import treeconvex.solver as solver

        real = solver._eliminate
        tree = TruncatedTree(2, 5)
        g = np.linspace(0, 1, tree.leaf_count) ** 2
        for scale, lift, monotone in [(1.0, 1e-13, True), (1.0, 1.0, False),
                                      (2.0**40, 2 * np.spacing(2.0**40), True)]:
            def lifted(tree, values, alpha, system):
                real(tree, values, alpha, system)
                values[0] = scale + lift  # the root, above the sup-initialization

            monkeypatch.setattr(solver, "_eliminate", lifted)
            report = solve_dirichlet(tree, scale * g, SolveConfig(max_iter=1))
            assert report.monotone is monotone, (scale, lift)
            assert report.solution.values[0] == scale, (scale, lift)

    def test_rounding_defect_finished_by_sweeps(self, monkeypatch):
        """The rounding of an evaluation grows with the size of the data, so
        with large data or a tiny tol the defect can stay above tol once the
        policy repeats.  The solve then lifts the iterate to a float
        supersolution and finishes with Gauss-Seidel sweeps, which reach a
        float fixed point: it converges as Jacobi does, Dirichlet and
        obstacle, at a tol of 1e-300 as well."""
        import treeconvex.solver as solver

        lifts = []
        real = solver._lift
        monkeypatch.setattr(solver, "_lift", lambda *args: lifts.append(real(*args)))
        rng = np.random.default_rng(139)
        for m, depth in [(2, 10), (3, 6)]:
            tree = TruncatedTree(m, depth)
            g = rng.uniform(0, 1, tree.leaf_count)
            f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
            for scale in (2.0**12, 2.0**20, 1e4):
                sf = TreeFunction.from_values(tree, scale * f.values)
                for variant in ("convex", "laplacian_full"):
                    direct = SolveConfig(variant=variant, max_iter=1000)
                    jacobi = SolveConfig(variant=variant, sweep="jacobi")
                    runs = [solve_problems(tree, scale * g, sf, cfg) for cfg in (direct, jacobi)]
                    for (a, mask_a), (b, mask_b) in zip(*runs):
                        label = f"m={m} scale={scale} {variant} obstacle={mask_a is not None}"
                        assert a.converged and a.monotone and b.converged, label
                        assert a.final_residual <= direct.tol, label
                        np.testing.assert_allclose(a.solution.values, b.solution.values,
                                                   rtol=0, atol=1e-10 * scale, err_msg=label)
                        assert np.array_equal(mask_a, mask_b), label
        assert lifts, "no solve needed the finishing sweeps"

        tree = TruncatedTree(2, 8)
        g = rng.uniform(0, 1, tree.leaf_count)
        for variant in ("convex", "laplacian_full"):
            lifts.clear()
            report = solve_dirichlet(tree, g, SolveConfig(variant=variant, tol=1e-300,
                                                          max_iter=1000))
            assert report.converged and report.final_residual == 0.0, variant
            assert len(lifts) == 1, variant

    def test_overflow_not_converged(self):
        """Leaf values near the float maximum overflow the pair averages;
        the NaN or inf defect is reported as non-convergence by every engine,
        and the direct engine stops after its first evaluation."""
        tree = TruncatedTree(2, 3)
        g = np.linspace(1.5e308, 1.7e308, tree.leaf_count)
        with np.errstate(over="ignore", invalid="ignore"):
            for sweep in SWEEPS:
                for variant in ("convex", "laplacian_full"):
                    cfg = SolveConfig(variant=variant, sweep=sweep, max_iter=50)
                    report = solve_dirichlet(tree, g, cfg)
                    label = (sweep, variant)
                    assert not report.converged, label
                    assert not np.isfinite(report.final_residual), label
                    assert sweep != "direct" or report.iterations == 1, label


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(variant="other")
        with pytest.raises(ValueError):
            SolveConfig(variant="kconvex")
        with pytest.raises(ValueError):
            SolveConfig(variant="binary", k=2)
        with pytest.raises(ValueError):
            SolveConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolveConfig(sweep="red-black")


class TestObstacle:
    def test_depth_one_hand_example(self):
        tree = TruncatedTree(2, 1)
        f = TreeFunction.from_values(tree, [5.0, 1.0, 2.0])
        result = solve_obstacle(tree, f, SolveConfig(variant="convex"))
        assert result.envelope[Vertex(2, ())] == 1.5
        assert list(result.coincidence_mask) == [False, True, True]
        assert result.report.converged

    def test_convex_obstacle_is_its_own_envelope(self):
        tree = TruncatedTree(3, 4)
        f = reference_convex_indicator(tree, Vertex(3, (2,)))
        result = solve_obstacle(tree, f, SolveConfig(variant="convex"))
        np.testing.assert_array_equal(result.envelope.values, f.values)
        assert result.coincidence_mask.all()

    def test_envelope_below_and_min_preserved(self):
        rng = np.random.default_rng(101)
        cfg = SolveConfig(variant="convex")
        for m, depth in [(2, 4), (3, 3)]:
            tree = TruncatedTree(m, depth)
            for _ in range(10):
                f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
                result = solve_obstacle(tree, f, cfg)
                u = result.envelope.values
                assert np.all(u <= f.values)
                assert abs(u.min() - f.values.min()) <= 1e-12
                argmin = int(np.argmin(f.values))
                assert u[argmin] <= f.values.min() + 1e-12

    def test_equation_holds_off_coincidence_set(self):
        from treeconvex._kernels import apply_operator

        rng = np.random.default_rng(103)
        tree = TruncatedTree(2, 5)
        cfg = SolveConfig(variant="convex")
        f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
        result = solve_obstacle(tree, f, cfg)
        u = result.envelope.values
        op = apply_operator(tree, u, "convex")
        interior = tree.interior_slice
        off_cs = ~result.coincidence_mask[interior]
        assert np.all(np.abs(u[interior][off_cs] - op[interior][off_cs]) <= 1e-10)

    def test_tree_mismatch_rejected(self):
        tree = TruncatedTree(2, 2)
        other = TruncatedTree(2, 3)
        f = TreeFunction.zeros(other)
        with pytest.raises(ValueError, match="different tree"):
            solve_obstacle(tree, f, SolveConfig(variant="convex"))


class TestLaplacian:
    def test_constant_everywhere(self):
        tree = TruncatedTree(3, 4)
        for variant in ("laplacian_full", "laplacian_arborescence"):
            report = solve_dirichlet(tree, np.full(tree.leaf_count, -0.5),
                                     SolveConfig(variant=variant))
            assert report.converged
            np.testing.assert_allclose(report.solution.values, -0.5, atol=1e-15)

    def test_arborescence_equals_leaf_average_oracle(self):
        rng = np.random.default_rng(107)
        for m, depth in [(2, 6), (3, 5)]:
            tree = TruncatedTree(m, depth)
            g = rng.uniform(-1, 1, tree.leaf_count)
            report = solve_dirichlet(tree, g, SolveConfig(variant="laplacian_arborescence"))
            assert report.converged and report.monotone
            np.testing.assert_allclose(report.solution.values, leaf_average_oracle(tree, g),
                                       atol=1e-10)

    def test_maximum_principle(self):
        rng = np.random.default_rng(109)
        for variant in ("laplacian_full", "laplacian_arborescence"):
            tree = TruncatedTree(2, 6)
            g = rng.uniform(-3, 7, tree.leaf_count)
            report = solve_dirichlet(tree, g, SolveConfig(variant=variant))
            assert report.converged
            u = report.solution.values
            assert np.all(u >= g.min() - 1e-12) and np.all(u <= g.max() + 1e-12)

    def test_full_laplacian_fixed_point_residual(self):
        rng = np.random.default_rng(113)
        tree = TruncatedTree(3, 4)
        g = rng.uniform(0, 1, tree.leaf_count)
        report = solve_dirichlet(tree, g, SolveConfig(variant="laplacian_full"))
        assert report.converged and report.monotone
        assert residual(tree, report.solution, "laplacian_full") <= 1e-12


class TestResidual:
    def test_fixed_points_have_zero_residual(self):
        rng = np.random.default_rng(127)
        tree = TruncatedTree(3, 4)
        g = rng.uniform(0, 1, tree.leaf_count)
        for variant in ("convex", "binary"):
            u = solve_dirichlet(tree, g, SolveConfig(variant=variant)).solution
            assert residual(tree, u, variant) <= 1e-12

    def test_reference_residual(self):
        tree = TruncatedTree(3, 5)
        u = reference_convex_indicator(tree, Vertex(3, (1, 2)))
        assert residual(tree, u, "convex") <= 1e-12

    def test_single_vertex_perturbation_visible(self):
        rng = np.random.default_rng(131)
        for m in (2, 3):
            tree = TruncatedTree(m, 4)
            g = rng.uniform(0, 1, tree.leaf_count)
            u = solve_dirichlet(tree, g, SolveConfig(variant="convex")).solution
            base = residual(tree, u, "convex")
            delta = 0.01
            for _ in range(10):
                flat = int(rng.integers(0, tree.interior_count))
                bumped = u.copy()
                bumped.values[flat] += delta
                # the operator never reads the vertex itself, so the defect at
                # the bumped vertex is at least delta * m / (m + 1)
                assert residual(tree, bumped, "convex") >= delta * m / (m + 1) - base - 1e-12

    def test_nan_is_the_worst_defect(self):
        tree = TruncatedTree(2, 3)
        for flat in (0, 3, tree.interior_count - 1, tree.vertex_count - 1):
            values = np.zeros(tree.vertex_count)
            values[flat] = np.nan
            assert np.isnan(residual(tree, TreeFunction(tree, values), "convex")), flat

    def test_variant_validation(self):
        tree = TruncatedTree(2, 2)
        u = TreeFunction.zeros(tree)
        with pytest.raises(ValueError, match="unknown variant"):
            residual(tree, u, "hexagonal")
