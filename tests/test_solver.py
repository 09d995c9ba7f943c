"""Fixed-point solver, obstacle, and Laplacian tests."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from treeconvex import (
    ENVELOPE_VARIANTS,
    LAPLACIAN_VARIANTS,
    SolveConfig,
    TreeFunction,
    TruncatedTree,
    Vertex,
    is_binary_convex,
    is_convex_operator,
    leaf_psi_values,
    residual,
    solve_dirichlet,
    solve_obstacle,
)
from treeconvex._kernels import PRED, TOUCH, _min_kernel
from treeconvex.solver import (
    _back_substitute,
    _ConvexPolicy,
    _defect,
    _dirichlet_start,
    _eliminate,
    _laplacian_system,
)

import oracles
from engines import ENGINES, operator_values, solve

VARIANTS = ENVELOPE_VARIANTS + LAPLACIAN_VARIANTS


def leaf_average_oracle(tree: TruncatedTree, leaves: np.ndarray) -> np.ndarray:
    """Harmonic closed form for the arborescence Laplacian: the value at any
    vertex is the plain average of the leaf values below it."""
    values = np.empty(tree.vertex_count)
    for level in range(tree.depth + 1):
        below = tree.m ** (tree.depth - level)
        values[tree.level_slice(level)] = leaves.reshape(tree.level_size(level), below).mean(axis=1)
    return values


def evaluate(tree: TruncatedTree, values: np.ndarray, system) -> None:
    """Solve the linear system `system` gives, with the leaves of `values`
    clamped, into its interior, which must lie above the solution (inf
    does): the back-substitution keeps the smaller value."""
    alpha, beta = np.empty(tree.interior_count), np.empty(tree.interior_count)
    _eliminate(tree, values, alpha, beta, system)
    _back_substitute(tree, values, alpha, beta, 0.0)


def solve_problems(engine, tree, g, f, cfg):
    """(report, coincidence mask) of the Dirichlet problem (mask None) and,
    for the envelope variants, of the obstacle problem."""
    out = [(solve(engine, tree, cfg, g), None)]
    if cfg.variant in ENVELOPE_VARIANTS:
        result = solve(engine, tree, cfg, obstacle=f)
        out.append((result.report, result.coincidence_mask))
    return out


class TestDirichlet:
    def test_constant_data_one_iteration(self):
        tree = TruncatedTree(3, 4)
        for engine in ENGINES:
            for variant in ("convex", "binary"):
                report = solve(engine, tree, SolveConfig(variant=variant),
                               np.full(tree.leaf_count, 2.5))
                assert report.iterations == 1, (engine, variant)
                assert report.converged and report.monotone, (engine, variant)
                assert np.all(report.solution.values == 2.5), (engine, variant)

    def test_binary_hand_example(self):
        tree = TruncatedTree(2, 2)
        report = solve_dirichlet(tree, [1.0, 3.0, 0.0, 2.0], SolveConfig(variant="binary"))
        u = report.solution
        assert u.values.tolist() == [1.5, 2.0, 1.0, 1.0, 3.0, 0.0, 2.0]

    def test_convex_solve_recovers_reference(self):
        tree = TruncatedTree(3, 6)
        ref = oracles.reference_convex_indicator(tree, Vertex(3, (1,)))
        report = solve_dirichlet(tree, ref.values[tree.leaf_slice], SolveConfig(variant="convex"))
        np.testing.assert_allclose(report.solution.values, ref.values, atol=1e-12)
        assert report.converged

    def test_binary_dp_oracle_agreement(self):
        """The public binary solve is the one-pass DP; Jacobi reaches the
        same fixed point by iterating."""
        rng = np.random.default_rng(61)
        cfg = SolveConfig(variant="binary")
        for m, depth in [(2, 5), (3, 4)]:
            tree = TruncatedTree(m, depth)
            for _ in range(10):
                g = rng.uniform(-1, 1, tree.leaf_count)
                via_jacobi = solve("jacobi", tree, cfg, g).solution.values
                via_dp = solve_dirichlet(tree, g, cfg).solution.values
                np.testing.assert_allclose(via_jacobi, via_dp, atol=1e-10)

    def test_monotone_descent_flag(self):
        rng = np.random.default_rng(67)
        for engine in ENGINES:
            for variant, k in [("convex", None), ("binary", None), ("kconvex", 3)]:
                tree = TruncatedTree(4 if variant == "kconvex" else 3, 4)
                cfg = SolveConfig(variant=variant, k=k)
                for _ in range(5):
                    report = solve(engine, tree, cfg, rng.uniform(0, 1, tree.leaf_count))
                    assert report.monotone and report.converged, (engine, variant)

    def test_bitwise_determinism_runs(self):
        rng = np.random.default_rng(71)
        tree = TruncatedTree(2, 6)
        g = rng.uniform(0, 1, tree.leaf_count)
        cfg = SolveConfig(variant="convex")
        for engine in ENGINES:
            base = solve(engine, tree, cfg, g).solution.values
            again = solve(engine, tree, cfg, g).solution.values
            assert np.array_equal(base, again), engine

    def test_gauss_seidel_same_fixed_point_fewer_sweeps(self):
        rng = np.random.default_rng(73)
        tree = TruncatedTree(3, 5)
        g = rng.uniform(0, 1, tree.leaf_count)
        f = TreeFunction.from_values(tree, rng.uniform(0, 1, tree.vertex_count))
        for variant in VARIANTS:
            k = 3 if variant == "kconvex" else None
            cfg = SolveConfig(variant=variant, k=k)
            pairs = [(variant, solve("jacobi", tree, cfg, g), solve("gs", tree, cfg, g))]
            if variant in ENVELOPE_VARIANTS:
                obs_jac, obs_gs = (solve(e, tree, cfg, obstacle=f) for e in ("jacobi", "gs"))
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
        for engine in ENGINES:
            for variant in ("convex", "binary"):
                cfg = SolveConfig(variant=variant)
                for _ in range(10):
                    g1 = rng.uniform(0, 1, tree.leaf_count)
                    g2 = g1 - rng.uniform(0, 0.5, tree.leaf_count)
                    u1 = solve(engine, tree, cfg, g1).solution.values
                    u2 = solve(engine, tree, cfg, g2).solution.values
                    assert np.all(u2 <= u1 + 1e-10), (engine, variant)

    def test_largest_solution_dominates_subsolutions(self):
        rng = np.random.default_rng(83)
        tree = TruncatedTree(3, 4)
        g = rng.uniform(0, 1, tree.leaf_count)
        floor = g.min()
        for engine in ENGINES:
            u = solve(engine, tree, SolveConfig(variant="convex"), g).solution.values
            for alpha in (0.0, 0.3, 0.9):
                damped = alpha * u + (1 - alpha) * floor
                assert np.all(damped <= u + 1e-10), engine
            # scaled indicator subsolutions built independently of u
            for x0 in [Vertex(3, (0,)), Vertex(3, (2, 1))]:
                ref = oracles.reference_convex_indicator(tree, x0)
                scale = float(g[np.nonzero(ref.values[tree.leaf_slice] > 0)[0]].min())
                v = scale * ref.values
                assert np.all(v <= u + 1e-10), engine

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
        report = solve_dirichlet(tree, g, SolveConfig(variant="convex", max_iter=1))
        assert not report.converged
        assert report.iterations == 1
        assert report.final_residual > 1e-12
        assert np.isfinite(report.solution.values).all()
        # the report names a vertex where the defect peaks, and the last change
        u, x = report.solution, report.worst_vertex
        assert x.level < tree.depth
        assert abs(u.values[tree.flat_index(x)] - oracles.op_convex(u, x)) == report.final_residual
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
                    cfg = SolveConfig(variant=variant, k=k)
                    runs = [solve_problems(engine, tree, g, f, cfg)
                            for engine in ("direct", "jacobi", "direct")]
                    for problem, ((a, mask_a), (b, mask_b), (again, _)) in enumerate(zip(*runs)):
                        label = f"m={m} {variant} k={k} obstacle={bool(problem)}"
                        assert a.converged and a.monotone, label
                        assert a.final_residual <= cfg.tol, label
                        np.testing.assert_allclose(a.solution.values, b.solution.values,
                                                   rtol=0, atol=1e-10, err_msg=label)
                        assert np.array_equal(mask_a, mask_b), label
                        if variant not in ("convex", "laplacian_full"):
                            assert a.iterations == 1, label
                        assert np.array_equal(a.solution.values, again.solution.values), label

    def test_primitive_hand_examples(self):
        """m = 2, depth 2 (flat order root, 0, 1, 0.0, 0.1, 1.0, 1.1)."""
        tree = TruncatedTree(2, 2)
        # full Laplacian, leaves 0, 2, 4, 6: u(root) = (u(0) + u(1)) / 2 and
        # u(i) = 2/9 u(root) + 7/9 (leaf average); the root is the leaf mean 3
        values = np.array([np.inf] * 3 + [0.0, 2.0, 4.0, 6.0])
        evaluate(tree, values, _laplacian_system(tree))
        np.testing.assert_allclose(values[:3], [3.0, 13 / 9, 41 / 9], rtol=1e-15)

        # convex policy with the predecessor branch at vertex 0, leaves 0, 6, 6, 6:
        # u(0) = (u(root) + 2 * 0) / 3, u(1) = (6 + 6) / 2, u(root) = 18/5
        leaves = [0.0, 6.0, 6.0, 6.0]
        policy = _ConvexPolicy(tree, None)
        policy.first[:], policy.second[:] = [0, 0, 0], [1, PRED, 1]
        values = np.array([np.inf] * 3 + leaves)
        evaluate(tree, values, policy.system)
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
        values = np.array([np.inf] * 3 + leaves)
        evaluate(tree, values, policy.system)
        expected = [27 / 10, 1 / 2, 49 / 10] + leaves
        np.testing.assert_allclose(values, expected, rtol=1e-15)
        result = solve_obstacle(f, SolveConfig())
        np.testing.assert_allclose(result.envelope.values, expected, rtol=1e-15)
        assert list(result.coincidence_mask) == [False, True, False, True, True, True, True]

    def test_convex_solve_footprint(self):
        """The convex solve holds the values, the alpha and beta rows and the
        policy's codes (17 B per vertex at m = 2), and level-sized
        temporaries besides: its tracemalloc peak stays under 26 B per
        vertex.  Building each level's coefficients out of place, through
        three index arrays and `np.where` copies, peaked at about 34 B."""
        rng = np.random.default_rng(167)
        for depth in (15, 16):
            tree = TruncatedTree(2, depth)
            for g in (leaf_psi_values(tree) ** 2, rng.uniform(0, 1, tree.leaf_count)):
                tracemalloc.start()
                try:
                    report = solve_dirichlet(tree, g, SolveConfig())
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert report.converged
                assert peak < 26 * tree.vertex_count, (depth, peak / tree.vertex_count)

    def test_obstacle_solve_footprint(self):
        """The obstacle solve reads the caller's obstacle in place and copies
        it once, as the working iterate: a warm solve's tracemalloc peak is
        about 24 B per vertex and stays under 26 B (a second copy of the
        obstacle made it 32 B), and the obstacle's values are unchanged."""
        rng = np.random.default_rng(181)
        for m, depth in ((5, 7), (2, 16)):
            tree = TruncatedTree(m, depth)
            f = TreeFunction.from_values(tree, rng.uniform(0, 1, tree.vertex_count))
            before = f.values.copy()
            solve_obstacle(f, SolveConfig())
            tracemalloc.start()
            try:
                result = solve_obstacle(f, SolveConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.report.converged
            assert peak < 26 * tree.vertex_count, (m, depth, peak / tree.vertex_count)
            np.testing.assert_array_equal(f.values.view(np.uint64), before.view(np.uint64))

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
            def lifted(tree, values, alpha, beta, *args):
                real(tree, values, alpha, beta, *args)
                beta[0] = scale + lift  # the root, above the sup-initialization

            monkeypatch.setattr(solver, "_eliminate", lifted)
            report = solve_dirichlet(tree, scale * g, SolveConfig(max_iter=1))
            assert report.monotone is monotone, (scale, lift)
            assert report.solution.values[0] == scale, (scale, lift)

    def test_large_data_converges_within_rounding(self):
        """The rounding of an evaluation grows with the size of the data, so
        with large data or a tiny tol the defect can stay above tol once the
        policy repeats.  The solve then stops and reports convergence when the
        defect is within tol plus 4 ulps of max|u| per level: it agrees with
        Jacobi, Dirichlet and obstacle, and converges at a tol of 1e-300.
        Negated data put the largest leaf, which starts every interior vertex
        of a Dirichlet solve, near 0: the allowance comes from the final
        iterate, not from that start."""
        rng = np.random.default_rng(139)
        for m, depth in [(2, 10), (3, 6)]:
            tree = TruncatedTree(m, depth)
            g = rng.uniform(0, 1, tree.leaf_count)
            f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
            for scale in (2.0**12, 2.0**20, 1e4, -2.0**12, -2.0**20, -1e4):
                sf = TreeFunction.from_values(tree, scale * f.values)
                for variant in ("convex", "laplacian_full"):
                    direct = SolveConfig(variant=variant, max_iter=1000)
                    jacobi = SolveConfig(variant=variant)
                    runs = [solve_problems(engine, tree, scale * g, sf, cfg)
                            for engine, cfg in [("direct", direct), ("jacobi", jacobi)]]
                    for (a, mask_a), (b, mask_b) in zip(*runs):
                        label = f"m={m} scale={scale} {variant} obstacle={mask_a is not None}"
                        assert a.converged and a.monotone and b.converged, label
                        rounding = 4 * depth * np.spacing(np.abs(a.solution.values).max())
                        assert a.final_residual <= direct.tol + rounding, label
                        np.testing.assert_allclose(a.solution.values, b.solution.values,
                                                   rtol=0, atol=1e-10 * abs(scale),
                                                   err_msg=label)
                        assert np.array_equal(mask_a, mask_b), label

        tree = TruncatedTree(2, 8)
        g = rng.uniform(0, 1, tree.leaf_count)
        for variant in ("convex", "laplacian_full"):
            report = solve_dirichlet(tree, g, SolveConfig(variant=variant, tol=1e-300,
                                                          max_iter=1000))
            rounding = 4 * tree.depth * np.spacing(np.abs(report.solution.values).max())
            assert report.converged and report.final_residual <= rounding, variant

    def test_overflow_not_converged(self):
        """Leaf values near the float maximum overflow the pair averages;
        the NaN or inf defect is reported as non-convergence by every engine.
        At the default max_iter the direct engine stops after its first
        evaluation and the reference sweeps within 2 sweeps, once a change or
        the defect is not finite."""
        tree = TruncatedTree(2, 3)
        g = np.linspace(1.5e308, 1.7e308, tree.leaf_count)
        with np.errstate(over="ignore", invalid="ignore"):
            for engine in ENGINES:
                for variant in ("convex", "laplacian_full"):
                    report = solve(engine, tree, SolveConfig(variant=variant), g)
                    label = (engine, variant)
                    assert not report.converged, label
                    assert not np.isfinite(report.final_residual), label
                    assert report.iterations <= (1 if engine == "direct" else 2), label

    def test_nan_change_stops_reference_sweeps(self, monkeypatch):
        """A NaN on the first level a pass or sweep updates reaches
        `last_change` (the builtin max drops it) and stops the solve at once:
        the library's one pass, and a Gauss-Seidel or Jacobi sweep of the
        oracle."""
        import treeconvex._kernels as kernels

        tree = TruncatedTree(2, 4)
        # the oracle's Jacobi sweep evaluates its levels from the root down
        for module, engine, variant, first in [(kernels, "direct", "binary", tree.depth - 1),
                                               (oracles, "gs", "convex", tree.depth - 1),
                                               (oracles, "jacobi", "convex", 0)]:
            real, poisoned = module.level_operator, []

            def level_operator(*args, real=real, poisoned=poisoned):
                op = real(*args)
                if not poisoned:
                    poisoned.append(args[2])  # the level, in both signatures
                    op[0] = np.nan
                return op

            monkeypatch.setattr(module, "level_operator", level_operator)
            with np.errstate(invalid="ignore"):
                report = solve(engine, tree, SolveConfig(variant=variant, max_iter=50),
                               np.linspace(0, 1, tree.leaf_count))
            monkeypatch.undo()
            label = (engine, variant)
            assert poisoned == [first], label
            assert report.iterations == 1 and not report.converged, label
            assert np.isnan(report.last_change) and np.isnan(report.final_residual), label

    @pytest.mark.parametrize("with_obstacle", [False, True], ids=["dirichlet", "obstacle"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sweeps_keep_the_smaller_value(self, monkeypatch, variant, with_obstacle):
        """A solve keeps the smaller of the new and the previous value at every
        vertex, for every variant: with a row kernel (the one pass) or an
        elimination (Howard) that overshoots by 1.0, a solve from the start
        state (the sup of the leaf data, or the obstacle) changes no value."""
        import treeconvex._kernels as kernels
        import treeconvex.solver as solver

        row = kernels._VARIANTS[variant]
        if row.reads_parent:
            real = solver._eliminate

            def overshoot(tree, values, alpha, beta, *args):
                real(tree, values, alpha, beta, *args)
                beta += 1.0

            monkeypatch.setattr(solver, "_eliminate", overshoot)
        else:
            monkeypatch.setitem(kernels._VARIANTS, variant,
                                row._replace(kernel=lambda *args: row.kernel(*args) + 1.0))
        tree = TruncatedTree(3, 4)
        rng = np.random.default_rng(31)
        cfg = SolveConfig(variant=variant, k=2 if row.takes_k else None, max_iter=1)
        if with_obstacle:
            f = rng.uniform(0, 1, tree.vertex_count)
            start, obstacle = f, f
        else:
            start, obstacle = _dirichlet_start(tree, rng.uniform(0, 1, tree.leaf_count)), None
        report = solver._solve(tree, start.copy(), cfg, obstacle)
        np.testing.assert_array_equal(report.solution.values, start)
        assert report.last_change == 0.0 and report.iterations == 1


def tie_rows(rng, n, m):
    """Rows of random data, and rows drawn from few values (ties, repeated
    minima and signed zeros)."""
    smooth = rng.standard_normal((n, m))
    few = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(n, m))
    return np.concatenate([smooth, few, np.zeros((1, m)), -np.zeros((1, m))])


class TestPolicyStep:
    """The row kernel of the convex and binary minimum, and the policy step
    that reads its choice codes."""

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 12])
    def test_min_kernel_is_head_of_sorted_row(self, m):
        # a stable sort keeps equal entries (-0.0 and 0.0) in column order,
        # as the kernel does, so the values agree bit for bit
        rng = np.random.default_rng(m)
        succ = tie_rows(rng, 4000, m)
        rows = np.arange(len(succ))
        head = np.sort(succ, axis=1, kind="stable")[:, :2]
        pair = (head[:, 0] + head[:, 1]) / 2.0
        par = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=len(succ))
        branch = (par + m * head[:, 0]) / (m + 1)
        dtype = np.min_scalar_type(-m)
        # one parent per row, as a column
        for p, expected in [(None, pair), (par[:, None], np.minimum(pair, branch))]:
            values = _min_kernel(succ, p, m, None)
            op, first, second = _min_kernel(succ, p, m, None, dtype)
            assert np.array_equal(values.view(np.uint64), expected.view(np.uint64)), p is None
            assert np.array_equal(op.view(np.uint64), values.view(np.uint64)), p is None
            assert first.dtype == second.dtype == dtype
            assert np.all((0 <= first) & (first < m)), p is None
            assert np.array_equal(succ[rows, first].view(np.uint64), head[:, 0].view(np.uint64))
            pred = second == PRED
            assert p is not None or not pred.any()
            assert np.all(pred | ((0 <= second) & (second < m) & (second != first)))
            # at PRED, `second` indexes the last column; np.where drops it
            attained = np.where(pred, branch, (succ[rows, first] + succ[rows, second]) / 2.0)
            assert np.array_equal(attained, op), p is None

    def test_improve_folds_the_defect(self):
        """On tied integer data the policy step returns the defect of `_defect`
        and the flat index where it peaks, with and without an obstacle."""
        rng = np.random.default_rng(151)
        for m, depth in [(2, 6), (3, 4), (5, 3)]:
            tree = TruncatedTree(m, depth)
            values = rng.integers(-2, 3, tree.vertex_count).astype(float)
            obstacle = rng.integers(-2, 3, tree.vertex_count).astype(float)
            for f in (None, obstacle):
                worst, at, deepest = _ConvexPolicy(tree, f).improve(values)
                assert (worst, at) == _defect(tree, values, "convex", None, f), (m, f is None)
                assert deepest == depth - 1, (m, f is None)

    def test_improve_returns_deepest_changed_level(self):
        """The policy step returns the deepest level whose stored choices it
        changed, and -1 when it changed none, with and without an obstacle."""
        rng = np.random.default_rng(157)
        for m, depth in [(2, 6), (3, 4), (5, 3)]:
            tree = TruncatedTree(m, depth)
            values = rng.uniform(-1, 1, tree.vertex_count)
            obstacle = rng.uniform(-1, 1, tree.vertex_count)
            for f in (None, obstacle):
                label = (m, f is None)
                policy = _ConvexPolicy(tree, f)
                assert policy.improve(values)[2] == depth - 1, label
                assert policy.improve(values)[2] == -1, label
                for levels in ([0], [1], [0, depth - 2], [depth - 1]):
                    for level in levels:
                        policy.first[tree.level_slice(level)] += 1  # a wrong code in every row
                    assert policy.improve(values)[2] == max(levels), (label, levels)
                    assert policy.improve(values)[2] == -1, (label, levels)

    @pytest.mark.parametrize("m,depth", [(2, 6), (3, 4), (5, 3)])
    def test_elimination_from_changed_level_is_bitwise_full(self, m, depth):
        """A row depends only on the choices at and below its level: after
        the choices of one shallow level change, eliminating again from that
        level gives the rows of a fresh full elimination bit for bit, with
        and without an obstacle."""
        rng = np.random.default_rng(163 + m)
        tree = TruncatedTree(m, depth)
        u, obstacle = rng.uniform(-1, 1, tree.vertex_count), rng.uniform(0, 2, tree.vertex_count)

        def rows(policy, level=None, alpha=None, beta=None):
            if alpha is None:
                alpha, beta = np.empty(tree.interior_count), np.empty(tree.interior_count)
            _eliminate(tree, u, alpha, beta, policy.system, level)
            return alpha, beta

        for f in (None, obstacle):
            for level in sorted({1, depth - 2}):
                label = (m, f is None, level)
                policy = _ConvexPolicy(tree, f)
                policy.improve(u)
                alpha, beta = rows(policy)
                before = beta.copy()
                # another choice in every row of the level: a pair for the
                # predecessor branch or the obstacle, the branch for a pair
                sl = tree.level_slice(level)
                first, second = policy.first[sl], policy.second[sl]
                pair = second >= 0
                first[first == TOUCH] = 0
                second[:] = np.where(pair, PRED, (first + 1) % m)
                rows(policy, level, alpha, beta)
                fresh = _ConvexPolicy(tree, f)
                fresh.first[:], fresh.second[:] = policy.first, policy.second
                full_alpha, full_beta = rows(fresh)
                assert np.array_equal(alpha.view(np.uint64), full_alpha.view(np.uint64)), label
                assert np.array_equal(beta.view(np.uint64), full_beta.view(np.uint64)), label
                assert not np.array_equal(beta, before), label  # the kept rows alone are stale

    @pytest.mark.parametrize("m,depth", [(2, 9), (3, 6), (5, 4)])
    def test_tied_data_against_jacobi(self, m, depth):
        """Integer data, so that equal successors give the policy a choice of
        columns (`TestDirect` covers data without ties): defect within tol,
        the Jacobi reference within 1e-10, the same coincidence set and
        bitwise reruns, Dirichlet and obstacle."""
        rng = np.random.default_rng(10 * m + depth)
        tree = TruncatedTree(m, depth)
        cfg = SolveConfig()
        g = rng.integers(0, 3, tree.leaf_count).astype(float)
        f = TreeFunction.from_values(tree, rng.integers(-2, 3, tree.vertex_count).astype(float))
        runs = [solve_problems(engine, tree, g, f, cfg) for engine in ("direct", "jacobi", "direct")]
        for problem, ((a, mask_a), (b, mask_b), (again, mask_again)) in enumerate(zip(*runs)):
            label = f"m={m} obstacle={bool(problem)}"
            assert a.converged and a.monotone and a.final_residual <= cfg.tol, label
            np.testing.assert_allclose(a.solution.values, b.solution.values,
                                       rtol=0, atol=1e-10, err_msg=label)
            assert np.array_equal(mask_a, mask_b), label
            assert np.array_equal(a.solution.values, again.solution.values), label
            assert np.array_equal(mask_a, mask_again), label

    def test_no_partition(self, monkeypatch):
        """Convex and binary solves, Dirichlet and obstacle, and both operator
        checks run the column pass, never a partition; kconvex sorts each row
        once, and partitions neither."""
        def refuse(*args, **kwargs):
            raise AssertionError("no kernel may partition")

        monkeypatch.setattr(np, "partition", refuse)
        monkeypatch.setattr(np, "argpartition", refuse)
        rng = np.random.default_rng(149)
        for m, depth in [(2, 6), (3, 4), (5, 3), (8, 2)]:
            tree = TruncatedTree(m, depth)
            g = rng.uniform(0, 1, tree.leaf_count)
            f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
            for variant, check in [("convex", is_convex_operator), ("binary", is_binary_convex)]:
                cfg = SolveConfig(variant=variant)
                report = solve_dirichlet(tree, g, cfg)
                assert report.converged and check(report.solution).ok, variant
                assert solve_obstacle(f, cfg).report.converged, variant
            cfg = SolveConfig(variant="kconvex", k=2)
            assert solve_dirichlet(tree, g, cfg).converged and solve_obstacle(f, cfg).report.converged


# The largest error of the public solve against the exact oracle, as a share
# of max|data|, in units of 2**-52: `oracles.exact_one_pass` for the
# successor-only variants, `exact_howard` for convex and
# `exact_laplacian_full`.  Over 200 seeds of the cases below (NumPy 2.4.6),
# the worst of the dyadic and tied data was: binary 0.57 (obstacle 0.62),
# kconvex 0.73 (obstacle 0.81) and laplacian_arborescence 0.79.  With Howard
# stopping on a repeated policy, over 100 seeds of the dyadic and tied data
# and 200 of the large data: convex 8.05 (dyadic at m=2 L=8 times 2**20;
# obstacle 7.56; 4.10 and 4.02 on large data) and laplacian_full 2.23 (large
# data; 0.96 on dyadic data).  Each bound keeps a margin of 1.4-1.9 over the
# worst seed; on the seeds used here the worst are 0.49, 0.49, 0.43, 7.00
# and 1.39.  The convex error is several times the defect: at m=2 L=8 on
# the first dyadic case, a defect of 2.2e-16 and an error of 1.06e-15, the
# iterate below u* at 254 of 255 interior vertices.
EXACT_BOUND = {"binary": 1.0, "kconvex": 1.5, "laplacian_arborescence": 1.5,
               "convex": 12.0, "laplacian_full": 4.0}
ONE_PASS = ("binary", "kconvex", "laplacian_arborescence")
TREES = [(2, 8), (3, 5), (5, 3), (8, 2)]


def exact_solution(m, depth, variant, k, leaves=None, obstacle=None):
    if variant == "convex":
        return oracles.exact_howard(m, depth, leaves, obstacle).values
    if variant == "laplacian_full":
        return oracles.exact_laplacian_full(m, depth, leaves)
    return oracles.exact_one_pass(m, depth, variant, k, leaves, obstacle)


def error_share(u, cfg, leaves=None, obstacle=None):
    """The largest error of `u` against the exact solution of the Dirichlet
    problem on `leaves` or of the obstacle problem, as a share of max|data|,
    in units of 2**-52."""
    exact = exact_solution(u.tree.m, u.tree.depth, cfg.variant, cfg.k, leaves, obstacle)
    top = Fraction(np.abs(leaves if obstacle is None else obstacle).max())
    err = max(abs(Fraction(x) - e) for x, e in zip(u.values.tolist(), exact, strict=True))
    return err / top * 2**52


def exact_shares(tree, cfg, g, f):
    """(obstacle or not, error share) of the Dirichlet solve on leaves g and,
    for an envelope variant, of the obstacle solve on f."""
    yield False, error_share(solve_dirichlet(tree, g, cfg).solution, cfg, leaves=g)
    if cfg.variant in ENVELOPE_VARIANTS:
        u = solve_obstacle(TreeFunction.from_values(tree, f), cfg).envelope
        yield True, error_share(u, cfg, obstacle=f)


def configs(variant, m):
    return [SolveConfig(variant=variant, k=k) for k in ((2, m) if variant == "kconvex" else (None,))]


def dyadic(rng, n, lo=-1024, hi=1024):
    """n values k/1024, lo <= k <= hi: the float data are the same rationals."""
    return rng.integers(lo, hi + 1, n) / 1024


class TestExactOracle:
    """The public solve against exact arithmetic, which shares no rounding
    with it, on dyadic data (k/1024, with ties) times 1, 2**20 and 1e-3, on
    tied integers, and on data in the thousands and above."""

    def assert_dyadic_within_bound(self, variant, m, depth):
        tree = TruncatedTree(m, depth)
        rng = np.random.default_rng([m, depth])
        for cfg in configs(variant, m):
            for scale in (1.0, 2.0**20, 1e-3):
                g = dyadic(rng, tree.leaf_count) * scale
                f = dyadic(rng, tree.vertex_count) * scale
                for obstacle, share in exact_shares(tree, cfg, g, f):
                    assert share <= EXACT_BOUND[variant], (cfg.k, scale, obstacle, float(share))

    @pytest.mark.parametrize("m,depth", TREES)
    @pytest.mark.parametrize("variant", ONE_PASS)
    def test_one_pass_within_rounding_of_exact(self, variant, m, depth):
        self.assert_dyadic_within_bound(variant, m, depth)

    @pytest.mark.parametrize("m,depth", TREES)
    @pytest.mark.parametrize("variant", ["convex", "laplacian_full"])
    def test_elimination_within_rounding_of_exact(self, variant, m, depth):
        self.assert_dyadic_within_bound(variant, m, depth)

    @pytest.mark.parametrize("variant", list(EXACT_BOUND))
    def test_tied_data_within_rounding_of_exact(self, variant):
        for m, depth in TREES:
            tree = TruncatedTree(m, depth)
            rng = np.random.default_rng([7, m, depth])
            for cfg in configs(variant, m):
                g = rng.integers(-2, 3, tree.leaf_count).astype(float)
                f = rng.integers(-2, 3, tree.vertex_count).astype(float)
                for obstacle, share in exact_shares(tree, cfg, g, f):
                    assert share <= EXACT_BOUND[variant], (m, cfg.k, obstacle, float(share))

    def test_exact_howard_meets_ties(self):
        # the solution of tied data is attained by more than one choice at
        # some vertices, with and without an obstacle, and is an exact fixed
        # point of the convex operator there
        tree = TruncatedTree(3, 4)
        rng = np.random.default_rng(11)
        g = rng.integers(-2, 3, tree.leaf_count).astype(float)
        f = rng.integers(-2, 3, tree.vertex_count).astype(float)
        for run, bound in [(oracles.exact_howard(3, 4, g), None),
                           (oracles.exact_howard(3, 4, obstacle=f), f)]:
            assert run.ties > 0 and run.evaluations >= 1
            for x in range(tree.interior_count):
                succ = run.values[3 * x + 1: 3 * x + 4]
                terms = [(a + b) / 2 for a, b in combinations(succ, 2)]
                if x:
                    terms += [(run.values[(x - 1) // 3] + 3 * y) / 4 for y in succ]
                if bound is not None:
                    terms.append(Fraction(bound[x]))
                assert run.values[x] == min(terms)

    @pytest.mark.parametrize("variant", ["convex", "laplacian_full"])
    def test_large_data_within_rounding_of_exact(self, variant):
        """On data in [4096, 8192], and on the same shape in [2**20, 2**21] and
        [1e4, 2e4], each also negated, the rounding of the optimal policy's
        evaluation can leave the defect above the absolute tol of 1e-12.  Each
        solve stops on the repeated policy (the Laplacian after its one
        evaluation) and converges within tol plus 4 ulps of max|u| per level,
        within EXACT_BOUND of the exact solution and within 1e-10 * scale of
        Jacobi, Dirichlet and obstacle."""
        cfg = SolveConfig(variant=variant)
        for m, depth in [(2, 8), (3, 6)]:
            tree = TruncatedTree(m, depth)
            rng = np.random.default_rng([0, m, depth])
            g0 = dyadic(rng, tree.leaf_count, 1024, 2048)
            f0 = dyadic(rng, tree.vertex_count, 1024, 2048)
            for scale in (2.0**12, 2.0**20, 1e4, -2.0**12, -2.0**20, -1e4):
                g, f = scale * g0, TreeFunction.from_values(tree, scale * f0)
                runs = [solve_problems(engine, tree, g, f, cfg) for engine in ("direct", "jacobi")]
                for (a, mask_a), (b, mask_b) in zip(*runs):
                    obstacle = None if mask_a is None else f.values
                    label = f"m={m} scale={scale} obstacle={obstacle is not None}"
                    u = a.solution.values
                    assert a.converged and a.monotone, label
                    rounding = 4 * depth * np.spacing(np.abs(u).max())
                    assert a.final_residual <= cfg.tol + rounding, label
                    if variant == "laplacian_full":
                        assert a.iterations == 1, label
                    share = error_share(a.solution, cfg, g if obstacle is None else None, obstacle)
                    assert share <= EXACT_BOUND[variant], (label, float(share))
                    np.testing.assert_allclose(u, b.solution.values, rtol=0,
                                               atol=1e-10 * abs(scale), err_msg=label)
                    assert np.array_equal(mask_a, mask_b), label


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
        for tol in (np.inf, np.nan):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                SolveConfig(tol=tol)
        # a string failed the range check with a TypeError that named nothing
        with pytest.raises(ValueError) as exc:
            SolveConfig(tol="1e-3")
        assert str(exc.value) == "tol must be finite and positive, got '1e-3'"

    def test_max_iter_must_be_an_integer(self):
        # a sweep count never equals 2.5, so that cap stopped nothing
        for bad, text in [(2.5, "2.5"), (2.0, "2.0"), ("2", "'2'")]:
            with pytest.raises(ValueError) as exc:
                SolveConfig(max_iter=bad)
            assert str(exc.value) == f"max_iter must be an integer, got {text}"
        tree = TruncatedTree(2, 5)
        g = np.linspace(0, 1, tree.leaf_count) ** 2
        for engine in ENGINES:
            report = solve(engine, tree, SolveConfig(max_iter=np.int64(2)), g)
            assert report.iterations == 2 and not report.converged, engine

    def test_k_must_be_an_integer(self):
        for bad in (2.5, 2.0):
            with pytest.raises(ValueError) as exc:
                SolveConfig(variant="kconvex", k=bad)
            assert str(exc.value) == f"k must be an integer, got {bad}"
        tree = TruncatedTree(3, 3)
        g = np.linspace(0, 1, tree.leaf_count)
        for k in (np.int64(2), np.int32(3)):
            got = solve_dirichlet(tree, g, SolveConfig(variant="kconvex", k=k)).solution.values
            want = solve_dirichlet(tree, g, SolveConfig(variant="kconvex", k=int(k))).solution.values
            np.testing.assert_array_equal(got, want)


class TestObstacle:
    def test_depth_one_hand_example(self):
        tree = TruncatedTree(2, 1)
        f = TreeFunction.from_values(tree, [5.0, 1.0, 2.0])
        result = solve_obstacle(f, SolveConfig(variant="convex"))
        assert result.envelope.values[0] == 1.5
        assert list(result.coincidence_mask) == [False, True, True]
        assert result.report.converged

    @pytest.mark.parametrize("variant", ["laplacian_full", "laplacian_arborescence"])
    def test_laplacian_variant_refused(self, variant):
        f = TreeFunction.from_values(TruncatedTree(2, 2), np.zeros(7))
        with pytest.raises(ValueError) as exc:
            solve_obstacle(f, SolveConfig(variant=variant))
        assert str(exc.value) == f"variant {variant!r} is not an envelope equation"

    def test_convex_obstacle_is_its_own_envelope(self):
        tree = TruncatedTree(3, 4)
        f = oracles.reference_convex_indicator(tree, Vertex(3, (2,)))
        result = solve_obstacle(f, SolveConfig(variant="convex"))
        np.testing.assert_array_equal(result.envelope.values, f.values)
        assert result.coincidence_mask.all()

    def test_envelope_below_and_min_preserved(self):
        rng = np.random.default_rng(101)
        cfg = SolveConfig(variant="convex")
        for m, depth in [(2, 4), (3, 3)]:
            tree = TruncatedTree(m, depth)
            for _ in range(10):
                f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
                result = solve_obstacle(f, cfg)
                u = result.envelope.values
                assert np.all(u <= f.values)
                assert abs(u.min() - f.values.min()) <= 1e-12
                argmin = int(np.argmin(f.values))
                assert u[argmin] <= f.values.min() + 1e-12

    def test_equation_holds_off_coincidence_set(self):
        rng = np.random.default_rng(103)
        tree = TruncatedTree(2, 5)
        cfg = SolveConfig(variant="convex")
        f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
        result = solve_obstacle(f, cfg)
        u = result.envelope.values
        op = operator_values(tree, u, "convex")
        interior = tree.interior_slice
        off_cs = ~result.coincidence_mask[interior]
        assert np.all(np.abs(u[interior][off_cs] - op[interior][off_cs]) <= 1e-10)


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
        assert residual(report.solution, "laplacian_full") <= 1e-12


class TestResidual:
    def test_fixed_points_have_zero_residual(self):
        rng = np.random.default_rng(127)
        tree = TruncatedTree(3, 4)
        g = rng.uniform(0, 1, tree.leaf_count)
        for variant in ("convex", "binary"):
            u = solve_dirichlet(tree, g, SolveConfig(variant=variant)).solution
            assert residual(u, variant) <= 1e-12

    def test_reference_residual(self):
        tree = TruncatedTree(3, 5)
        u = oracles.reference_convex_indicator(tree, Vertex(3, (1, 2)))
        assert residual(u, "convex") <= 1e-12

    def test_single_vertex_perturbation_visible(self):
        rng = np.random.default_rng(131)
        for m in (2, 3):
            tree = TruncatedTree(m, 4)
            g = rng.uniform(0, 1, tree.leaf_count)
            u = solve_dirichlet(tree, g, SolveConfig(variant="convex")).solution
            base = residual(u, "convex")
            delta = 0.01
            for _ in range(10):
                flat = int(rng.integers(0, tree.interior_count))
                bumped = TreeFunction.from_values(tree, u.values)
                bumped.values[flat] += delta
                # the operator never reads the vertex itself, so the defect at
                # the bumped vertex is at least delta * m / (m + 1)
                assert residual(bumped, "convex") >= delta * m / (m + 1) - base - 1e-12

    def test_nan_is_the_worst_defect(self):
        # `residual` refuses a NaN; the solver's defect meets one on overflow
        tree = TruncatedTree(2, 3)
        for flat in (0, 3, tree.interior_count - 1, tree.vertex_count - 1):
            values = np.zeros(tree.vertex_count)
            values[flat] = np.nan
            assert np.isnan(_defect(tree, values, "convex", None)[0]), flat

    def test_fold_ties_take_the_first_flat_index(self):
        """Across levels the defect's vertex is the first in flat order, for a
        tie of the largest gaps and for NaNs alike, from `_defect` and from
        the policy step; the operator checks list violations in flat order."""
        tree = TruncatedTree(2, 3)  # flat 1 and 2 on level 1, 3-6 on level 2
        tied = np.zeros(tree.vertex_count)
        tied[[1, 5]] = 1.0  # gap 1 at both, every other gap at most 0.5
        nans = np.zeros(tree.vertex_count)
        nans[[6, 9]] = np.nan  # NaN gaps at 2 and 6 (through 6) and 4 (leaf 9)
        for values, want, flat in [(tied, 1.0, 1), (nans, np.nan, 2)]:
            for variant in ("convex", "binary"):
                worst, at = _defect(tree, values, variant, None)
                assert np.array_equal(worst, want, equal_nan=True) and at == flat, variant
            worst, at, _ = _ConvexPolicy(tree, None).improve(values)
            assert np.array_equal(worst, want, equal_nan=True) and at == flat
        u = TreeFunction.from_values(tree, tied)
        assert is_convex_operator(u).violations == [1, 5]
        assert is_binary_convex(u).violations == [1, 5]

    def test_function_validated(self):
        """A directly built function with a value too many or too few, or a
        value that is not finite, is refused with `validate`'s message, by
        `residual` and `solve_obstacle` alike."""
        tree = TruncatedTree(2, 3)
        n = tree.vertex_count
        bad = [(np.zeros(n + 3), f"expected {n} values for m=2, depth=3, got shape \\({n + 3},\\)"),
               (np.zeros(n - 1), f"expected {n} values for m=2, depth=3, got shape \\({n - 1},\\)"),
               (np.where(np.arange(n) == 5, np.nan, 0.0), "values must be finite"),
               (np.where(np.arange(n) == 5, np.inf, 0.0), "values must be finite")]
        for values, message in bad:
            u = TreeFunction(tree, values)
            with pytest.raises(ValueError, match=message):
                residual(u, "convex")
            for variant in ("convex", "binary"):
                with pytest.raises(ValueError, match=message):
                    solve_obstacle(u, SolveConfig(variant=variant))

    def test_variant_validation(self):
        tree = TruncatedTree(2, 2)
        u = TreeFunction.from_values(tree, np.zeros(tree.vertex_count))
        with pytest.raises(ValueError, match="unknown variant"):
            residual(u, "hexagonal")
