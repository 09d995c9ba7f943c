"""Operator, predicate, eigenvalue, and reference-function tests."""

from __future__ import annotations

import ast
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from treeconvex import (
    SolveConfig,
    TreeFunction,
    TruncatedTree,
    Vertex,
    is_binary_convex,
    is_convex_operator,
    is_convex_segment,
    residual,
    solve_dirichlet,
    solve_obstacle,
)
from treeconvex._kernels import level_operator, operator_levels

import oracles


def function_with(tree, assignments, fill=0.0):
    values = np.full(tree.vertex_count, fill)
    for text, val in assignments.items():
        values[tree.flat_index(Vertex.parse(tree.m, text))] = val
    return TreeFunction.from_values(tree, values)


def random_function(tree, rng, scale=1.0):
    return TreeFunction.from_values(tree, scale * rng.standard_normal(tree.vertex_count))


def interior_vertices(tree):
    """Every interior vertex in flat order."""
    return [Vertex(tree.m, d) for d in oracles.digit_tuples(tree.m, tree.depth - 1)]


def children(x):
    return [Vertex(x.m, x.digits + (d,)) for d in range(x.m)]


class TestOperators:
    def test_op_convex_example(self):
        tree = TruncatedTree(3, 2)
        u = function_with(tree, {"root": 0.0, "1.0": 3.0, "1.1": 1.0, "1.2": 2.0})
        assert oracles.op_convex(u, Vertex(3, (1,))) == pytest.approx(0.75)
        assert level_operator(tree, u.values, 1, "convex")[1] == pytest.approx(0.75)

    def test_level_kernels_match_pointwise_operators(self):
        """Each row of the per-variant kernel table equals the independent
        pointwise operator at every interior vertex; at the root the full
        Laplacian uses the successor average."""
        rng = np.random.default_rng(37)
        for m in (2, 3, 4):
            tree = TruncatedTree(m, 3)
            u = TreeFunction.from_values(tree, rng.uniform(-1, 1, tree.vertex_count))
            runs = [("convex", None), ("binary", None), ("laplacian_full", None),
                    ("laplacian_arborescence", None)]
            runs += [("kconvex", k) for k in range(2, m + 1)]
            ops = {run: [level_operator(tree, u.values, level, *run) for level in range(tree.depth)]
                   for run in runs}
            for x in interior_vertices(tree):
                row = {run: ops[run][x.level][x.index] for run in runs}
                assert row["convex", None] == oracles.op_convex(u, x), x
                assert row["binary", None] == oracles.op_binary(u, x), x
                for k in range(2, m + 1):
                    assert row["kconvex", k] == oracles.op_kconvex(u, x, k), (x, k)
                ux = u.values[tree.flat_index(x)]
                arb = ux + oracles.arborescence_laplacian(u, x)
                full = arb if x.is_root else ux + oracles.laplacian_residual(u, x)
                assert abs(row["laplacian_full", None] - full) <= 1e-15, x
                assert abs(row["laplacian_arborescence", None] - arb) <= 1e-15, x

    @pytest.mark.parametrize("m", range(2, 9))
    def test_level_kernels_match_oracle_operator(self, m):
        """The reference engine's sort-based operator equals the kernel
        table's bit for bit at every interior vertex, with and without an
        obstacle, on uniform data and on tied integers, kconvex at every k."""
        rng = np.random.default_rng([41, m])
        tree = TruncatedTree(m, 3)
        runs = [("convex", None), ("binary", None), ("laplacian_full", None),
                ("laplacian_arborescence", None)]
        runs += [("kconvex", k) for k in range(2, m + 1)]
        n = tree.vertex_count
        for values, obstacle in [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)),
                                 (rng.integers(-2, 3, n).astype(float),
                                  rng.integers(-2, 3, n).astype(float))]:
            for f in (None, obstacle):
                for variant, k in runs:
                    levels = operator_levels(tree, values, variant, k, f)  # leaves to root
                    want = np.concatenate([op for _, op in levels][::-1])
                    got = oracles.operator(tree, values, variant, k, f)
                    assert_bitwise([got], [want])

    def test_constant_is_fixed(self):
        tree = TruncatedTree(3, 2)
        u = TreeFunction.from_values(tree, np.full(tree.vertex_count, 4.25))
        for x in interior_vertices(tree):
            assert oracles.op_convex(u, x) == 4.25
            assert oracles.op_binary(u, x) == 4.25
            assert oracles.op_kconvex(u, x, 3) == 4.25
        for level in range(tree.depth):
            for variant in ("convex", "binary"):
                assert (level_operator(tree, u.values, level, variant) == 4.25).all()

    def test_op_convex_at_reference_vertex(self):
        # at x0 both terms evaluate to known closed-form values and the
        # predecessor branch wins: (0 + 3 * 8/9) / 4 = 2/3
        tree = TruncatedTree(3, 4)
        x0 = Vertex(3, (1,))
        u = oracles.reference_convex_indicator(tree, x0)
        assert oracles.op_convex(u, x0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert u.values[tree.flat_index(x0)] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_op_binary_examples(self):
        tree = TruncatedTree(3, 1)
        u = function_with(tree, {"0": 3.0, "1": 1.0, "2": 2.0})
        assert oracles.op_binary(u, Vertex(3, ())) == 1.5

        tree2 = TruncatedTree(2, 1)
        u2 = function_with(tree2, {"0": -1.0, "1": 4.0})
        assert oracles.op_binary(u2, Vertex(2, ())) == 1.5  # unique pair

    def test_op_kconvex_examples(self):
        tree = TruncatedTree(4, 1)
        u = function_with(tree, {"0": 4.0, "1": 1.0, "2": 2.0, "3": 9.0})
        root = Vertex(4, ())
        assert oracles.op_kconvex(u, root, 3) == pytest.approx(7.0 / 3.0)
        assert oracles.op_kconvex(u, root, 2) == oracles.op_binary(u, root)
        assert oracles.op_kconvex(u, root, 4) == pytest.approx(4.0)  # plain average

    def test_kconvex_matches_binary_randomly(self):
        rng = np.random.default_rng(11)
        tree = TruncatedTree(4, 2)
        for _ in range(20):
            u = random_function(tree, rng)
            for x in interior_vertices(tree):
                assert oracles.op_kconvex(u, x, 2) == oracles.op_binary(u, x)
                assert oracles.op_kconvex(u, x, 4) == pytest.approx(
                    float(np.mean([u.values[tree.flat_index(c)] for c in children(x)])), abs=1e-14)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_library_pointwise_operators_match_oracle(self, m):
        """The library's `op_convex` and `op_binary`, which the benchmark's
        checks import, equal the oracle's bit for bit, as Python floats, at
        every interior vertex, on uniform data and on tied integers; at every
        leaf both refuse."""
        from treeconvex import op_binary, op_convex

        rng = np.random.default_rng([47, m])
        tree = TruncatedTree(m, 3)
        n = tree.vertex_count
        for values in (rng.uniform(-1, 1, n), rng.integers(-2, 3, n).astype(float)):
            u = TreeFunction.from_values(tree, values)
            for x in interior_vertices(tree):
                for got, want in [(op_convex(u, x), oracles.op_convex(u, x)),
                                  (op_binary(u, x), oracles.op_binary(u, x))]:
                    assert type(got) is type(want) is float
                    assert got.hex() == want.hex(), x
        for x in oracles.vertices(tree)[tree.interior_count:]:
            for fn in (op_convex, op_binary):
                with pytest.raises(ValueError) as exc:
                    fn(u, x)
                assert str(exc.value) == f"operator undefined at leaf {x} (no successors in the tree)"

    def test_leaf_rejected(self):
        tree = TruncatedTree(2, 2)
        u = TreeFunction.from_values(tree, np.zeros(tree.vertex_count))
        with pytest.raises(ValueError, match=r"^level 2 is not interior \(depth 2\)$"):
            level_operator(tree, u.values, tree.depth, "convex")


def exact_eigen_sum_convex(m, up, ux, succ):
    pairs = sum((a + b - 2 * ux) / 2 for a, b in combinations(succ, 2))
    branches = sum((up + m * s - (m + 1) * ux) / (m + 1) for s in succ)
    return pairs + branches


def exact_full_laplacian_defect(m, up, ux, succ):
    return (Fraction(2, (m + 1) ** 2) * up
            + Fraction(m * m + 2 * m - 1, (m + 1) ** 2) * sum(succ) / m - ux)


class TestEigenvalues:
    def test_constant_gives_zeros(self):
        tree = TruncatedTree(3, 2)
        u = TreeFunction.from_values(tree, np.full(tree.vertex_count, 2.5))
        x = Vertex(3, (1,))
        assert oracles.eigenvalues_convex(u, x) == pytest.approx([0.0] * 6, abs=1e-15)
        assert oracles.eigenvalues_binary(u, x) == pytest.approx([0.0] * 3, abs=1e-15)
        assert oracles.eigenvalues_k(u, x, 3) == pytest.approx([0.0], abs=1e-15)

    def test_min_eigenvalue_is_operator_gap(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 4):
            tree = TruncatedTree(m, 3)
            for _ in range(10):
                u = random_function(tree, rng)
                ops = [level_operator(tree, u.values, level, "convex") for level in range(3)]
                for x in interior_vertices(tree):
                    if x.is_root:
                        continue
                    gap = ops[x.level][x.index] - u.values[tree.flat_index(x)]
                    assert min(oracles.eigenvalues_convex(u, x)) == pytest.approx(gap, abs=1e-12)

    def test_sum_identities_exact_rational(self):
        # sum of the second-difference families equals the scaled Laplacian
        # defects, verified in exact arithmetic on random rational data
        rng = np.random.default_rng(17)
        for m in (2, 3, 4, 5):
            for _ in range(10):
                up, ux = (Fraction(int(rng.integers(-50, 50)), 16) for _ in range(2))
                succ = [Fraction(int(rng.integers(-50, 50)), 16) for _ in range(m)]
                lhs = exact_eigen_sum_convex(m, up, ux, succ)
                rhs = Fraction(m * (m + 1), 2) * exact_full_laplacian_defect(m, up, ux, succ)
                assert lhs == rhs
                pair_sum = sum((a + b) / 2 - ux for a, b in combinations(succ, 2))
                arb = sum(succ) / m - ux
                assert pair_sum == Fraction(m * (m - 1), 2) * arb

    def test_sum_identities_float(self):
        rng = np.random.default_rng(23)
        for m in (2, 3, 4, 5):
            tree = TruncatedTree(m, 3)
            for _ in range(25):
                u = random_function(tree, rng)
                for x in [Vertex.from_level_index(m, 1, 0), Vertex.from_level_index(m, 2, m)]:
                    total = sum(oracles.eigenvalues_convex(u, x))
                    assert total == pytest.approx(
                        m * (m + 1) / 2 * oracles.laplacian_residual(u, x), abs=1e-12)
                    assert sum(oracles.eigenvalues_binary(u, x)) == pytest.approx(
                        m * (m - 1) / 2 * oracles.arborescence_laplacian(u, x), abs=1e-12)

    def test_k_subset_sum_is_scaled_arborescence(self):
        from math import comb

        rng = np.random.default_rng(29)
        for m, k in [(4, 2), (4, 3), (5, 3), (5, 4)]:
            tree = TruncatedTree(m, 2)
            u = random_function(tree, rng)
            for x in interior_vertices(tree):
                assert sum(oracles.eigenvalues_k(u, x, k)) == pytest.approx(
                    comb(m, k) * oracles.arborescence_laplacian(u, x), abs=1e-12)


class TestLaplacians:
    def test_constant_zero_and_coefficients_sum(self):
        tree = TruncatedTree(4, 2)
        u = TreeFunction.from_values(tree, np.full(tree.vertex_count, -1.75))
        x = Vertex(4, (2,))
        assert oracles.laplacian_residual(u, x) == pytest.approx(0.0, abs=1e-15)
        assert oracles.arborescence_laplacian(u, x) == pytest.approx(0.0, abs=1e-15)

    def test_full_laplacian_hand_example(self):
        tree = TruncatedTree(2, 2)
        u = function_with(tree, {"root": 9.0, "0": 2.0, "0.0": 0.0, "0.1": 0.0})
        assert oracles.laplacian_residual(u, Vertex(2, (0,))) == pytest.approx(0.0, abs=1e-15)

    def test_arborescence_example(self):
        tree = TruncatedTree(3, 1)
        u = function_with(tree, {"root": 1.0, "0": 3.0, "1": 1.0, "2": 2.0})
        assert oracles.arborescence_laplacian(u, Vertex(3, ())) == pytest.approx(1.0)

    def test_residual_scaled_eigen_sum(self):
        rng = np.random.default_rng(31)
        for m in (2, 3):
            tree = TruncatedTree(m, 3)
            u = random_function(tree, rng)
            for x in interior_vertices(tree):
                if x.is_root:
                    continue
                assert oracles.laplacian_residual(u, x) == pytest.approx(
                    2 / (m * (m + 1)) * sum(oracles.eigenvalues_convex(u, x)), abs=1e-12)
                assert oracles.arborescence_laplacian(u, x) == pytest.approx(
                    2 / (m * (m - 1)) * sum(oracles.eigenvalues_binary(u, x)), abs=1e-12)


class TestReferences:
    def test_convex_indicator_values(self):
        tree = TruncatedTree(3, 4)
        u = oracles.reference_convex_indicator(tree, Vertex(3, (1,)))
        assert u.values[tree.flat_index(Vertex(3, (1,)))] == pytest.approx(2 / 3, abs=1e-15)
        assert u.values[tree.flat_index(Vertex(3, (1, 0)))] == pytest.approx(8 / 9, abs=1e-15)
        assert u.values[tree.flat_index(Vertex(3, (0,)))] == 0.0

    def test_convex_indicator_closed_form_and_limit(self):
        # the level sums telescope: value at relative depth j is 1 - m^-(j+1)
        for m in (2, 3, 5):
            tree = TruncatedTree(m, 6)
            x0 = Vertex(m, (1,))
            u = oracles.reference_convex_indicator(tree, x0)
            v = x0
            branch_values = []
            for j in range(tree.depth - x0.level + 1):
                branch_values.append(u.values[tree.flat_index(v)])
                assert branch_values[-1] == float(1 - Fraction(1, m ** (j + 1)))
                v = children(v)[0]
            # strictly increasing toward 1 down any branch inside the subtree
            assert all(a < b < 1.0 for a, b in zip(branch_values, branch_values[1:]))

    @pytest.mark.parametrize("m", [3, 5])
    def test_reference_equalities_for_wide_trees(self, m):
        tree = TruncatedTree(m, 4)
        for x0 in [Vertex(m, (1,)), Vertex(m, (0, 1)), Vertex(m, (m - 1, 0, 1))]:
            assert residual(oracles.reference_convex_indicator(tree, x0), "convex") <= 1e-12
            assert residual(oracles.reference_binary_indicator(tree, x0), "binary") <= 1e-12

    def test_reference_equality_gaps_at_m2(self):
        # for m = 2 the equation holds with equality everywhere except:
        # the convex indicator at the root when |x0| = 1 (pair average 1/4),
        # and the binary indicator at the parent of x0 (pair average 1/2);
        # the inequality (convexity itself) still holds there
        tree = TruncatedTree(2, 5)
        u = oracles.reference_convex_indicator(tree, Vertex(2, (1,)))
        assert oracles.op_convex(u, Vertex(2, ())) == 0.25
        assert residual(u, "convex") == 0.25
        assert is_convex_operator(u).ok

        u2 = oracles.reference_convex_indicator(tree, Vertex(2, (1, 0)))
        assert residual(u2, "convex") <= 1e-15

        b = oracles.reference_binary_indicator(tree, Vertex(2, (1, 0)))
        assert oracles.op_binary(b, Vertex(2, (1,))) == 0.5
        assert residual(b, "binary") == 0.5
        assert is_binary_convex(b).ok

    def test_binary_indicator_values_and_convex_violation(self):
        tree = TruncatedTree(3, 3)
        x0 = Vertex(3, (1,))
        u = oracles.reference_binary_indicator(tree, x0)
        assert u.values[tree.flat_index(x0)] == 1.0
        assert u.values[tree.flat_index(Vertex(3, (0,)))] == 0.0
        assert is_binary_convex(u, mode="operator").ok
        assert is_binary_convex(u, mode="subtrees").ok
        # not convex: at x0 the predecessor branch gives m/(m+1) < 1
        assert oracles.op_convex(u, x0) == pytest.approx(3 / 4)
        check = is_convex_operator(u)
        assert not check.ok
        assert tree.flat_index(x0) in check.violations


def assert_pointwise_violations(check, u, op):
    """An operator check lists, in strictly increasing flat order, exactly the
    interior vertices where the pointwise operator is exceeded by more than
    the default tol."""
    assert all(a < b for a, b in zip(check.violations, check.violations[1:]))
    assert check.violations == [flat for flat, x in enumerate(interior_vertices(u.tree))
                                if u.values[flat] > op(u, x) + 1e-9]


class TestPredicates:
    def test_constant_passes_everything(self):
        tree = TruncatedTree(2, 3)
        u = TreeFunction.from_values(tree, np.ones(tree.vertex_count))
        assert is_convex_operator(u).ok
        assert is_convex_segment(u).ok
        assert is_binary_convex(u, mode="operator").ok
        assert is_binary_convex(u, mode="subtrees").ok

    def test_unknown_binary_mode_refused(self):
        u = TreeFunction.from_values(TruncatedTree(2, 2), np.ones(7))
        with pytest.raises(ValueError) as exc:
            is_binary_convex(u, mode="x")
        assert str(exc.value) == "mode must be 'operator' or 'subtrees', got 'x'"

    PREDICATES = [is_convex_operator, is_convex_segment,
                  lambda u, tol: is_binary_convex(u, tol, mode="operator"),
                  lambda u, tol: is_binary_convex(u, tol, mode="subtrees")]

    def test_tol_must_be_finite_and_non_negative(self):
        u = TreeFunction.from_values(TruncatedTree(2, 2), np.ones(7))
        for predicate in self.PREDICATES:
            # a string failed in np.isfinite with a TypeError that named nothing
            for tol in (np.nan, np.inf, -1.0, "0.1"):
                with pytest.raises(ValueError) as exc:
                    predicate(u, tol)
                assert str(exc.value) == f"tol must be finite and non-negative, got {tol!r}"
            assert predicate(u, 0.0).ok

    def test_values_must_be_finite_and_one_per_vertex(self):
        # a TreeFunction built directly skips from_values' checks; a nan
        # fails every comparison, so each predicate would call it convex
        tree = TruncatedTree(2, 3)
        values = np.zeros(tree.vertex_count)
        values[1] = np.nan
        refused = [(values, "tree function values must be finite"),
                   (np.zeros(14), "expected 15 values for m=2, depth=3, got shape (14,)"),
                   (np.zeros(16), "expected 15 values for m=2, depth=3, got shape (16,)")]
        for predicate in self.PREDICATES:
            for bad, message in refused:
                with pytest.raises(ValueError) as exc:
                    predicate(TreeFunction(tree, bad), 1e-9)
                assert str(exc.value) == message

    def test_spike_at_root_fails_both(self):
        tree = TruncatedTree(2, 2)
        u = function_with(tree, {"root": 5.0})
        check = is_convex_operator(u)
        assert not check.ok and check.violations == [0]
        assert not is_convex_segment(u).ok

    def test_segment_through_the_parent_component(self):
        # u = -2 at vertex 1, else 0: the segment from 0.0 up through the root
        # to 1 interpolates -0.4 at vertex 0, where u is 0, and the segment
        # from 0 to 1 interpolates -1 at the root.  Vertex 0 passes the
        # operator check (its successors and parent are 0), so only its
        # parent component can flag it.
        u = function_with(TruncatedTree(2, 2), {"1": -2.0})
        assert is_convex_segment(u).violations == [0, 1]
        assert is_convex_operator(u).violations == [0]

    def test_operator_segment_agreement_smoke(self):
        rng = np.random.default_rng(37)
        levels = set()
        for m, depth in [(2, 3), (3, 2), (3, 3)]:
            tree = TruncatedTree(m, depth)
            for _ in range(20):
                u = random_function(tree, rng)
                check = is_convex_operator(u)
                assert check.ok == is_convex_segment(u).ok
                assert_pointwise_violations(check, u, oracles.op_convex)
                levels.add(len({tree.vertex_at(flat).level for flat in check.violations}))
        assert max(levels) >= 3

    def test_binary_mode_agreement_smoke(self):
        rng = np.random.default_rng(41)
        levels = set()
        for m, depth in [(2, 3), (3, 2), (3, 3)]:
            tree = TruncatedTree(m, depth)
            for _ in range(20):
                u = random_function(tree, rng)
                check = is_binary_convex(u, mode="operator")
                assert check.ok == is_binary_convex(u, mode="subtrees").ok
                assert_pointwise_violations(check, u, oracles.op_binary)
                levels.add(len({tree.vertex_at(flat).level for flat in check.violations}))
        assert max(levels) >= 3

    def test_convex_implies_binary(self):
        rng = np.random.default_rng(43)
        cfg = SolveConfig(variant="convex")
        tree = TruncatedTree(3, 3)
        for _ in range(10):
            u = solve_dirichlet(tree, rng.uniform(0, 1, tree.leaf_count), cfg).solution
            assert is_convex_operator(u).ok
            assert is_binary_convex(u, mode="operator").ok

    def test_closure_under_addition(self):
        rng = np.random.default_rng(47)
        tree = TruncatedTree(3, 3)
        for variant, predicate in [
            ("convex", is_convex_operator),
            ("binary", lambda u: is_binary_convex(u, mode="operator")),
        ]:
            cfg = SolveConfig(variant=variant)
            for _ in range(5):
                u = solve_dirichlet(tree, rng.uniform(0, 1, tree.leaf_count), cfg).solution
                v = solve_dirichlet(tree, rng.uniform(0, 1, tree.leaf_count), cfg).solution
                total = TreeFunction.from_values(tree, u.values + v.values)
                assert predicate(total).ok

    def test_subtree_mode_rel_depth_edges(self):
        # at depth 1 the subtrees are exactly the operator pairs at the root
        rng = np.random.default_rng(59)
        tree = TruncatedTree(3, 1)
        for raise_root in (0.0, 5.0):
            u = random_function(tree, rng)
            u.values[0] += raise_root
            subtrees = is_binary_convex(u, mode="subtrees")
            operator = is_binary_convex(u, mode="operator")
            assert subtrees.checked == operator.checked == 1
            assert (subtrees.ok, subtrees.violations) == (operator.ok, operator.violations)

    @pytest.mark.parametrize("m,depth", [(2, 9), (2, 14), (3, 4), (3, 8)])
    def test_definitions_run_past_the_old_budgets(self, m, depth):
        # the brute force skipped segments above 512 vertices (m=2 depth 9
        # on) and subtrees above 10^6 of them (m=3 depth 4, m=2 depth 6 on);
        # both now run, and a raised vertex is the only violation
        rng = np.random.default_rng([61, m, depth])
        tree = TruncatedTree(m, depth)
        u = solve_dirichlet(tree, rng.uniform(0, 1, tree.leaf_count),
                            SolveConfig(variant="convex")).solution
        raised = TreeFunction.from_values(tree, u.values)
        flat = int(rng.integers(1, tree.interior_count))
        raised.values[flat] += 2.0
        for predicate in (is_convex_segment, lambda u: is_binary_convex(u, mode="subtrees")):
            for f, want in [(u, []), (raised, [flat])]:
                check = predicate(f)
                assert (check.ok, check.checked, check.skipped, check.violations) == (
                    not want, tree.interior_count, None, want)

    def test_segment_budget_edge_runs(self):
        # past the old 512-vertex budget edge, the tracemalloc peak at m=2
        # depth 14: one level's per-level minima and two component minima
        # per interior vertex (34 B per vertex)
        tree, u = footprint_function()
        assert traced_peak(is_convex_segment, u) < 48 * tree.vertex_count

    def test_subtree_budget_edge_runs_in_blocks(self):
        # the subtree pass works a level at a time: a copy of u and one
        # level's temporaries (20 B per vertex) at m=2 depth 14
        tree, u = footprint_function()
        peak = traced_peak(lambda u: is_binary_convex(u, mode="subtrees"), u)
        assert peak < 32 * tree.vertex_count


def footprint_function():
    tree = TruncatedTree(2, 14)
    return tree, TreeFunction.from_values(
        tree, np.random.default_rng(97).uniform(0, 1, tree.vertex_count))


def traced_peak(predicate, u):
    tracemalloc.start()
    try:
        predicate(u)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def weights(root, ends):
    return [Fraction(1, 2 ** (len(y) - len(root))) for y in ends]


class TestBinarySubtrees:
    """The oracle's binary subtrees, as endpoint tuples: the bitwise array
    tests mean something only if they are right."""

    def test_depth_one_is_sibling_pairs(self):
        subs = oracles.subtrees(3, (0,), 1)
        assert subs == [((0, 0), (0, 1)), ((0, 0), (0, 2)), ((0, 1), (0, 2))]
        for ends in subs:
            assert weights((0,), ends) == [Fraction(1, 2)] * 2

    def test_count_matches_independent_recursion(self):
        def node_choices(m, r):
            if r == 0:
                return 1
            return 1 + (m * (m - 1) // 2) * node_choices(m, r - 1) ** 2

        for m, rel in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
            expected = (m * (m - 1) // 2) * node_choices(m, rel - 1) ** 2
            assert oracles.subtree_count(m, rel) == expected
            assert len(oracles.subtrees(m, (), rel)) == expected
        assert oracles.subtree_count(3, 0) == 0

    def test_structure_invariants_and_weights(self):
        m, x = 3, (0,)
        subs = oracles.subtrees(m, x, 2)
        assert len(set(subs)) == len(subs) == oracles.subtree_count(m, 2)
        for ends in subs:
            assert all(len(y) > len(x) and y[: len(x)] == x for y in ends)
            # prefix-free: no endpoint lies below another
            assert not any(a != b and b[: len(a)] == a for a in ends for b in ends)
            # the members are the endpoints and their ancestors up to x; x has
            # two member successors, every endpoint none, every other member two
            members = {y[:k] for y in ends for k in range(len(x), len(y) + 1)}
            for v in members:
                kids = [v + (d,) for d in range(m) if v + (d,) in members]
                assert len(kids) == (0 if v in ends else 2)
            assert sum(weights(x, ends)) == 1

    def test_endpoint_average_matches_batch_mode(self):
        rng = np.random.default_rng(53)
        tree = TruncatedTree(2, 4)
        u = random_function(tree, rng)
        check = is_binary_convex(u, tol=1e-9, mode="subtrees")
        # evaluating per subtree and via the vectorized matrix must agree
        for x in [(), (1,)]:
            subs = oracles.subtrees(2, x, tree.depth - len(x))
            worst = min(sum(float(w) * u.values[oracles.flat_index(2, y)]
                            for w, y in zip(weights(x, ends), ends))
                        for ends in subs)
            flat = oracles.flat_index(2, x)
            assert (u.values[flat] > worst + 1e-9) == (flat in check.violations)


def pair_shapes(m, v, rel):
    """The binary enumeration written with successor pairs i < j, as the
    oracle had it before k-ary subtrees."""
    shapes = [(v,)]
    if rel:
        for i, j in combinations(range(m), 2):
            right = pair_shapes(m, v + (j,), rel - 1)
            shapes += [left + r for left in pair_shapes(m, v + (i,), rel - 1) for r in right]
    return shapes


class TestKarySubtrees:
    """The k-ary generalization of the oracle's subtrees, which criterion 11
    uses for the kconvex envelope."""

    @pytest.mark.parametrize("m,depth", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_k2_reproduces_binary_rows(self, m, depth):
        tree = TruncatedTree(m, depth)
        flat = {v: i for i, v in enumerate(oracles.digit_tuples(m, depth))}
        roots, endpoints, weights_ = oracles.subtree_constraints(tree, k=2)
        r = 0
        for x in oracles.digit_tuples(m, depth - 1):
            want = pair_shapes(m, x, depth - len(x))[1:]
            assert oracles.subtrees(m, x, depth - len(x)) == want
            for ends in want:
                n = len(ends)
                assert roots[r] == flat[x]
                assert endpoints[r, :n].tolist() == [flat[y] for y in ends]
                assert weights_[r, :n].tolist() == [1 / 2 ** (len(y) - len(x)) for y in ends]
                assert not endpoints[r, n:].any() and not weights_[r, n:].any()
                r += 1
        assert r == len(roots)

    @pytest.mark.parametrize("m,k,rel", [(3, 3, 1), (3, 3, 2), (4, 3, 2), (5, 4, 2), (4, 4, 2),
                                         (5, 2, 2)])
    def test_count_and_structure(self, m, k, rel):
        def ways(r):
            return 1 if r == 0 else 1 + len(list(combinations(range(m), k))) * ways(r - 1) ** k

        x = (1,)
        subs = oracles.subtrees(m, x, rel, k)
        assert len(subs) == len(set(subs)) == ways(rel) - 1 == oracles.subtree_count(m, rel, k)
        for ends in subs:
            # the members are the endpoints and their ancestors up to x; x has
            # k member successors, every endpoint none, every other member k
            members = {y[:j] for y in ends for j in range(len(x), len(y) + 1)}
            for v in members:
                kids = [v + (d,) for d in range(m) if v + (d,) in members]
                assert len(kids) == (0 if v in ends else k)
            assert sum(Fraction(1, k ** (len(y) - len(x))) for y in ends) == 1

    def test_row_counts_and_budget(self, monkeypatch):
        # the criterion-11 sizes, in closed form and built
        for m, depth, k, rows in [(3, 3, 3, 762), (4, 2, 3, 516), (5, 2, 4, 6505)]:
            roots, _, _ = oracles.subtree_constraints(TruncatedTree(m, depth), k=k)
            assert len(roots) == rows
        # past the budget the count refuses before anything is built:
        # m=4 k=3 L=3 has 503,008,068 rows, m=2 k=2 L=22 a number of about
        # 3 million bits
        monkeypatch.setattr(oracles, "subtrees", None)
        for m, depth, k in [(4, 3, 3), (5, 3, 5), (2, 22, 2)]:
            with pytest.raises(ValueError, match=f"more than {oracles.ROW_BUDGET} subtree rows"):
                oracles.subtree_constraints(TruncatedTree(m, depth), k=k)
        assert oracles.subtree_count(4, 3, 3) == oracles.ROW_BUDGET + 1


# sizes at m in {2, 3, 4, 5} as far as the Fraction route runs in seconds,
# and two wide trees
SEGMENT_CASES = [(2, d) for d in range(1, 7)] + [(3, d) for d in range(1, 5)] + [
    (4, d) for d in range(1, 4)] + [(5, d) for d in range(1, 4)] + [(8, 2), (22, 1)]
# (m, depth, rel): the verdicts are compared on the vertices at most rel
# levels above the leaves (None: every vertex); the oracle builds one tuple
# per subtree, so at m=2 depth 5 and m=4 depth 3 it leaves out the rows of
# the top levels
SUBTREE_CASES = [(2, d, None) for d in range(1, 5)] + [(3, d, None) for d in range(1, 4)] + [
    (4, 1, None), (4, 2, None), (5, 1, None), (5, 2, None), (6, 2, None), (9, 1, None),
    (2, 5, 4), (4, 3, 2)]

oracle_segments = lru_cache(maxsize=None)(oracles.segment_constraints)
oracle_subtrees = lru_cache(maxsize=None)(oracles.subtree_constraints)

# Where tol is below the data's rounding (tol 0 on data whose inequalities
# hold with equality, or data times 2^40), the float routes may each flag
# rounding: a vertex flagged by one route alone must then have a brute-force
# slack within ROUNDING * eps * max|u| of tol (at most 0.5 seen).
ROUNDING = 4
TOLS = (0.0, 1e-12, 1e-9)
SCALES = (1.0, 2.0**40)


def assert_bitwise(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        if w.dtype.kind == "f":
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))
        else:
            np.testing.assert_array_equal(g, w)


def sample_functions(tree, seed):
    """(name, values): uniform data, tied integers, a convex envelope, the
    envelope with one interior vertex raised, a binary envelope and a convex
    obstacle envelope."""
    rng = np.random.default_rng([seed, tree.m, tree.depth])
    n, leaves = tree.vertex_count, tree.leaf_count
    envelope = solve_dirichlet(tree, rng.uniform(0, 1, leaves),
                               SolveConfig(variant="convex")).solution.values
    raised = envelope.copy()
    raised[rng.integers(0, tree.interior_count)] += 2.0
    binary = solve_dirichlet(tree, rng.uniform(0, 1, leaves), SolveConfig(variant="binary"))
    obstacle = solve_obstacle(TreeFunction.from_values(tree, rng.uniform(0, 1, n)),
                              SolveConfig(variant="convex"))
    yield "uniform", rng.uniform(-1, 1, n)
    yield "tied", rng.integers(-2, 3, n).astype(float)
    yield "envelope", envelope
    yield "raised", raised
    yield "binary envelope", binary.solution.values
    yield "obstacle envelope", obstacle.envelope.values


def largest_gap(tree, targets, gaps):
    """Per vertex, the largest of `gaps` whose target it is (-inf if none)."""
    out = np.full(tree.vertex_count, -np.inf)
    np.maximum.at(out, targets, gaps)
    return out


def assert_rounding_only(got, want, slack, tol, u):
    """Each vertex flagged by one route alone is within rounding of tol."""
    bound = ROUNDING * np.finfo(float).eps * np.abs(u.values).max()
    for z in set(got) ^ set(want):
        assert abs(slack[z] - tol) <= bound, (z, slack[z], tol)


def segment_runs(tree, exact):
    """((name, scale, tol), u, check, oracle violations, oracle slack) of
    the segment check on the sample functions: at scale 1 and tol > 0 if
    exact, at the other scales and tols if not."""
    iz, ix, iy, wx, wy = arrays = oracle_segments(tree)
    for name, values in sample_functions(tree, 67):
        for scale in SCALES:
            u = TreeFunction.from_values(tree, scale * values)
            v = u.values
            slack = largest_gap(tree, iz, v[iz] - (wx * v[ix] + wy * v[iy]))
            for tol in TOLS:
                if (scale == 1.0 and tol > 0) is not exact:
                    continue
                check = is_convex_segment(u, tol)
                _, _, flat = oracles.segment_verdict(u, arrays, tol)
                assert (check.checked, check.skipped) == (tree.interior_count, None)
                assert check.ok is (not check.violations)
                yield (name, scale, tol), u, check, flat, slack


def subtree_runs(tree, rel, exact):
    """((name, scale, tol), u, check, (oracle ok, check's violations at most
    rel levels above the leaves, oracle's), oracle slack) of the subtree
    check on the sample functions: off the binary envelope, or on it at
    scale 1 and tol > 0, if exact; on it elsewhere if not."""
    from_level = 0 if rel is None else tree.depth - rel
    first = tree.level_offset(from_level)
    roots, endpoints, weights = arrays = oracle_subtrees(tree, from_level)
    for name, values in sample_functions(tree, 71):
        for scale in SCALES:
            u = TreeFunction.from_values(tree, scale * values)
            slack = largest_gap(tree, roots, u.values[roots]
                                - (weights * u.values[endpoints]).sum(axis=1))
            for tol in TOLS:
                if (name != "binary envelope" or (scale == 1.0 and tol > 0)) is not exact:
                    continue
                check = is_binary_convex(u, tol, mode="subtrees")
                ok, _, flat = oracles.subtree_verdict(u, arrays, tol)
                assert (check.checked, check.skipped) == (tree.interior_count, None)
                # a vertex's verdict depends on its own rows only
                got = [f for f in check.violations if f >= first]
                yield (name, scale, tol), u, check, (ok, got, flat), slack


class TestBruteForceArrays:
    """The one-pass segment and subtree checks against the digit-tuple brute
    force of tests/oracles.py."""

    def test_oracle_imports_only_data_types(self):
        # the oracle may not call the library it checks, so it imports neither
        # `treeconvex._kernels`, `treeconvex.convexity` nor `treeconvex.solver`
        # (its pointwise operators, level operator and exact solves are its
        # own): from the package it takes the tree and function types, and
        # `Vertex` for `Vertex.parse`
        source = ast.parse(Path(oracles.__file__).read_text())
        imported = set()
        for node in ast.walk(source):
            if isinstance(node, ast.Import):
                imported |= {a.name for a in node.names if a.name.startswith("treeconvex")}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("treeconvex"):
                imported |= {a.name for a in node.names}
        assert imported == {"TruncatedTree", "TreeFunction", "Vertex"}

    @pytest.mark.parametrize("m,depth", SEGMENT_CASES)
    def test_segment_verdicts_match_fraction_route(self, m, depth):
        """At scale 1 and tol 1e-12 and 1e-9 the segment violations are the
        oracle's, in flat order."""
        tree = TruncatedTree(m, depth)
        for case, _, check, flat, _ in segment_runs(tree, exact=True):
            assert check.violations == sorted(flat), case

    @pytest.mark.parametrize("m,depth", SEGMENT_CASES)
    def test_segment_arrays_match_fraction_route(self, m, depth):
        """Below the data's rounding (tol 0, or data times 2^40) a vertex
        flagged by one route alone has a slack in the oracle's Fraction-route
        arrays within rounding of tol."""
        tree = TruncatedTree(m, depth)
        for (_, _, tol), u, check, flat, slack in segment_runs(tree, exact=False):
            assert_rounding_only(check.violations, flat, slack, tol, u)

    @pytest.mark.parametrize("m,depth,rel", SUBTREE_CASES)
    def test_subtree_verdicts_match_enumeration(self, m, depth, rel):
        """The subtree violations are the oracle's, at every tol and on data
        times 2^40, except on the binary envelope below its rounding."""
        tree = TruncatedTree(m, depth)
        for case, _, check, (ok, got, flat), _ in subtree_runs(tree, rel, exact=True):
            assert got == flat, case
            if rel is None:
                assert check.ok is ok

    @pytest.mark.parametrize("m,depth,rel", SUBTREE_CASES)
    def test_subtree_averages_match_enumeration(self, m, depth, rel):
        """Where a binary envelope's subtree inequalities hold with equality
        and tol is below the data's rounding, the oracle's enumerated
        averages round differently from the one pass: a vertex flagged by
        one route alone has a slack within rounding of tol."""
        tree = TruncatedTree(m, depth)
        for (_, _, tol), u, _, (_, got, flat), slack in subtree_runs(tree, rel, exact=False):
            assert_rounding_only(got, flat, slack, tol, u)
