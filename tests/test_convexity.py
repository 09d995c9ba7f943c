"""Operator, predicate, eigenvalue, and reference-function tests."""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from treeconvex import (
    SolveConfig,
    TreeFunction,
    TruncatedTree,
    Vertex,
    arborescence_laplacian,
    count_binary_subtrees,
    eigenvalues_binary,
    eigenvalues_convex,
    eigenvalues_k,
    enumerate_binary_subtrees,
    is_binary_convex,
    is_convex_operator,
    is_convex_segment,
    laplacian_residual,
    op_binary,
    op_convex,
    op_kconvex,
    reference_binary_indicator,
    reference_convex_indicator,
    residual,
    solve_dirichlet,
)
from treeconvex._kernels import level_operator
from treeconvex.convexity import _segment_constraints, _subtree_constraint_arrays

import oracles


def function_with(tree, assignments, fill=0.0):
    values = np.full(tree.vertex_count, fill)
    for text, val in assignments.items():
        values[tree.flat_index(Vertex.parse(tree.m, text))] = val
    return TreeFunction.from_values(tree, values)


def random_function(tree, rng, scale=1.0):
    return TreeFunction.from_values(tree, scale * rng.standard_normal(tree.vertex_count))


class TestOperators:
    def test_op_convex_example(self):
        tree = TruncatedTree(3, 2)
        u = function_with(tree, {"root": 0.0, "1.0": 3.0, "1.1": 1.0, "1.2": 2.0})
        assert op_convex(u, Vertex(3, (1,))) == pytest.approx(0.75)

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
            for x in tree.interior_vertices():
                row = {run: ops[run][x.level][x.index] for run in runs}
                assert row["convex", None] == op_convex(u, x), x
                assert row["binary", None] == op_binary(u, x), x
                for k in range(2, m + 1):
                    assert row["kconvex", k] == op_kconvex(u, x, k), (x, k)
                ux = u.value_at(x)
                arb = ux + arborescence_laplacian(u, x)
                full = arb if x.is_root else ux + laplacian_residual(u, x)
                assert abs(row["laplacian_full", None] - full) <= 1e-15, x
                assert abs(row["laplacian_arborescence", None] - arb) <= 1e-15, x

    def test_constant_is_fixed(self):
        tree = TruncatedTree(3, 2)
        u = TreeFunction.constant(tree, 4.25)
        for x in tree.interior_vertices():
            assert op_convex(u, x) == 4.25
            assert op_binary(u, x) == 4.25
            assert op_kconvex(u, x, 3) == 4.25

    def test_op_convex_at_reference_vertex(self):
        # at x0 both terms evaluate to known closed-form values and the
        # predecessor branch wins: (0 + 3 * 8/9) / 4 = 2/3
        tree = TruncatedTree(3, 4)
        x0 = Vertex(3, (1,))
        u = reference_convex_indicator(tree, x0)
        assert op_convex(u, x0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert u[x0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_op_binary_examples(self):
        tree = TruncatedTree(3, 1)
        u = function_with(tree, {"0": 3.0, "1": 1.0, "2": 2.0})
        assert op_binary(u, Vertex(3, ())) == 1.5

        tree2 = TruncatedTree(2, 1)
        u2 = function_with(tree2, {"0": -1.0, "1": 4.0})
        assert op_binary(u2, Vertex(2, ())) == 1.5  # unique pair

    def test_op_kconvex_examples(self):
        tree = TruncatedTree(4, 1)
        u = function_with(tree, {"0": 4.0, "1": 1.0, "2": 2.0, "3": 9.0})
        root = Vertex(4, ())
        assert op_kconvex(u, root, 3) == pytest.approx(7.0 / 3.0)
        assert op_kconvex(u, root, 2) == op_binary(u, root)
        assert op_kconvex(u, root, 4) == pytest.approx(4.0)  # plain average

    def test_kconvex_matches_binary_randomly(self):
        rng = np.random.default_rng(11)
        tree = TruncatedTree(4, 2)
        for _ in range(20):
            u = random_function(tree, rng)
            for x in tree.interior_vertices():
                assert op_kconvex(u, x, 2) == op_binary(u, x)
                assert op_kconvex(u, x, 4) == pytest.approx(
                    float(np.mean([u[c] for c in x.children()])), abs=1e-14)

    def test_leaf_rejected(self):
        tree = TruncatedTree(2, 2)
        u = TreeFunction.zeros(tree)
        leaf = Vertex(2, (0, 1))
        for fn in (op_convex, op_binary):
            with pytest.raises(ValueError, match="leaf"):
                fn(u, leaf)
        with pytest.raises(ValueError, match="leaf"):
            op_kconvex(u, leaf, 2)

    def test_k_out_of_range(self):
        tree = TruncatedTree(3, 1)
        u = TreeFunction.zeros(tree)
        for k in (1, 4):
            with pytest.raises(ValueError, match="k must be"):
                op_kconvex(u, Vertex(3, ()), k)


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
        u = TreeFunction.constant(tree, 2.5)
        x = Vertex(3, (1,))
        assert eigenvalues_convex(u, x) == pytest.approx([0.0] * 6, abs=1e-15)
        assert eigenvalues_binary(u, x) == pytest.approx([0.0] * 3, abs=1e-15)
        assert eigenvalues_k(u, x, 3) == pytest.approx([0.0], abs=1e-15)

    def test_root_rejected_for_predecessor_family(self):
        tree = TruncatedTree(3, 1)
        u = TreeFunction.zeros(tree)
        with pytest.raises(ValueError, match="root"):
            eigenvalues_convex(u, Vertex(3, ()))
        with pytest.raises(ValueError, match="root"):
            laplacian_residual(u, Vertex(3, ()))

    def test_min_eigenvalue_is_operator_gap(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 4):
            tree = TruncatedTree(m, 3)
            for _ in range(10):
                u = random_function(tree, rng)
                for x in tree.interior_vertices():
                    if x.is_root:
                        continue
                    gap = op_convex(u, x) - u[x]
                    assert min(eigenvalues_convex(u, x)) == pytest.approx(gap, abs=1e-12)

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
                    total = sum(eigenvalues_convex(u, x))
                    assert total == pytest.approx(
                        m * (m + 1) / 2 * laplacian_residual(u, x), abs=1e-12)
                    assert sum(eigenvalues_binary(u, x)) == pytest.approx(
                        m * (m - 1) / 2 * arborescence_laplacian(u, x), abs=1e-12)

    def test_k_subset_sum_is_scaled_arborescence(self):
        from math import comb

        rng = np.random.default_rng(29)
        for m, k in [(4, 2), (4, 3), (5, 3), (5, 4)]:
            tree = TruncatedTree(m, 2)
            u = random_function(tree, rng)
            for x in tree.interior_vertices():
                assert sum(eigenvalues_k(u, x, k)) == pytest.approx(
                    comb(m, k) * arborescence_laplacian(u, x), abs=1e-12)


class TestLaplacians:
    def test_constant_zero_and_coefficients_sum(self):
        tree = TruncatedTree(4, 2)
        u = TreeFunction.constant(tree, -1.75)
        x = Vertex(4, (2,))
        assert laplacian_residual(u, x) == pytest.approx(0.0, abs=1e-15)
        assert arborescence_laplacian(u, x) == pytest.approx(0.0, abs=1e-15)

    def test_full_laplacian_hand_example(self):
        tree = TruncatedTree(2, 2)
        u = function_with(tree, {"root": 9.0, "0": 2.0, "0.0": 0.0, "0.1": 0.0})
        assert laplacian_residual(u, Vertex(2, (0,))) == pytest.approx(0.0, abs=1e-15)

    def test_arborescence_example(self):
        tree = TruncatedTree(3, 1)
        u = function_with(tree, {"root": 1.0, "0": 3.0, "1": 1.0, "2": 2.0})
        assert arborescence_laplacian(u, Vertex(3, ())) == pytest.approx(1.0)

    def test_residual_scaled_eigen_sum(self):
        rng = np.random.default_rng(31)
        for m in (2, 3):
            tree = TruncatedTree(m, 3)
            u = random_function(tree, rng)
            for x in tree.interior_vertices():
                if x.is_root:
                    continue
                assert laplacian_residual(u, x) == pytest.approx(
                    2 / (m * (m + 1)) * sum(eigenvalues_convex(u, x)), abs=1e-12)
                assert arborescence_laplacian(u, x) == pytest.approx(
                    2 / (m * (m - 1)) * sum(eigenvalues_binary(u, x)), abs=1e-12)


class TestReferences:
    def test_convex_indicator_values(self):
        tree = TruncatedTree(3, 4)
        u = reference_convex_indicator(tree, Vertex(3, (1,)))
        assert u[Vertex(3, (1,))] == pytest.approx(2 / 3, abs=1e-15)
        assert u[Vertex(3, (1, 0))] == pytest.approx(8 / 9, abs=1e-15)
        assert u[Vertex(3, (0,))] == 0.0

    def test_convex_indicator_closed_form_and_limit(self):
        # the level sums telescope: value at relative depth j is 1 - m^-(j+1)
        for m in (2, 3, 5):
            tree = TruncatedTree(m, 6)
            x0 = Vertex(m, (1,))
            u = reference_convex_indicator(tree, x0)
            v = x0
            branch_values = []
            for j in range(tree.depth - x0.level + 1):
                assert u[v] == float(1 - Fraction(1, m ** (j + 1)))
                branch_values.append(u[v])
                v = v.child(0)
            # strictly increasing toward 1 down any branch inside the subtree
            assert all(a < b < 1.0 for a, b in zip(branch_values, branch_values[1:]))

    def test_indicator_requires_non_root(self):
        tree = TruncatedTree(3, 2)
        with pytest.raises(ValueError, match="non-root"):
            reference_convex_indicator(tree, Vertex(3, ()))
        with pytest.raises(ValueError, match="non-root"):
            reference_binary_indicator(tree, Vertex(3, ()))

    @pytest.mark.parametrize("m", [3, 5])
    def test_reference_equalities_for_wide_trees(self, m):
        tree = TruncatedTree(m, 4)
        for x0 in [Vertex(m, (1,)), Vertex(m, (0, 1)), Vertex(m, (m - 1, 0, 1))]:
            assert residual(tree, reference_convex_indicator(tree, x0), "convex") <= 1e-12
            assert residual(tree, reference_binary_indicator(tree, x0), "binary") <= 1e-12

    def test_reference_equality_gaps_at_m2(self):
        # for m = 2 the equation holds with equality everywhere except:
        # the convex indicator at the root when |x0| = 1 (pair average 1/4),
        # and the binary indicator at the parent of x0 (pair average 1/2);
        # the inequality (convexity itself) still holds there
        tree = TruncatedTree(2, 5)
        u = reference_convex_indicator(tree, Vertex(2, (1,)))
        assert op_convex(u, Vertex(2, ())) == 0.25
        assert residual(tree, u, "convex") == 0.25
        assert is_convex_operator(u).ok

        u2 = reference_convex_indicator(tree, Vertex(2, (1, 0)))
        assert residual(tree, u2, "convex") <= 1e-15

        b = reference_binary_indicator(tree, Vertex(2, (1, 0)))
        assert op_binary(b, Vertex(2, (1,))) == 0.5
        assert residual(tree, b, "binary") == 0.5
        assert is_binary_convex(b).ok

    def test_binary_indicator_values_and_convex_violation(self):
        tree = TruncatedTree(3, 3)
        x0 = Vertex(3, (1,))
        u = reference_binary_indicator(tree, x0)
        assert u[x0] == 1.0
        assert u[Vertex(3, (0,))] == 0.0
        assert is_binary_convex(u, mode="operator").ok
        assert is_binary_convex(u, mode="subtrees").ok
        # not convex: at x0 the predecessor branch gives m/(m+1) < 1
        assert op_convex(u, x0) == pytest.approx(3 / 4)
        check = is_convex_operator(u)
        assert not check.ok
        assert x0 in check.violations


class TestPredicates:
    def test_constant_passes_everything(self):
        tree = TruncatedTree(2, 3)
        u = TreeFunction.constant(tree, 1.0)
        assert is_convex_operator(u).ok
        assert is_convex_segment(u).ok
        assert is_binary_convex(u, mode="operator").ok
        assert is_binary_convex(u, mode="subtrees").ok

    def test_tol_must_be_finite_and_non_negative(self):
        u = TreeFunction.constant(TruncatedTree(2, 2), 1.0)
        predicates = [is_convex_operator, is_convex_segment,
                      lambda u, tol: is_binary_convex(u, tol, mode="operator"),
                      lambda u, tol: is_binary_convex(u, tol, mode="subtrees")]
        for predicate in predicates:
            for tol in (np.nan, np.inf, -1.0):
                with pytest.raises(ValueError, match="finite and non-negative"):
                    predicate(u, tol)
            assert predicate(u, 0.0).ok

    def test_spike_at_root_fails_both(self):
        tree = TruncatedTree(2, 2)
        u = function_with(tree, {"root": 5.0})
        check = is_convex_operator(u)
        assert not check.ok and check.violations == [Vertex(2, ())]
        assert not is_convex_segment(u).ok

    def test_operator_segment_agreement_smoke(self):
        rng = np.random.default_rng(37)
        for m, depth in [(2, 3), (3, 2)]:
            tree = TruncatedTree(m, depth)
            for _ in range(20):
                u = random_function(tree, rng)
                assert is_convex_operator(u).ok == is_convex_segment(u).ok

    def test_binary_mode_agreement_smoke(self):
        rng = np.random.default_rng(41)
        for m, depth in [(2, 3), (3, 2)]:
            tree = TruncatedTree(m, depth)
            for _ in range(20):
                u = random_function(tree, rng)
                assert (is_binary_convex(u, mode="operator").ok
                        == is_binary_convex(u, mode="subtrees").ok)

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

    def test_segment_budget_refusal(self):
        for depth in (9, 14):  # 1023 and 32767 vertices
            tree = TruncatedTree(2, depth)
            u = TreeFunction.constant(tree, 0.0)
            check = is_convex_segment(u)
            assert check.ok is None
            assert "budget" in check.skipped

    def test_subtree_mode_rel_depth_edges(self):
        # at depth 1 the subtrees are exactly the operator pairs at the root
        rng = np.random.default_rng(59)
        tree = TruncatedTree(3, 1)
        for raise_root in (0.0, 5.0):
            u = random_function(tree, rng)
            u.values[0] += raise_root
            subtrees = is_binary_convex(u, mode="subtrees")
            operator = is_binary_convex(u, mode="operator")
            assert subtrees.checked == 3
            assert (subtrees.ok, subtrees._flat) == (operator.ok, operator._flat)

    def test_segment_budget_edge_runs(self):
        tree = TruncatedTree(2, 8)  # 511 vertices, the largest binary tree inside the budget
        u = solve_dirichlet(tree, np.random.default_rng(61).uniform(0, 1, tree.leaf_count),
                            SolveConfig(variant="convex")).solution
        check = is_convex_segment(u)
        # one row per path vertex strictly inside a segment: the sum of the
        # edge distances over all pairs (each edge joins s and n - s vertices)
        # less one per pair
        n = tree.vertex_count
        wiener = sum(2**j * (2 ** (9 - j) - 1) * (n - 2 ** (9 - j) + 1) for j in range(1, 9))
        assert check.skipped is None and check.ok
        assert check.checked == wiener - n * (n - 1) // 2 == 1_448_703

    def test_subtree_budget_refusal(self):
        tree = TruncatedTree(3, 4)  # full-depth enumeration at the root explodes
        u = TreeFunction.constant(tree, 0.0)
        check = is_binary_convex(u, mode="subtrees")
        assert check.ok is None
        assert check.skipped == "budget: 155714970 binary subtrees exceed 1000000"
        total = sum(3**level * count_binary_subtrees(3, 4 - level) for level in range(4))
        assert str(total) in check.skipped
        # from m=2 depth 15 on the count has more digits than str() converts
        deep = is_binary_convex(TreeFunction.constant(TruncatedTree(2, 15), 0.0), mode="subtrees")
        assert deep.ok is None
        assert deep.skipped == "budget: at least 10^4300 binary subtrees exceed 1000000"
        # the count stops past the bound, so a deep tree is skipped at once
        # (an exact count squares integers of about 3 million bits here)
        start = time.perf_counter()
        deeper = is_binary_convex(TreeFunction.zeros(TruncatedTree(2, 22)), mode="subtrees")
        assert time.perf_counter() - start < 0.1
        assert deeper.skipped == deep.skipped


class TestBinarySubtrees:
    def test_depth_one_is_sibling_pairs(self):
        tree = TruncatedTree(3, 2)
        subs = enumerate_binary_subtrees(tree, Vertex(3, (0,)), 1)
        assert len(subs) == 3
        for sub in subs:
            assert len(sub.endpoints) == 2
            assert sum(sub.endpoint_weights()) == 1

    def test_count_matches_independent_recursion(self):
        def node_choices(m, r):
            if r == 0:
                return 1
            return 1 + (m * (m - 1) // 2) * node_choices(m, r - 1) ** 2

        for m, rel in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
            expected = (m * (m - 1) // 2) * node_choices(m, rel - 1) ** 2
            assert count_binary_subtrees(m, rel) == expected
            tree = TruncatedTree(m, rel)
            subs = enumerate_binary_subtrees(tree, Vertex(m, ()), rel)
            assert len(subs) == expected

    def test_structure_invariants_and_weights(self):
        tree = TruncatedTree(3, 3)
        x = Vertex(3, (0,))
        for sub in enumerate_binary_subtrees(tree, x, 2):
            members = set(sub.members)
            assert sub.root == x and x in members
            for v in members:
                in_set = [c for c in v.children() if c in members]
                if v == x:
                    assert len(in_set) == 2
                else:
                    assert v.level > x.level
                    assert len(in_set) in (0, 2)
                    assert (len(in_set) == 0) == (v in sub.endpoints)
            assert sum(sub.endpoint_weights()) == 1

    def test_out_of_tree_and_budget_errors(self):
        tree = TruncatedTree(3, 2)
        with pytest.raises(ValueError, match="exceeds the depth"):
            enumerate_binary_subtrees(tree, Vertex(3, (0,)), 3)
        deep = TruncatedTree(3, 4)
        with pytest.raises(ValueError, match="budget"):
            enumerate_binary_subtrees(deep, Vertex(3, ()), 4)

    def test_endpoint_average_matches_batch_mode(self):
        rng = np.random.default_rng(53)
        tree = TruncatedTree(2, 4)
        u = random_function(tree, rng)
        # evaluating per object and via the vectorized matrix must agree
        for x in [Vertex(2, ()), Vertex(2, (1,))]:
            rel = tree.depth - x.level
            subs = enumerate_binary_subtrees(tree, x, rel)
            worst = min(sub.endpoint_average(u) for sub in subs)
            check = is_binary_convex(u, tol=1e-9, mode="subtrees")
            violated_here = u[x] > worst + 1e-9
            assert violated_here == (x in check.violations)


# every size the budgets admit at m in {2, 3, 4, 5}, as far as the Fraction
# route runs in seconds
SEGMENT_CASES = [(2, d) for d in range(1, 7)] + [(3, d) for d in range(1, 5)] + [
    (4, d) for d in range(1, 4)] + [(5, d) for d in range(1, 4)]
# (m, depth, rel): the arrays are checked on the rows whose root lies at most
# rel levels above the leaves (None: every row); enumeration builds one object
# per subtree, so the largest sizes the budget admits (m=2 depth 5, m=4
# depth 3) leave out the rows of their top levels
SUBTREE_CASES = [(2, d, None) for d in range(1, 5)] + [(3, d, None) for d in range(1, 4)] + [
    (4, 1, None), (4, 2, None), (5, 1, None), (5, 2, None), (2, 5, 4), (4, 3, 2)]

oracle_segments = lru_cache(maxsize=None)(oracles.segment_constraints)
oracle_subtrees = lru_cache(maxsize=None)(oracles.subtree_constraints)


def subtree_arrays(tree, from_level=0):
    """The cached builder's rows rooted at `from_level` or below (rows run
    level by level), cut to their widest row, with the weight exponents
    applied."""
    roots, endpoints, exponents = _subtree_constraint_arrays(tree)
    start = np.searchsorted(roots, tree.level_offset(from_level))
    width = 2 ** (tree.depth - from_level)
    assert (exponents[start:, width:] < 0).all()
    exponents = exponents[start:, :width]
    weights = np.where(exponents >= 0, np.ldexp(1.0, -exponents.astype(np.int64)), 0.0)
    return roots[start:], endpoints[start:, :width], weights


def assert_bitwise(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        if w.dtype.kind == "f":
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))
        else:
            np.testing.assert_array_equal(g, w)


def sample_functions(tree, seed):
    """Seeded random data, a convex envelope, and the envelope with one
    interior vertex raised."""
    rng = np.random.default_rng([seed, tree.m, tree.depth])
    envelope = solve_dirichlet(tree, rng.uniform(0, 1, tree.leaf_count),
                               SolveConfig(variant="convex")).solution.values
    raised = envelope.copy()
    raised[rng.integers(0, tree.interior_count)] += 2.0
    for values in (rng.standard_normal(tree.vertex_count), envelope, raised):
        yield TreeFunction(tree, values)


class TestBruteForceArrays:
    """The vectorized constraint arrays against the Fraction and Vertex routes
    in tests/oracles.py: bitwise, row order included."""

    @pytest.mark.parametrize("m,depth", SEGMENT_CASES)
    def test_segment_arrays_match_fraction_route(self, m, depth):
        tree = TruncatedTree(m, depth)
        got = _segment_constraints(tree)
        assert [a.dtype for a in got] == [np.int64] * 3 + [np.float64] * 2
        assert_bitwise(got, oracle_segments(tree))

    @pytest.mark.parametrize("m,depth,rel", SUBTREE_CASES)
    def test_subtree_arrays_match_enumeration(self, m, depth, rel):
        tree = TruncatedTree(m, depth)
        roots, endpoints, exponents = _subtree_constraint_arrays(tree)
        assert (roots.dtype, endpoints.dtype, exponents.dtype) == (np.int64, np.int32, np.int8)
        # padding sits after every row's endpoints, with endpoint 0
        pad = exponents < 0
        assert not (pad[:, :-1] & ~pad[:, 1:]).any() and not endpoints[pad].any()
        from_level = 0 if rel is None else depth - rel
        assert_bitwise(subtree_arrays(tree, from_level), oracle_subtrees(tree, from_level))

    @pytest.mark.parametrize("m,depth", [(2, 6), (3, 4), (4, 3), (5, 2)])
    def test_segment_verdicts_match_fraction_route(self, m, depth):
        tree = TruncatedTree(m, depth)
        for u in sample_functions(tree, 67):
            check = is_convex_segment(u)
            assert (check.ok, check.checked, check._flat) == oracles.segment_verdict(
                u, oracle_segments(tree), 1e-9)

    @pytest.mark.parametrize("m,depth,rel", [(2, 4, None), (3, 3, None), (5, 2, None),
                                             (4, 3, 2)])
    def test_subtree_verdicts_match_enumeration(self, m, depth, rel):
        tree = TruncatedTree(m, depth)
        from_level = 0 if rel is None else depth - rel
        first = tree.level_offset(from_level)
        for u in sample_functions(tree, 71):
            check = is_binary_convex(u, mode="subtrees")
            ok, checked, flat = oracles.subtree_verdict(
                u, oracle_subtrees(tree, from_level), 1e-9)
            # a vertex's verdict depends on its own rows only
            assert [f for f in check._flat if f >= first] == flat
            if rel is None:
                assert (check.ok, check.checked) == (ok, checked)

    def test_chunked_averages_cover_every_row(self, monkeypatch):
        # chunks of a few rows give the same verdict as one chunk
        tree = TruncatedTree(3, 3)
        monkeypatch.setattr("treeconvex.convexity._CHUNK_ENTRIES", 3 * 8)
        for u in sample_functions(tree, 73):
            check = is_binary_convex(u, mode="subtrees")
            assert (check.ok, check.checked, check._flat) == oracles.subtree_verdict(
                u, oracle_subtrees(tree), 1e-9)
