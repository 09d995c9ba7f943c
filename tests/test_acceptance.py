"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; without
-s the lines still appear for failing criteria.  Criteria are property-based
at desk scale; tolerances are pinned in the assertions.
"""

from __future__ import annotations

import time
from itertools import product

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
    sample_leaves,
    solve_dirichlet,
    solve_obstacle,
)
from treeconvex._kernels import level_operator
from treeconvex.boundary import parse_datum
from treeconvex.cli import main as cli_main

import oracles
from engines import ENGINES, operator_values, solve


def report(number: int, slug: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number:2d} {slug}: {status}"
    if detail:
        line += f" - {detail}"
    print(line)


def random_function(tree: TruncatedTree, rng) -> TreeFunction:
    return TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))


def level_profile(tree: TruncatedTree, per_level) -> TreeFunction:
    values = np.empty(tree.vertex_count)
    for level in range(tree.depth + 1):
        values[tree.level_slice(level)] = per_level(level)
    return TreeFunction.from_values(tree, values)


def psi_function(tree: TruncatedTree, sign: float = 1.0) -> TreeFunction:
    values = np.empty(tree.vertex_count)
    for level in range(tree.depth + 1):
        n = tree.level_size(level)
        values[tree.level_slice(level)] = sign * np.arange(n) / float(n)
    return TreeFunction.from_values(tree, values)


def test_criterion_1_reference_fixed_points():
    """Closed-form references against their equations at every interior
    vertex, m in {2, 3, 5}, depth 6, 1 <= |x0| <= 3, tol 1e-12.

    m in {3, 5}: equality, residual <= 1e-12.  m = 2: the inequality
    u <= op everywhere, and equality everywhere except at one vertex the
    closed form predicts, where the gap is asserted exactly: the root for
    the convex reference when |x0| = 1 (defect (m-1)/(2m) = 1/4) and the
    parent of x0 for the binary reference (defect 1/2).  That makes 2 + 14
    = 16 gaps, so a gap that vanishes, moves or grows fails the criterion.
    """
    start = time.monotonic()
    failures = []
    gaps = {"convex": 0, "binary": 0}
    expected_gaps = {"convex": 2, "binary": 14}
    for m in (2, 3, 5):
        tree = TruncatedTree(m, 6)
        for level in (1, 2, 3):
            for index in range(m**level):
                x0 = Vertex.from_level_index(m, level, index)
                u = oracles.reference_convex_indicator(tree, x0)
                b = oracles.reference_binary_indicator(tree, x0)
                # The equations are positively homogeneous, so only the
                # closed form's value at x0 pins the scale.
                ux, bx = float(u.values[tree.flat_index(x0)]), float(b.values[tree.flat_index(x0)])
                if ux != (m - 1) / m or bx != 1.0:
                    failures.append((m, str(x0), "both", "value at x0", (ux, bx)))
                # At m = 2 the parent of x0 has one zero-valued successor
                # beside x0, so its pair term is u(x0)/2 > 0; for the convex
                # reference the predecessor branch still gives 0 below the root.
                cases = [("convex", u, Vertex(m, ()) if level == 1 else None, (m - 1) / (2 * m)),
                         ("binary", b, x0.parent, 0.5)]
                for variant, f, gap_at, gap in cases:
                    if m > 2:
                        r = residual(f, variant)
                        if r > 1e-12:
                            failures.append((m, str(x0), variant, "residual", r))
                        continue
                    defect = operator_values(tree, f.values, variant) - f.values
                    if defect.min() < -1e-12:
                        failures.append((m, str(x0), variant, "u > op", -defect.min()))
                    if gap_at is not None:
                        # the gap itself from the library's level operator
                        flat = tree.flat_index(gap_at)
                        op = level_operator(tree, f.values, gap_at.level, variant)
                        exact = op[gap_at.index] - f.values[flat]
                        if exact == gap:
                            gaps[variant] += 1
                        else:
                            failures.append((m, str(x0), variant, f"gap at {gap_at}", exact))
                        defect[flat] = 0.0
                    off = float(np.max(np.abs(defect)))
                    if off > 1e-12:
                        failures.append((m, str(x0), variant, "unpredicted defect", off))
    elapsed = time.monotonic() - start
    ok = not failures and gaps == expected_gaps and elapsed <= 10.0
    sample = "; ".join(f"m={m} x0={x0} {var} {what}: {r}" for m, x0, var, what, r in failures[:4])
    report(1, "reference-fixed-point", ok,
           f"{len(failures)} defects off prediction; m=2: {sum(gaps.values())} documented gaps "
           f"({gaps['convex']} convex at root, {gaps['binary']} binary at parent(x0)) "
           f"in {elapsed:.1f}s"
           + (f" ({sample} ...)" if failures else ""))
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s over the 10s budget"
    assert not failures, f"{len(failures)} defects off prediction: {failures}"
    assert gaps == expected_gaps, f"m=2 gaps {gaps}, expected {expected_gaps}"


def _seeded_functions(tree: TruncatedTree, rng, noise: int, envelopes: int,
                      perturbed: int) -> list[tuple[TreeFunction, str]]:
    """Noise, convex and binary envelopes (alternating), and convex envelopes
    with noise added, in that order."""
    m, depth = tree.m, tree.depth
    functions = [(random_function(tree, rng), f"noise m={m} d={depth} #{i}")
                 for i in range(noise)]
    for i in range(envelopes):
        g = rng.uniform(0, 1, tree.leaf_count)
        variant = "convex" if i % 2 == 0 else "binary"
        u = solve_dirichlet(tree, g, SolveConfig(variant=variant)).solution
        functions.append((u, f"{variant}-envelope m={m} d={depth} #{i}"))
    for i in range(perturbed):
        g = rng.uniform(0, 1, tree.leaf_count)
        u = solve_dirichlet(tree, g, SolveConfig(variant="convex")).solution
        bumped = u.values + 0.05 * rng.standard_normal(tree.vertex_count)
        functions.append((TreeFunction.from_values(tree, bumped),
                          f"perturbed m={m} d={depth} #{i}"))
    return functions


def _criterion_2_suite():
    """200 seeded random functions on trees small enough for the oracle's
    brute force, 24 more at m=2 depth 10 and m=3 depth 6, and 20 hand-built
    cases."""
    rng = np.random.default_rng(20250809)
    functions: list[tuple[TreeFunction, str]] = []
    for m, depth in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        functions += _seeded_functions(TruncatedTree(m, depth), rng, 20, 10, 10)
    assert len(functions) == 200
    rng = np.random.default_rng(20261022)
    for m, depth in [(2, 10), (3, 6)]:
        functions += _seeded_functions(TruncatedTree(m, depth), rng, 4, 4, 4)

    adversarial: list[tuple[TreeFunction, str]] = []
    for m, depth in [(2, 4), (3, 3)]:
        tree = TruncatedTree(m, depth)
        adversarial.append((TreeFunction.from_values(tree, np.full(tree.vertex_count, -3.7)),
                            f"constant m={m}"))
        adversarial.append((level_profile(tree, float), f"level m={m}"))
        adversarial.append((level_profile(tree, lambda k: -float(k)), f"neg-level m={m}"))
        adversarial.append((level_profile(
            tree, lambda k: float(sum(m**-j for j in range(1, k + 1)))), f"root-dist m={m}"))
        adversarial.append((psi_function(tree), f"psi m={m}"))
        ref = oracles.reference_convex_indicator(tree, Vertex(m, (1,)))
        adversarial.append((ref, f"convex-ref m={m}"))
        adversarial.append((oracles.reference_binary_indicator(tree, Vertex(m, (1,))),
                            f"binary-ref m={m}"))
        spiked = TreeFunction.from_values(tree, ref.values)
        spiked.values[tree.flat_index(Vertex.from_level_index(m, depth - 1, 0))] += 0.5
        adversarial.append((spiked, f"spiked-ref m={m}"))
        dipped = TreeFunction.from_values(tree, np.zeros(tree.vertex_count))
        dipped.values[tree.vertex_count - 1] = -1.0
        adversarial.append((dipped, f"leaf-dip m={m}"))
        tiny = np.full(tree.vertex_count, 2.0)
        tiny += 1e-12 * np.sin(np.arange(tree.vertex_count))
        adversarial.append((TreeFunction.from_values(tree, tiny), f"tiny-noise m={m}"))
    assert len(adversarial) == 20
    return functions + adversarial


def test_criterion_2_characterization_equivalence():
    """Operator-form and definition-form verdicts agree on the whole suite
    (tol 1e-9), for plain convexity (segments) and for binary convexity
    (every finite binary subtree, down to the leaves)."""
    start = time.monotonic()
    suite = _criterion_2_suite()
    mismatches = []
    pinned = {}
    for u, label in suite:
        convex_op = is_convex_operator(u, 1e-9)
        convex_seg = is_convex_segment(u, 1e-9)
        binary_op = is_binary_convex(u, 1e-9, mode="operator")
        binary_sub = is_binary_convex(u, 1e-9, mode="subtrees")
        if convex_op.ok != convex_seg.ok:
            mismatches.append((label, "convex", convex_op.ok, convex_seg.ok))
        if binary_op.ok != binary_sub.ok:
            mismatches.append((label, "binary", binary_op.ok, binary_sub.ok))
        pinned[label] = (convex_op.ok, binary_op.ok)
    elapsed = time.monotonic() - start

    ok = not mismatches and elapsed <= 60.0
    report(2, "characterization-equivalence", ok,
           f"{len(suite)} functions, {len(mismatches)} verdict mismatches, {elapsed:.1f}s")
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s over the 60s budget"
    assert not mismatches, mismatches
    # guard against vacuous agreement: known verdicts on hand-built cases,
    # and on the sizes past the brute force's old budgets
    for size in ("m=2 d=10", "m=3 d=6"):
        assert pinned[f"convex-envelope {size} #0"] == (True, True)
        assert pinned[f"noise {size} #0"] == (False, False)
        assert pinned[f"perturbed {size} #0"] == (False, False)
    for m in (2, 3):
        assert pinned[f"constant m={m}"] == (True, True)
        assert pinned[f"convex-ref m={m}"] == (True, True)
        assert pinned[f"binary-ref m={m}"] == (False, True)
        assert pinned[f"neg-level m={m}"] == (False, False)
        assert pinned[f"leaf-dip m={m}"] == (False, False)
        assert pinned[f"root-dist m={m}"] == (True, True)


def test_criterion_3_binary_dp_oracle():
    """Jacobi binary envelopes match the one-pass bottom-up DP (the public
    binary solve) within 1e-10 on 100 random leaf datasets."""
    rng = np.random.default_rng(3)
    cfg = SolveConfig(variant="binary")
    worst = 0.0
    count = 0
    for m, depth, n in [(2, 4, 20), (2, 6, 20), (2, 8, 20), (3, 3, 20), (3, 5, 20)]:
        tree = TruncatedTree(m, depth)
        for _ in range(n):
            g = rng.uniform(-1, 1, tree.leaf_count)
            via_jacobi = solve("jacobi", tree, cfg, g).solution.values
            via_dp = solve_dirichlet(tree, g, cfg).solution.values
            worst = max(worst, float(np.max(np.abs(via_jacobi - via_dp))))
            count += 1
    ok = count == 100 and worst <= 1e-10
    report(3, "binary-dp-oracle", ok, f"{count} datasets, max |jacobi - dp| = {worst:.2e}")
    assert ok, f"max deviation {worst}"


def test_criterion_4_largest_solution_and_comparison():
    """Every generated subsolution lies below the solved envelope, and
    solutions are ordered like their leaf data (0 violations)."""
    rng = np.random.default_rng(4)
    subsolution_failures = 0
    subsolutions = 0
    for m, depth in [(2, 5), (3, 4)]:
        tree = TruncatedTree(m, depth)
        g = rng.uniform(0, 1, tree.leaf_count)
        cfg = SolveConfig(variant="convex")
        u = solve_dirichlet(tree, g, cfg).solution.values
        interior = tree.interior_slice
        candidates: list[np.ndarray] = []
        floor = g.min()
        for _ in range(10):
            alpha = rng.uniform(0, 1)
            candidates.append(alpha * u + (1 - alpha) * floor)
        for _ in range(5):
            candidates.append(u - rng.uniform(0, 2))
        for _ in range(5):
            level = int(rng.integers(1, 4))
            x0 = Vertex.from_level_index(m, level, int(rng.integers(0, m**level)))
            ref = oracles.reference_convex_indicator(tree, x0)
            scale = float(g[np.nonzero(ref.values[tree.leaf_slice] > 0)[0]].min())
            candidates.append(scale * ref.values)
        for _ in range(5):
            a, b = rng.uniform(0, 1, 2)
            candidates.append(np.maximum(a * u + (1 - a) * floor, b * u + (1 - b) * floor))
        for v in candidates:
            subsolutions += 1
            vf = TreeFunction.from_values(tree, v)
            op = operator_values(tree, vf.values, "convex")
            assert np.all(vf.values[interior] <= op[interior] + 1e-9), "not a subsolution"
            assert np.all(vf.values[tree.leaf_slice] <= g + 1e-12), "exceeds the leaf data"
            if not np.all(v <= u + 1e-10):
                subsolution_failures += 1
    assert subsolutions == 50

    comparison_violations = 0
    for variant, m in product(("convex", "binary"), (2, 3)):
        cfg = SolveConfig(variant=variant)
        tree = TruncatedTree(m, 4)
        for _ in range(5):
            g1 = rng.uniform(0, 1, tree.leaf_count)
            g2 = g1 - rng.uniform(0, 0.5, tree.leaf_count)
            u1 = solve_dirichlet(tree, g1, cfg).solution.values
            u2 = solve_dirichlet(tree, g2, cfg).solution.values
            comparison_violations += int(np.sum(u2 > u1 + 1e-10))

    ok = subsolution_failures == 0 and comparison_violations == 0
    report(4, "largest-solution-and-comparison", ok,
           f"{subsolutions} subsolutions dominated, "
           f"{comparison_violations} comparison violations")
    assert ok


def test_criterion_5_monotone_descent():
    """Every solve from sup-initialization reports monotone = True."""
    rng = np.random.default_rng(5)
    flags = []
    for engine in ENGINES:
        for variant, m in [("convex", 2), ("convex", 3), ("binary", 2), ("binary", 3),
                           ("kconvex", 4), ("laplacian_full", 2), ("laplacian_full", 3),
                           ("laplacian_arborescence", 2), ("laplacian_arborescence", 3)]:
            k = 3 if variant == "kconvex" else None
            tree = TruncatedTree(m, 5)
            cfg = SolveConfig(variant=variant, k=k)
            for _ in range(5):
                g = rng.uniform(-1, 1, tree.leaf_count)
                rep = solve(engine, tree, cfg, g)
                flags.append(rep.monotone and rep.converged)
    ok = all(flags)
    report(5, "monotone-descent", ok, f"{sum(flags)}/{len(flags)} solves monotone+converged")
    assert ok


def test_criterion_6_obstacle_contract():
    """On 100 random obstacles: envelope <= obstacle, equation residual
    <= 1e-10 off the coincidence set, and the minimum (with its minimizers)
    is preserved."""
    rng = np.random.default_rng(6)
    cfg = SolveConfig(variant="convex")
    count = 0
    problems = []
    for m, depth, n in [(2, 4, 25), (2, 6, 25), (3, 3, 25), (3, 4, 25)]:
        tree = TruncatedTree(m, depth)
        interior = tree.interior_slice
        for i in range(n):
            f = TreeFunction.from_values(tree, rng.standard_normal(tree.vertex_count))
            result = solve_obstacle(f, cfg)
            u = result.envelope.values
            count += 1
            label = f"m={m} d={depth} #{i}"
            if not result.report.converged:
                problems.append(f"{label}: not converged")
            if not np.all(u <= f.values):
                problems.append(f"{label}: envelope exceeds obstacle")
            op = operator_values(tree, u, "convex")
            off_cs = ~result.coincidence_mask[interior]
            if not np.all(np.abs(u[interior][off_cs] - op[interior][off_cs]) <= 1e-10):
                problems.append(f"{label}: residual off the coincidence set")
            if abs(u.min() - f.values.min()) > 1e-12:
                problems.append(f"{label}: min changed")
            minimizers = np.nonzero(np.abs(f.values - f.values.min()) <= 1e-12)[0]
            if not np.all(u[minimizers] <= u.min() + 1e-12):
                problems.append(f"{label}: obstacle minimizer lost")
    ok = count == 100 and not problems
    report(6, "obstacle-contract", ok, f"{count} obstacles, {len(problems)} problems")
    assert ok, problems


def test_criterion_7_eigenvalue_sum_identities():
    """Sum of the second-difference families equals the scaled Laplacian
    defects to 1e-12 on 1000 random samples, m in {2,...,5}."""
    rng = np.random.default_rng(7)
    trees = {m: TruncatedTree(m, 3) for m in (2, 3, 4, 5)}
    worst_full = worst_arb = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        tree = trees[m]
        u = random_function(tree, rng)
        level = int(rng.integers(1, 3))
        x = Vertex.from_level_index(m, level, int(rng.integers(0, m**level)))
        gap_full = abs(sum(oracles.eigenvalues_convex(u, x))
                       - m * (m + 1) / 2 * oracles.laplacian_residual(u, x))
        gap_arb = abs(sum(oracles.eigenvalues_binary(u, x))
                      - m * (m - 1) / 2 * oracles.arborescence_laplacian(u, x))
        worst_full = max(worst_full, gap_full)
        worst_arb = max(worst_arb, gap_arb)
    ok = worst_full <= 1e-12 and worst_arb <= 1e-12
    report(7, "eigenvalue-sum-identities", ok,
           f"max gaps: full {worst_full:.2e}, arborescence {worst_arb:.2e}")
    assert ok


def test_criterion_8_harmonic_oracle():
    """Arborescence Laplacian solves equal the subtree-leaf-average closed
    form within 1e-10, m in {2, 3}, depth <= 10."""
    rng = np.random.default_rng(8)
    cfg = SolveConfig(variant="laplacian_arborescence")
    worst = 0.0
    for m, depth in [(2, 6), (2, 8), (2, 10), (3, 5), (3, 8), (3, 10)]:
        tree = TruncatedTree(m, depth)
        g = rng.uniform(-2, 2, tree.leaf_count)
        rep = solve_dirichlet(tree, g, cfg)
        assert rep.converged
        oracle = np.empty(tree.vertex_count)
        for level in range(tree.depth + 1):
            below = m ** (depth - level)
            oracle[tree.level_slice(level)] = g.reshape(m**level, below).mean(axis=1)
        worst = max(worst, float(np.max(np.abs(rep.solution.values - oracle))))
    ok = worst <= 1e-10
    report(8, "harmonic-oracle", ok, f"max |solve - leaf average| = {worst:.2e}")
    assert ok


def _depth_series(datum_spec: str) -> tuple[list[float], list[bool]]:
    g = parse_datum(datum_spec)
    cfg = SolveConfig(variant="convex")
    roots = []
    convex_ok = []
    for depth in range(4, 13):
        tree = TruncatedTree(2, depth)
        rep = solve_dirichlet(tree, sample_leaves(g, tree), cfg)
        assert rep.converged
        roots.append(float(rep.solution.values[0]))
        convex_ok.append(bool(is_convex_operator(rep.solution, 1e-9).ok))
    return roots, convex_ok


def test_criterion_9_depth_convergence_proxy():
    """For g(t) = t^2 and |t - 1/2|, m = 2, depths 4..12, convex variant:
    strictly positive root-value gaps, non-increasing from depth 6 on, and
    every solution passes the operator convexity check."""
    start = time.monotonic()
    problems = []
    for spec in ("power:2", "absdev:0.5"):
        roots, convex_ok = _depth_series(spec)
        deltas = [abs(b - a) for a, b in zip(roots, roots[1:])]  # depths 4..11
        if not all(d > 0 for d in deltas):
            problems.append(f"{spec}: non-positive delta {deltas}")
        from_six = deltas[2:]  # delta at depth L is |u_L - u_(L+1)|; L >= 6
        if not all(b <= a for a, b in zip(from_six, from_six[1:])):
            problems.append(f"{spec}: deltas increase beyond depth 6: {from_six}")
        if not all(convex_ok):
            problems.append(f"{spec}: a solution fails the convexity check")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed <= 120.0
    detail = f"{elapsed:.1f}s" + ("; " + "; ".join(problems) if problems else "")
    report(9, "depth-convergence-proxy", ok, detail)
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s over the 2min budget"
    assert ok, problems


def test_criterion_10_determinism(tmp_path):
    """Re-running the depth study gives byte-identical CSVs across repeated
    runs."""
    all_equal = True
    for spec, tag in [("power:2", "sq"), ("absdev:0.5", "abs")]:
        blobs = []
        for run in range(2):
            out = tmp_path / f"{tag}-{run}.csv"
            code = cli_main(["converge", "--m", "2", "--datum", spec,
                             "--depths", ",".join(str(d) for d in range(4, 13)),
                             "--out-csv", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        all_equal = all_equal and blobs[0] == blobs[1]
    report(10, "byte-determinism", all_equal, "2 runs, both data")
    assert all_equal


def test_criterion_11_definitional_envelope():
    """The solved envelope is the largest segment-convex (binary-convex,
    k-convex) function: `solve_dirichlet` and `solve_obstacle` match, within
    1e-12 * max|data|, the greatest function that satisfies every segment
    (binary- or k-ary-subtree) constraint, swept down from the definition by
    `oracles.definitional_envelope`.  Random leaf data and obstacles, 4 of
    each per size; convex at m=2 L=4..6, m=3 L=3..4 and m=5 L=3, binary at
    m=2 L=4 and m=3 L=3, kconvex at m=3 k=3 L=3, m=4 k=3 L=2 and m=5 k=4
    L=2."""
    rng = np.random.default_rng(11)
    cases = [("convex", 2, 4, None), ("convex", 2, 5, None), ("convex", 2, 6, None),
             ("convex", 3, 3, None), ("convex", 3, 4, None), ("convex", 5, 3, None),
             ("binary", 2, 4, None), ("binary", 3, 3, None),
             ("kconvex", 3, 3, 3), ("kconvex", 4, 2, 3), ("kconvex", 5, 2, 4)]
    failures = []
    sweeps = {}
    worst = 0.0
    for variant, m, depth, k in cases:
        tree = TruncatedTree(m, depth)
        if variant == "convex":
            arrays = oracles.segment_constraints(tree)
        else:
            arrays = oracles.subtree_constraints(tree, k=k or 2)
        cfg = SolveConfig(variant=variant, k=k)
        for scale in (1.0, 1.0, 1e3, 1e-3):
            g = scale * rng.uniform(-1, 1, tree.leaf_count)
            start = np.full(tree.vertex_count, g.max())
            start[tree.leaf_slice] = g
            f = scale * rng.uniform(-1, 1, tree.vertex_count)
            runs = [("dirichlet", start, solve_dirichlet(tree, g, cfg).solution.values),
                    ("obstacle", f, solve_obstacle(
                        TreeFunction.from_values(tree, f), cfg).envelope.values)]
            for kind, data, solved in runs:
                want, n = oracles.definitional_envelope(arrays, data)
                key = (variant, kind)
                sweeps[key] = max(sweeps.get(key, 0), n)
                err = float(np.max(np.abs(solved - want))) / float(np.max(np.abs(data)))
                worst = max(worst, err)
                if err > 1e-12:
                    failures.append((variant, kind, m, depth, scale, err))
    ok = not failures
    counts = ", ".join(f"{v} {k} {n}" for (v, k), n in sweeps.items())
    report(11, "definitional-envelope", ok,
           f"{len(cases) * 8} solves, max |solved - definitional| / max|data| = {worst:.1e}; "
           f"most sweeps: {counts}")
    assert ok, failures
