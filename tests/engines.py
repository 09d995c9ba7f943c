"""One entry point for the tests to every solve engine: the public solve, the
library's Gauss-Seidel sweeps and the independent Jacobi reference of
`oracles`; and one simultaneous application of an operator."""

from __future__ import annotations

import numpy as np

from treeconvex import ObstacleResult, solve_dirichlet, solve_obstacle
from treeconvex.solver import _dirichlet_start, _iterate

import oracles

ENGINES = ("direct", "jacobi", "gs")


def solve(engine, tree, cfg, leaves=None, obstacle=None):
    """`solve_dirichlet(tree, leaves, cfg)`, or `solve_obstacle(obstacle, cfg)`
    when an obstacle (on `tree`) is given, run by one engine: "direct" is the
    public solve; "jacobi" (`oracles.jacobi`) and "gs" (the library's sweeps)
    sweep from the same start state until the change and the defect are
    within tol."""
    if engine == "direct":
        if obstacle is None:
            return solve_dirichlet(tree, leaves, cfg)
        return solve_obstacle(obstacle, cfg)
    f = None if obstacle is None else obstacle.values
    if engine == "jacobi":
        run = oracles.jacobi(tree, cfg.variant, cfg.k, cfg.tol, cfg.max_iter, leaves, f)
        return run if f is None else ObstacleResult(run.solution, run.coincidence_mask, run)
    if f is None:
        return _iterate(tree, _dirichlet_start(tree, leaves), cfg)
    report = _iterate(tree, f.copy(), cfg, f)
    return ObstacleResult(report.solution, np.abs(report.solution.values - f) <= cfg.tol, report)


def operator_values(tree, values, variant):
    """The variant's operator (`oracles.operator`) at every interior vertex of
    `values`, with the leaves copied through unchanged."""
    out = values.copy()
    out[: tree.interior_count] = oracles.operator(tree, values, variant)
    return out
