"""One entry point for the tests to every solve engine: the public solve and
the private reference sweeps; and one simultaneous application of an
operator."""

from __future__ import annotations

import numpy as np

from treeconvex import ObstacleResult, solve_dirichlet, solve_obstacle
from treeconvex._kernels import operator_levels
from treeconvex.solver import _dirichlet_start, _iterate

ENGINES = ("direct", "jacobi", "gs")


def solve(engine, tree, cfg, leaves=None, obstacle=None):
    """`solve_dirichlet(tree, leaves, cfg)`, or `solve_obstacle(obstacle, cfg)`
    when an obstacle (on `tree`) is given, run by one engine: "direct" is the
    public solve; "jacobi" and "gs" sweep from the same start state until the
    change and the defect are within tol."""
    if engine == "direct":
        if obstacle is None:
            return solve_dirichlet(tree, leaves, cfg)
        return solve_obstacle(obstacle, cfg)
    jacobi = {"jacobi": True, "gs": False}[engine]
    if obstacle is None:
        return _iterate(tree, _dirichlet_start(tree, leaves), cfg, jacobi=jacobi)
    f = obstacle.values
    report = _iterate(tree, f.copy(), cfg, f, jacobi=jacobi)
    return ObstacleResult(report.solution, np.abs(report.solution.values - f) <= cfg.tol, report)


def operator_values(tree, values, variant):
    """The variant's operator at every interior vertex of `values`, with the
    leaves copied through unchanged."""
    out = values.copy()
    for sl, op in operator_levels(tree, values, variant, None):
        out[sl] = op
    return out
