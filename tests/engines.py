"""One entry point for the tests to every solve engine: the public solve and
the independent Jacobi and Gauss-Seidel references of `oracles`; and one
simultaneous application of an operator."""

from __future__ import annotations

from treeconvex import ObstacleResult, solve_dirichlet, solve_obstacle

import oracles

ENGINES = ("direct", "jacobi", "gs")


def solve(engine, tree, cfg, leaves=None, obstacle=None):
    """`solve_dirichlet(tree, leaves, cfg)`, or `solve_obstacle(obstacle, cfg)`
    when an obstacle (on `tree`) is given, run by one engine: "direct" is the
    public solve; "jacobi" and "gs" (`oracles.descend`) sweep from the same
    start state until the change and the defect are within tol."""
    if engine == "direct":
        if obstacle is None:
            return solve_dirichlet(tree, leaves, cfg)
        return solve_obstacle(obstacle, cfg)
    f = None if obstacle is None else obstacle.values
    run = oracles.descend(tree, cfg.variant, cfg.k, cfg.tol, cfg.max_iter, leaves, f,
                          gauss_seidel=engine == "gs")
    return run if f is None else ObstacleResult(run.solution, run.coincidence_mask, run)


def operator_values(tree, values, variant):
    """The variant's operator (`oracles.operator`) at every interior vertex of
    `values`, with the leaves copied through unchanged."""
    out = values.copy()
    out[: tree.interior_count] = oracles.operator(tree, values, variant)
    return out
