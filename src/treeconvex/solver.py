"""Fixed-point solvers for the Dirichlet problems of the envelope equations
and the tree Laplacians, and for the obstacle problem.

All solves start from the pointwise largest admissible state (the sup of the
leaf data, or the obstacle itself) and iterate a monotone operator, so the
iterates descend to the largest fixed point.  Both sweeps visit the levels
leaves to root: Jacobi reads a frozen copy of the previous iterate,
Gauss-Seidel reads the current one in place and reaches the same fixed point
in fewer sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import (
    CLIPPED_VARIANTS,
    ENVELOPE_VARIANTS,
    apply_operator,
    check_variant,
    level_operator,
)
from .functions import TreeFunction
from .tree import TruncatedTree

SWEEPS = ("jacobi", "gauss_seidel_level_order")


@dataclass(frozen=True)
class SolveConfig:
    variant: str = "convex"
    k: int | None = None
    tol: float = 1e-12
    max_iter: int = 1_000_000
    sweep: str = "jacobi"

    def __post_init__(self) -> None:
        check_variant(self.variant, self.k)
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.sweep not in SWEEPS:
            raise ValueError(f"sweep must be one of {SWEEPS}, got {self.sweep!r}")


@dataclass
class SolveReport:
    solution: TreeFunction
    iterations: int
    final_residual: float
    converged: bool
    monotone: bool  # every sweep left the iterate pointwise non-increasing


@dataclass
class ObstacleResult:
    envelope: TreeFunction
    coincidence_mask: np.ndarray
    report: SolveReport


def _leaf_array(tree: TruncatedTree, leaf_values) -> np.ndarray:
    if isinstance(leaf_values, TreeFunction):
        if leaf_values.tree != tree:
            raise ValueError("leaf data lives on a different tree")
        return leaf_values.leaf_values.copy()
    arr = np.asarray(leaf_values, dtype=np.float64).copy()
    if arr.shape != (tree.leaf_count,):
        raise ValueError(f"expected {tree.leaf_count} leaf values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("leaf values must be finite")
    return arr


def _defect(tree: TruncatedTree, values: np.ndarray, variant: str, k: int | None,
            obstacle: np.ndarray | None = None) -> float:
    """Sup-norm equation defect over interior vertices (the only vertices the
    truncated system constrains; leaves are clamped exactly)."""
    op = apply_operator(tree, values, variant, k)
    interior = tree.interior_slice
    target = op[interior]
    if obstacle is not None:
        target = np.minimum(target, obstacle[interior])
    return float(np.max(np.abs(values[interior] - target)))


def _iterate(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
             obstacle: np.ndarray | None = None) -> SolveReport:
    """Monotone fixed-point iteration on `values` (leaves already clamped).

    With an obstacle, interior updates are min(obstacle, operator); without
    one, variants whose float averaging can overshoot by an ulp are clipped
    against the previous iterate so descent stays exact.
    """
    clip = obstacle is None and cfg.variant in CLIPPED_VARIANTS
    jacobi = cfg.sweep == "jacobi"
    monotone = True
    iterations = 0
    converged = False
    residual_value: float | None = None

    while iterations < cfg.max_iter:
        # Gauss-Seidel reads `values` in place, so each level sees the level
        # below it already updated; Jacobi reads the previous iterate.
        source = values.copy() if jacobi else values
        change = 0.0
        for level in range(tree.depth - 1, -1, -1):
            sl = tree.level_slice(level)
            new_level = level_operator(tree, source, level, cfg.variant, cfg.k)
            if obstacle is not None:
                np.minimum(new_level, obstacle[sl], out=new_level)
            elif clip:
                np.minimum(new_level, values[sl], out=new_level)
            change = max(change, float(np.max(np.abs(new_level - values[sl]))))
            if monotone and not np.all(new_level <= values[sl]):
                monotone = False
            values[sl] = new_level
        iterations += 1
        if change <= cfg.tol:
            residual_value = _defect(tree, values, cfg.variant, cfg.k, obstacle)
            if residual_value <= cfg.tol:
                converged = True
                break

    if residual_value is None or not converged:
        residual_value = _defect(tree, values, cfg.variant, cfg.k, obstacle)
    return SolveReport(
        solution=TreeFunction(tree, values),
        iterations=iterations,
        final_residual=residual_value,
        converged=converged,
        monotone=monotone,
    )


def solve_dirichlet(tree: TruncatedTree, leaf_values, cfg: SolveConfig) -> SolveReport:
    """Largest solution of the chosen equation with the given leaf data:
    leaves stay clamped, the interior starts at max(leaf data) and the
    iterates descend to the fixed point.  The Laplacian updates are convex
    combinations, so the discrete maximum principle holds; the root of the
    full-tree Laplacian uses the successor-average rule."""
    check_variant(cfg.variant, cfg.k, tree.m)
    g = _leaf_array(tree, leaf_values)
    values = np.empty(tree.vertex_count)
    values[tree.leaf_slice] = g
    values[tree.interior_slice] = g.max()
    return _iterate(tree, values, cfg)


def solve_obstacle(tree: TruncatedTree, obstacle: TreeFunction, cfg: SolveConfig) -> ObstacleResult:
    """Largest function below the obstacle satisfying the operator inequality:
    start at the obstacle and iterate u <- min(obstacle, operator(u)).  The
    coincidence mask marks vertices where the envelope touches the obstacle
    (within cfg.tol); leaves are clamped to the obstacle."""
    if cfg.variant not in ENVELOPE_VARIANTS:
        raise ValueError(f"variant {cfg.variant!r} is not an envelope equation")
    check_variant(cfg.variant, cfg.k, tree.m)
    if obstacle.tree != tree:
        raise ValueError("obstacle lives on a different tree")
    f = obstacle.values.copy()
    report = _iterate(tree, f.copy(), cfg, obstacle=f)
    mask = np.abs(report.solution.values - f) <= cfg.tol
    return ObstacleResult(envelope=report.solution, coincidence_mask=mask, report=report)


def binary_envelope_exact(tree: TruncatedTree, leaf_values) -> TreeFunction:
    """One reverse-level sweep of u(x) = min successor-pair average: the exact
    fixed point of the truncated binary system (successor-only structure)."""
    g = _leaf_array(tree, leaf_values)
    values = np.empty(tree.vertex_count)
    values[tree.leaf_slice] = g
    for level in range(tree.depth - 1, -1, -1):
        values[tree.level_slice(level)] = level_operator(tree, values, level, "binary")
    return TreeFunction(tree, values)


def residual(tree: TruncatedTree, u: TreeFunction, variant: str, k: int | None = None) -> float:
    """Sup-norm defect of the variant's equation over interior vertices."""
    if u.tree != tree:
        raise ValueError("function lives on a different tree")
    return _defect(tree, u.values, variant, k)
