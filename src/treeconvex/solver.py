"""Solvers for the Dirichlet problems of the envelope equations and the tree
Laplacians, and for the obstacle problem.

Every solve starts from the pointwise largest admissible state (the sup of
the leaf data, or the obstacle itself) and descends to the largest solution.
`SolveConfig.sweep` picks the engine:

- "direct" (the default) is exact.  Binary, kconvex and the arborescence
  Laplacian read only the successor level, so one leaves-to-root pass solves
  them, with or without an obstacle.  The full-tree Laplacian is one call of
  the tree primitive `_eliminate`, O(n) with no fill-in.  The convex equation
  is a minimum of such linear systems, one per choice at each vertex (pair,
  predecessor branch, or the obstacle); Howard policy iteration solves the
  system of the argmin choice at the iterate until the defect is within tol
  or the policy repeats.  Each iterate is a supersolution of the next
  policy's system, so the evaluations descend.  The rounding of an
  evaluation grows with the size of the data; when it leaves the defect
  above tol, Gauss-Seidel sweeps from a float supersolution just above the
  iterate finish the solve.
- "jacobi" and "gauss_seidel_level_order" iterate the monotone operator
  level by level, leaves to root, reading a frozen copy of the previous
  iterate or the current one in place (fewer sweeps to the same fixed
  point).  They stay as reference engines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._kernels import (
    CLIPPED_VARIANTS,
    ENVELOPE_VARIANTS,
    KERNELS,
    check_variant,
    full_laplacian_weights,
    level_operator,
)
from .functions import TreeFunction
from .tree import TruncatedTree, Vertex

SWEEPS = ("direct", "jacobi", "gauss_seidel_level_order")
# Howard policy codes: `first` holds the column of the smallest successor,
# `second` the column of its pair partner or PRED; both hold TOUCH where the
# choice is the obstacle.
PRED, TOUCH = -1, -2


@dataclass(frozen=True)
class SolveConfig:
    variant: str = "convex"
    k: int | None = None
    tol: float = 1e-12
    max_iter: int = 1_000_000
    sweep: str = "direct"

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
    iterations: int  # sweeps, or policy evaluations of the direct engine plus its sweeps
    final_residual: float
    converged: bool
    monotone: bool  # no sweep or evaluation raised the iterate (for "direct": beyond tol + rounding)
    worst_vertex: Vertex  # an interior vertex where the final defect peaks
    last_change: float  # sup-norm change made by the last sweep or evaluation


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


def _operator_levels(tree: TruncatedTree, values: np.ndarray, variant: str, k: int | None,
                     obstacle: np.ndarray | None = None):
    """(slice, operator values) of each interior level, clipped by the
    obstacle if there is one."""
    for level in range(tree.depth):
        sl = tree.level_slice(level)
        op = level_operator(tree, values, level, variant, k)
        if obstacle is not None:
            np.minimum(op, obstacle[sl], out=op)
        yield sl, op


def _gap(level_values: np.ndarray, op: np.ndarray) -> np.ndarray:
    """|u - operator(u)| on one level, written into `op`."""
    np.subtract(level_values, op, out=op)
    return np.abs(op, out=op)


def _peak(gap: np.ndarray, start: int, worst: float, at: int) -> tuple[float, int]:
    """Fold one level's |u - operator(u)| (flat indices from `start`) into the
    running sup `worst` attained at `at`; NaN counts as the largest."""
    i = int(np.argmax(gap))  # the first NaN, if there is one
    if gap[i] > worst or (np.isnan(gap[i]) and not np.isnan(worst)):
        return float(gap[i]), start + i
    return worst, at


def _defect(tree: TruncatedTree, values: np.ndarray, variant: str, k: int | None,
            obstacle: np.ndarray | None = None) -> tuple[float, int]:
    """Sup-norm equation defect over interior vertices (the only vertices the
    truncated system constrains; leaves are clamped exactly), one level at a
    time, and the flat index of the first vertex where it peaks."""
    worst, at = -1.0, 0
    for sl, op in _operator_levels(tree, values, variant, k, obstacle):
        worst, at = _peak(_gap(values[sl], op), sl.start, worst, at)
    return worst, at


def _iterate(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
             obstacle: np.ndarray | None = None) -> SolveReport:
    """Monotone fixed-point iteration on `values` (leaves already clamped).

    With an obstacle, interior updates are min(obstacle, operator); without
    one, variants whose float averaging can overshoot by an ulp are clipped
    against the previous iterate so descent stays exact.  The direct engine
    runs one Gauss-Seidel pass, which is exact for the variants that read
    only the successor level.
    """
    clip = obstacle is None and cfg.variant in CLIPPED_VARIANTS
    jacobi = cfg.sweep == "jacobi"
    exact = cfg.sweep == "direct"
    monotone = True
    iterations = 0

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
        if change <= cfg.tol or exact:
            defect, worst = _defect(tree, values, cfg.variant, cfg.k, obstacle)
            if defect <= cfg.tol or exact:
                break
    else:
        defect, worst = _defect(tree, values, cfg.variant, cfg.k, obstacle)
    return SolveReport(TreeFunction(tree, values), iterations, defect, defect <= cfg.tol,
                       monotone, tree.vertex_at(worst), change)


def _eliminate(tree: TruncatedTree, values: np.ndarray, alpha: np.ndarray, system) -> None:
    """The tree primitive: solve u(x) = a_x u(parent) + sum_c w_xc u(c) + b_x
    at every interior vertex, with the leaves of `values` clamped.

    Leaves to root, each vertex is written as u(x) = alpha_x u(parent) +
    beta_x, with beta stored in `values` and alpha in `alpha` (interior
    only; a leaf's alpha is 0); root to leaves, u(x) is then substituted
    back.  `system(level, alpha_succ, beta_succ)` builds one level's
    coefficients from its successors' rows when the elimination reaches it
    (alpha_succ is None above the leaves): a_x, sum_c w_xc alpha_c and
    sum_c w_xc beta_c + b_x.
    """
    m = tree.m
    for level in range(tree.depth - 1, -1, -1):
        n, sl, succ = tree.level_size(level), tree.level_slice(level), tree.level_slice(level + 1)
        alpha_succ = None if level == tree.depth - 1 else alpha[succ].reshape(n, m)
        a, s_alpha, s_beta = system(level, alpha_succ, values[succ].reshape(n, m))
        pivot = 1.0 - s_alpha
        alpha[sl] = a / pivot
        values[sl] = s_beta / pivot
    for level in range(1, tree.depth):
        sl = tree.level_slice(level)
        values[sl] += alpha[sl] * np.repeat(values[tree.level_slice(level - 1)], m)


def _laplacian_system(tree: TruncatedTree):
    """Level coefficients of the full-tree Laplacian for `_eliminate`; the
    root uses the successor-average rule."""
    c_pred, c_succ = full_laplacian_weights(tree.m)

    def system(level, alpha_succ, beta_succ):
        a, w = (c_pred, c_succ) if level > 0 else (0.0, 1.0)
        s_alpha = 0.0 if alpha_succ is None else w * alpha_succ.mean(axis=1)
        return a, s_alpha, w * beta_succ.mean(axis=1)

    return system


class _ConvexPolicy:
    """Howard policy of the convex equation and of its obstacle problem: at
    every interior vertex, the argmin choice among the smallest successor
    pair, the predecessor branch with the smallest successor, and the
    obstacle.  Stored as two small-integer columns (see PRED and TOUCH)."""

    def __init__(self, tree: TruncatedTree, obstacle: np.ndarray | None) -> None:
        self.tree, self.obstacle = tree, obstacle
        dtype = np.min_scalar_type(-tree.m)
        self.first = np.zeros(tree.interior_count, dtype)
        self.second = np.zeros(tree.interior_count, dtype)

    def improve(self, values: np.ndarray) -> tuple[float, int, bool]:
        """Store at every interior vertex the choice that attains the operator
        at `values`.  Returns the defect of `values` and its flat index, as
        `_defect` does, and whether any stored choice changed."""
        tree, m = self.tree, self.tree.m
        worst, at, changed = -1.0, 0, False
        for level in range(tree.depth):
            sl = tree.level_slice(level)
            succ = values[tree.level_slice(level + 1)].reshape(-1, m)
            cols = np.argpartition(succ, 1, axis=1)[:, :2]
            s0, s1 = np.take_along_axis(succ, cols, axis=1).T
            first, second = cols.T.astype(self.first.dtype)
            op = (s0 + s1) / 2.0
            if level > 0:
                pred = (np.repeat(values[tree.level_slice(level - 1)], m) + m * s0) / (m + 1)
                branch = pred < op
                np.copyto(op, pred, where=branch)
                second[branch] = PRED
            if self.obstacle is not None:
                touch = self.obstacle[sl] < op
                np.copyto(op, self.obstacle[sl], where=touch)
                first[touch] = second[touch] = TOUCH
            if not (np.array_equal(first, self.first[sl])
                    and np.array_equal(second, self.second[sl])):
                changed = True
                self.first[sl], self.second[sl] = first, second
            worst, at = _peak(_gap(values[sl], op), sl.start, worst, at)
        return worst, at, changed

    def system(self, level: int, alpha_succ, beta_succ):
        """Level coefficients of the stored policy's equation for `_eliminate`."""
        m = self.tree.m
        sl = self.tree.level_slice(level)
        first, second = self.first[sl], self.second[sl]
        touch, branch = first == TOUCH, second == PRED
        rows = np.arange(0, beta_succ.size, m)
        j0 = rows + np.where(touch, 0, first)
        j1 = np.where(touch | branch, j0, rows + second)

        def weigh(succ):  # sum_c w_xc succ_c
            flat = succ.ravel()
            return np.where(branch, flat[j0] * (m / (m + 1)), (flat[j0] + flat[j1]) / 2.0)

        a = np.where(branch, 1.0 / (m + 1), 0.0)
        s_alpha = np.zeros(len(rows)) if alpha_succ is None else weigh(alpha_succ)
        s_beta = weigh(beta_succ)
        if self.obstacle is not None:
            a[touch] = s_alpha[touch] = 0.0
            s_beta[touch] = self.obstacle[sl][touch]
        return a, s_alpha, s_beta


def _lift(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
          obstacle: np.ndarray | None, c: float, base: np.ndarray) -> None:
    """Raise the interior of `values` to a float supersolution, u >=
    min(obstacle, operator(u)) at every interior vertex, by adding
    c * (depth - level), doubling c until it holds.
    `base` is an interior-size buffer.

    The lift falls by c per level towards the leaves, so every choice of
    either operator lowers it by a fixed fraction of c, and a lift well above
    the defect of `values` absorbs the defect and the rounding."""
    base[:] = values[tree.interior_slice]
    while True:
        for level in range(tree.depth):
            sl = tree.level_slice(level)
            values[sl] = base[sl] + c * (tree.depth - level)
        if all(np.all(values[sl] >= op)
               for sl, op in _operator_levels(tree, values, cfg.variant, cfg.k, obstacle)):
            return
        c *= 2.0


def _howard(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
            obstacle: np.ndarray | None = None) -> SolveReport:
    """The direct engine for the variants that read the parent level, on
    `values` (leaves clamped, interior at its initial state): one exact
    solve for laplacian_full, Howard policy iteration for convex."""
    interior = tree.interior_slice
    policy = _ConvexPolicy(tree, obstacle) if cfg.variant == "convex" else None
    system = _laplacian_system(tree) if policy is None else policy.system
    alpha, prev = np.empty(tree.interior_count), np.empty(tree.interior_count)
    if policy is not None:
        policy.improve(values)
    iterations, monotone = 0, True
    while True:
        prev[:] = values[interior]
        _eliminate(tree, values, alpha, system)
        iterations += 1
        # In exact arithmetic an evaluation never rises above the previous
        # iterate, but rounding can lift it by a few ulps of the data: only a
        # rise beyond tol plus 4 ulps per level counts against `monotone`,
        # and the iterate keeps the smaller value, so the descent stays exact.
        new = values[interior]
        rounding = 4 * tree.depth * np.spacing(max(-prev.min(), prev.max()))
        monotone = monotone and bool(np.all(new <= prev + (cfg.tol + rounding)))
        np.minimum(new, prev, out=new)
        change = float(np.max(prev - new))
        if policy is None:
            (defect, worst), changed = _defect(tree, values, cfg.variant, cfg.k), False
        else:
            defect, worst, changed = policy.improve(values)
        # An unchanged policy would evaluate to the same iterate again.
        if not (defect > cfg.tol and changed and iterations < cfg.max_iter):
            break
    if np.isfinite(defect) and defect > cfg.tol and iterations < cfg.max_iter:
        # The policy is optimal, but the rounding of its evaluation grows with
        # the size of the data and left the defect above tol.  Gauss-Seidel
        # sweeps from a float supersolution just above the iterate descend to
        # a float fixed point, as the reference engines do from the sup.  The
        # lift is not an evaluation and does not count against `monotone`.
        _lift(tree, values, cfg, obstacle, defect, prev)
        rest = _iterate(tree, values, replace(cfg, sweep="gauss_seidel_level_order",
                                              max_iter=cfg.max_iter - iterations), obstacle)
        return replace(rest, iterations=iterations + rest.iterations,
                       monotone=monotone and rest.monotone)
    return SolveReport(TreeFunction(tree, values), iterations, defect, defect <= cfg.tol,
                       monotone, tree.vertex_at(worst), change)


def _solve(tree: TruncatedTree, values: np.ndarray, cfg: SolveConfig,
           obstacle: np.ndarray | None = None) -> SolveReport:
    reads_parent = KERNELS[cfg.variant][1]
    engine = _howard if cfg.sweep == "direct" and reads_parent else _iterate
    return engine(tree, values, cfg, obstacle)


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
    return _solve(tree, values, cfg)


def solve_obstacle(tree: TruncatedTree, obstacle: TreeFunction, cfg: SolveConfig) -> ObstacleResult:
    """Largest function below the obstacle satisfying the operator inequality:
    start at the obstacle and descend to the largest solution of
    u = min(obstacle, operator(u)).  The coincidence mask marks vertices
    where the envelope touches the obstacle (within cfg.tol); leaves are
    clamped to the obstacle."""
    if cfg.variant not in ENVELOPE_VARIANTS:
        raise ValueError(f"variant {cfg.variant!r} is not an envelope equation")
    check_variant(cfg.variant, cfg.k, tree.m)
    if obstacle.tree != tree:
        raise ValueError("obstacle lives on a different tree")
    f = obstacle.values.copy()
    report = _solve(tree, f.copy(), cfg, obstacle=f)
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
    check_variant(variant, k, tree.m)
    return _defect(tree, u.values, variant, k)[0]
